"""Numerical workbench for stoquastic SAT and local-Hamiltonian minimization.

Core objects: non-negative local operators and their sums (ops),
instance files (instances), eigenvalue routines (spectral),
witness construction (prover), the random-walk verification protocol
(walk), reversible verifier circuits and the Hamiltonian-to-verifier
reduction (circuits), the clock compilation of circuits back into local
Hamiltonians (clock), and trace-functional / disorder-average
estimators (estimators).
"""

__version__ = "0.1.0"

from .ops import (ETA, Gate, LocalOperator, OperatorSum, amplitude_ratio,
                  apply_to_basis, assemble_dense, assemble_sparse,
                  block_decompose, circuit_permutation, conjugate_by_circuit,
                  make_block_projector, matrix_element, projector_check)
from .instances import (DisorderEnsemble, LhMinInstance, SchemaError,
                        StoqSatInstance, TermTemplate, clause_projector,
                        from_dimacs, load, parse_dimacs,
                        random_projector_instance, save, validate)
from .spectral import (SpectralResult, dense_spectrum, extreme_eigenvalue,
                       spectral_gap)
from .prover import (HonestWitness, WitnessVector, adversarial_witnesses,
                     honest_witness)
from .walk import (AcceptanceReport, WalkConfig, WalkRunner, WalkTranscript,
                   acceptance_rate, build_G, required_steps, wilson_interval)
from .circuits import (MixedVerifier, StoqDecomposition, StoqPart,
                       VerifierCircuit, acceptance_operator,
                       acceptance_probability, circuit_from_document,
                       circuit_to_document, decompose_stoquastic,
                       dyadic_weights, hamiltonian_to_verifier, initial_state,
                       load_circuit, max_acceptance, mix, save_circuit,
                       x_projector_isometry, zero_projector_isometry)
from .clock import (ClockInstance, check_history_invariants, compile_circuit,
                    export_6sat, history_state, local_term, meas_expectation,
                    perturbed_hamiltonian, predicted_min_eigenvalue)
from .estimators import (AvDecision, EnsembleStats, TraceReport, av_decide,
                         cnf_ensemble, cnf_ensemble_from_dimacs, lambda_stats,
                         replica_ensemble, sbp_bounds, sbp_matrix,
                         trace_power, trace_report)
