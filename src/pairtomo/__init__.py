"""Pairwise-factorized reconstruction of multi-qubit quantum processes.

Workflow: simulate a noisy n-qubit gate layer, collect exact or sampled
two-qubit tomography for every qubit pair, then fit a product of two-qubit
factor channels to those reductions with a CPTP-penalized least-squares
solver.  See the README for the CLI and file formats.
"""

from .channels import (
    DegenerateChiError,
    DimensionError,
    InvalidKrausError,
    OperatorBasis,
    choi_to_superop,
    chi_to_superop,
    cptp_residuals,
    embed_chi,
    embed_operator,
    is_cptp_choi,
    kraus_to_superop,
    partial_trace,
    partial_trace_choi,
    pauli_basis,
    pauli_product,
    project_psd_chi,
    random_cptp_superop,
    random_kraus_set,
    superop_to_chi,
    superop_to_choi,
    trace_distance,
    unitary_to_superop,
    unvec,
    vec,
)
from .gates import CNOT_2Q, GateLayer, gate_unitary, identity_layer
from .gateset import (
    CharacterizedGateSet,
    ConvexDecomposition,
    GateSet,
    NotDecomposableError,
    decompose_ideal_reduction,
    gst_sigma,
    simulate_gateset,
    two_qubit_gateset,
)
from .model import (
    PairwiseModel,
    all_pairs,
    build_superop,
    chi_of_unitary,
    factor_superop,
    ideal_initial_guess,
    identity_chi,
    identity_model,
    pack,
    unpack,
)
from .reconstruct import (
    ReconstructionResult,
    SolverConfig,
    SolverDivergedError,
    TomographyData,
    model_trace_distances,
    residual_vector,
    solve,
)
from .simulate import (
    CoherentLocal,
    CRCoherent,
    Decoherence,
    NoisyProcess,
    UnsupportedErrorModelError,
    cr_cnot_unitary,
    cr_unitary,
    error_superop,
    pairwise_qpt,
    sampled_pairwise_qpt,
    simulate_noisy_process,
    zz_coupling_hz,
)

__version__ = "0.1.0"
