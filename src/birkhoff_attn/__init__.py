"""Doubly stochastic attention normalizers and their analysis toolkit.

Normalization routes from raw score matrices to (approximately) doubly
stochastic weights: Sinkhorn iteration in two arithmetic flavors, Euclidean
projection onto the Birkhoff polytope by Dykstra's algorithm, an
orthostochastic map built on QR, and a simulated parameterized-circuit
normalizer with exact and finite-shot readout.  Around them: exact counting
of grid-valued doubly stochastic matrices, grid sweeps measuring how many
distinct outputs each route can produce, invariance probes, and hand-derived
VJPs for the differentiable routes.
"""

from .attention import VJP_NORMALIZERS, AttentionConfig, attention_forward, vjp_check
from .birkhoff import (
    ProjectionError,
    ProjectionSettings,
    affine_project,
    birkhoff_distance,
    project,
)
from .core import (
    Dsm,
    StochasticityReport,
    as_dsm,
    check_stochasticity,
    frobenius_distance,
    load_matrix,
    load_matrix_csv,
    load_matrix_json,
    load_table_csv,
    save_matrix_csv,
    save_matrix_json,
    shannon_entropy,
    spearman_rho,
)
from .counting import (
    c2_closed,
    count_brute,
    decomposition_check,
    f3_analytic,
)
from .expressivity import (
    GridSpec,
    SweepReport,
    grid_matrices,
    grid_total,
    probe_invariances,
    sphere_columns,
    tradeoff_sweep,
    uniqueness_sweep,
)
from .operators import (
    OPERATOR_NAMES,
    BirkhoffNormalizer,
    NormSoftmax,
    Normalizer,
    QontotNormalizer,
    QrNormalizer,
    SinkhornNaive,
    SinkhornOT,
    Softmax,
    make_operator,
    norm_softmax,
    qontot_theta,
    softmax_rows,
    softmax_vjp,
)
from .qontot import (
    SIMPLE,
    TROTTER,
    CircuitConfig,
    bench_circuit,
    build_block,
    inject,
    param_count,
    sample_shots,
    simulate_dsm,
)
from .qr import qr_dsm, qr_orthonormalize
from .sinkhorn import exp_scale, sinkhorn_naive, sinkhorn_naive_vjp, sinkhorn_ot

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "BirkhoffNormalizer",
    "CircuitConfig",
    "Dsm",
    "GridSpec",
    "NormSoftmax",
    "Normalizer",
    "OPERATOR_NAMES",
    "ProjectionError",
    "ProjectionSettings",
    "QontotNormalizer",
    "QrNormalizer",
    "SIMPLE",
    "SinkhornNaive",
    "SinkhornOT",
    "Softmax",
    "StochasticityReport",
    "SweepReport",
    "TROTTER",
    "VJP_NORMALIZERS",
    "affine_project",
    "as_dsm",
    "attention_forward",
    "bench_circuit",
    "birkhoff_distance",
    "build_block",
    "c2_closed",
    "check_stochasticity",
    "count_brute",
    "decomposition_check",
    "exp_scale",
    "f3_analytic",
    "frobenius_distance",
    "grid_matrices",
    "grid_total",
    "inject",
    "load_matrix",
    "load_matrix_csv",
    "load_matrix_json",
    "load_table_csv",
    "make_operator",
    "norm_softmax",
    "param_count",
    "probe_invariances",
    "project",
    "qontot_theta",
    "qr_dsm",
    "qr_orthonormalize",
    "sample_shots",
    "save_matrix_csv",
    "save_matrix_json",
    "shannon_entropy",
    "simulate_dsm",
    "sinkhorn_naive",
    "sinkhorn_naive_vjp",
    "sinkhorn_ot",
    "softmax_rows",
    "softmax_vjp",
    "spearman_rho",
    "sphere_columns",
    "tradeoff_sweep",
    "uniqueness_sweep",
    "vjp_check",
    "__version__",
]
