"""qglue: a symbolic and numeric workbench for glued quantum-disc algebras.

The package has three layers. The symbolic layer (coefficients, ncpoly,
presentations, presets, idempotents) rewrites elements of
finitely presented *-algebras to exact normal forms over the Laurent ring
in q, p and the family parameter s; circle holds the exact Laurent
elements of the boundary circle. The numeric layer (opnum) evaluates both
on truncated half-line operators and windowed shift pictures, tracking
which matrix block can be trusted. The gluing layer
(glue, kpair) assembles fibre pairs over the common boundary circle,
builds line-bundle idempotents and pairs them with the two Fredholm
modules; suites, report and cli package the whole battery of checks.
"""

from .circle import (
    BiLaurent,
    LaurentPoly,
    hopf_antipode,
    hopf_coproduct,
    hopf_counit,
    pointwise_product,
    w_inverse,
    w_map,
)
from .coefficients import ONE, P, Q, S, ZERO, CoefPoly
from .errors import (
    CertificationError,
    DimensionMismatch,
    GradingError,
    PresentationError,
    QGlueError,
    RewriteLimitExceeded,
    SizeCapExceeded,
    SymbolMismatch,
    WindowOverflow,
)
from .glue import (
    ORIENTATION,
    FibrePair,
    chi,
    en_numeric,
    fp_matmul,
    iota,
    iota_kron_assignment,
    kron_interior,
    podles_generators,
    polar_part,
    psi_inverse,
    psi_iso,
    s2_leg_assignment,
    s3_leg_assignment,
    s3_leg_symbol,
)
from .idempotents import build_en, gaussian_binomial
from .kpair import (
    CHI_RESIDUAL_TOL,
    EN_RESIDUAL_TOL,
    ORIENTATION_SIGN,
    FredholmModule,
    PairingResult,
    expected_pairing,
    pair,
    winding_interpretation,
)
from .ncpoly import NCPoly
from .opnum import (
    ParamSet,
    TruncOp,
    diag_op,
    disc_assignment,
    disc_rep,
    evaluate,
    identity,
    inv_sqrt_psd,
    kron,
    pi_rep,
    shift,
    trace_finite_rank,
    trusted_diff_norm,
)
from .presentations import (
    Presentation,
    degree,
    normal_form,
    verify_identity,
)
from .presets import (
    all_presentations,
    disc_presentation,
    podles_zeta_eta,
    sphere2_presentation,
    sphere3_presentation,
    su2_presentation,
)
from .report import CSV_COLUMNS, CheckRecord, Report, timestamp_now
from .suites import SUITES, run_suites

# the one version string: pyproject.toml and the CLI read it from here
__version__ = "0.1.0"

__all__ = [
    "BiLaurent",
    "CHI_RESIDUAL_TOL",
    "CSV_COLUMNS",
    "CertificationError",
    "CheckRecord",
    "CoefPoly",
    "DimensionMismatch",
    "EN_RESIDUAL_TOL",
    "FibrePair",
    "FredholmModule",
    "GradingError",
    "LaurentPoly",
    "NCPoly",
    "ONE",
    "ORIENTATION",
    "ORIENTATION_SIGN",
    "P",
    "PairingResult",
    "ParamSet",
    "Presentation",
    "PresentationError",
    "Q",
    "QGlueError",
    "Report",
    "RewriteLimitExceeded",
    "S",
    "SUITES",
    "SizeCapExceeded",
    "SymbolMismatch",
    "TruncOp",
    "WindowOverflow",
    "ZERO",
    "all_presentations",
    "build_en",
    "chi",
    "degree",
    "diag_op",
    "disc_assignment",
    "disc_presentation",
    "disc_rep",
    "en_numeric",
    "evaluate",
    "expected_pairing",
    "fp_matmul",
    "gaussian_binomial",
    "hopf_antipode",
    "hopf_coproduct",
    "hopf_counit",
    "identity",
    "inv_sqrt_psd",
    "iota",
    "iota_kron_assignment",
    "kron",
    "kron_interior",
    "normal_form",
    "pair",
    "pi_rep",
    "podles_generators",
    "podles_zeta_eta",
    "pointwise_product",
    "polar_part",
    "psi_inverse",
    "psi_iso",
    "run_suites",
    "s2_leg_assignment",
    "s3_leg_assignment",
    "s3_leg_symbol",
    "shift",
    "sphere2_presentation",
    "sphere3_presentation",
    "su2_presentation",
    "timestamp_now",
    "trace_finite_rank",
    "trusted_diff_norm",
    "verify_identity",
    "w_inverse",
    "w_map",
    "winding_interpretation",
]
