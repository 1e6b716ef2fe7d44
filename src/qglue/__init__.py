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
modules; suites, report and cli package the whole battery of checks,
params holds the run's parameters and entry the command line front.

Importing qglue loads no submodule: a public name is imported from its
submodule on first access (PEP 562), so a process that only reads the
command line, such as `qglue --version`, never imports numpy.
"""

import importlib

# the one version string: pyproject.toml and the CLI read it from here
__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "circle": (
            "BiLaurent", "LaurentPoly", "hopf_antipode", "hopf_coproduct", "hopf_counit",
            "pointwise_product", "w_inverse", "w_map",
        ),
        "coefficients": ("CoefPoly", "ONE", "P", "Q", "S", "ZERO"),
        "errors": (
            "CertificationError", "DimensionMismatch", "GradingError", "PresentationError",
            "QGlueError", "SymbolMismatch", "UnsupportedSymbol", "WindowOverflow",
        ),
        "glue": (
            "FibrePair", "ORIENTATION", "OuterProduct", "chi", "en_numeric", "fp_matmul",
            "iota", "iota_kron_assignment", "kron_interior", "podles_generators",
            "polar_part", "psi_inverse", "psi_iso", "s2_leg_assignment", "s3_leg_assignment",
        ),
        "idempotents": ("build_en", "gaussian_binomial"),
        "kpair": (
            "CHI_RESIDUAL_TOL", "EN_RESIDUAL_TOL", "FredholmModule", "ORIENTATION_SIGN",
            "PairingResult", "expected_pairing", "pair", "winding_interpretation",
        ),
        "ncpoly": ("NCPoly",),
        "opnum": (
            "TruncOp", "diag_op", "disc_assignment", "disc_rep", "evaluate", "identity",
            "inv_sqrt_psd", "kron", "pi_rep", "shift", "trace_finite_rank",
            "trusted_diff_norm",
        ),
        "params": ("ParamSet",),
        "presentations": ("Presentation", "degree", "normal_form", "verify_identity"),
        "presets": (
            "all_presentations", "disc_presentation", "podles_zeta_eta",
            "sphere2_presentation", "sphere3_presentation", "su2_presentation",
        ),
        "report": ("CSV_COLUMNS", "CheckRecord", "Report", "timestamp_now"),
        "suites": ("SUITES", "run_suites"),
    }.items()
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    """Import a public name from its submodule on first access and bind it
    here, so later reads are plain attribute reads."""
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
