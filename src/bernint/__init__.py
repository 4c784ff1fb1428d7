"""bernint: Bernstein operators with integer coefficients.

Exact-arithmetic models of the classical Bernstein operator and its two
integer-coefficient modifications (floor and nearest-integer rounding of
f(k/n) C(n,k)), plus the numerics used to study them: linear-time float
evaluation, derivative models, moduli of smoothness, sup-norm estimation,
rate fitting, and the saturation / Voronovskaya / boundary-interpolation /
converse experiments.  The ``bernint`` CLI exposes the experiments as
reproducible JSON/CSV reports.
"""

__version__ = "0.1.0"

from bernint.analysis import (
    DEFAULT_GRID,
    ErrorPoint,
    GridConfig,
    HypothesisReport,
    InsufficientData,
    ModulusEstimate,
    RateFit,
    SaturationReport,
    SaturationVerdict,
    SupEstimate,
    boundary_interpolation_check,
    converse_experiment,
    error_curve,
    fit_rate,
    grid_points,
    hypothesis_check,
    omega1,
    omega1_sweep,
    omega_phi2,
    proximity_gap,
    saturation_probe,
    sup_norm,
    voronovskaya_check,
)
from bernint.corpus import (
    CapabilityError,
    CorpusEntry,
    FunctionSpec,
    builtin,
    entries,
)
from bernint.exact import (
    DEFAULT_TIE,
    TiePolicy,
    binomial_row,
    iroot,
    rational_pow_bounds,
    rational_pow_exact,
)
from bernint.operators import (
    BernsteinModel,
    HypothesisViolation,
    OperatorKind,
    build_model,
    classic_power_form,
    derivative_model,
    evaluate,
    evaluate_exact,
    proximity_gap_exact,
)

__all__ = [
    "__version__",
    # exact
    "TiePolicy", "DEFAULT_TIE", "binomial_row",
    "iroot", "rational_pow_exact", "rational_pow_bounds",
    # operators
    "OperatorKind", "BernsteinModel", "HypothesisViolation",
    "build_model", "evaluate", "evaluate_exact", "derivative_model",
    "classic_power_form", "proximity_gap_exact",
    # corpus
    "FunctionSpec", "CorpusEntry", "CapabilityError", "builtin", "entries",
    # analysis
    "GridConfig", "DEFAULT_GRID", "grid_points", "SupEstimate", "sup_norm",
    "ModulusEstimate", "omega1", "omega1_sweep", "omega_phi2",
    "InsufficientData", "RateFit", "fit_rate", "ErrorPoint", "error_curve",
    "voronovskaya_check", "SaturationVerdict", "SaturationReport",
    "saturation_probe", "boundary_interpolation_check", "converse_experiment",
    "proximity_gap",
    "HypothesisReport", "hypothesis_check",
]
