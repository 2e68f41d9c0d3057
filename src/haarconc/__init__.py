"""Concentration of Haar measure via random-walk mixing: samplers, exact
kernels, certified envelopes, bound calculators, and experiment pipelines."""

__version__ = "0.1.0"

from .bounds import (
    BoundInputs,
    BoundResult,
    concentration_constant,
    esd_bounds,
    tail_bound,
)
from .groups import (
    Permutation,
    compose,
    invert,
    sample_haar_permutation,
    sample_haar_unitary,
    sample_reflection_step,
)
from .hermitian import sup_cdf_distance
from .kernel import (
    FiniteGroupTable,
    IdentityReport,
    WalkOperator,
    check_identities,
    pair_function,
    pair_potential,
    step_seminorm,
    walk_operator,
)
from .mixing import (
    DecayFit,
    MixingDiagnostic,
    TVCurve,
    exact_tv_curve,
    fit_decay,
    unitary_mixing_diagnostic,
)
from .experiments import (
    ExperimentConfig,
    ExperimentReport,
    child_rng,
    resolve_spectrum,
    run_experiment,
)

__all__ = [
    "BoundInputs",
    "BoundResult",
    "DecayFit",
    "ExperimentConfig",
    "ExperimentReport",
    "FiniteGroupTable",
    "IdentityReport",
    "MixingDiagnostic",
    "Permutation",
    "TVCurve",
    "WalkOperator",
    "check_identities",
    "child_rng",
    "compose",
    "concentration_constant",
    "esd_bounds",
    "exact_tv_curve",
    "fit_decay",
    "invert",
    "pair_function",
    "pair_potential",
    "resolve_spectrum",
    "run_experiment",
    "sample_haar_permutation",
    "sample_haar_unitary",
    "sample_reflection_step",
    "step_seminorm",
    "sup_cdf_distance",
    "tail_bound",
    "unitary_mixing_diagnostic",
    "walk_operator",
]
