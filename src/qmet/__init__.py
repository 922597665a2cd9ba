"""qmet: optimal estimation workbench for two-qubit entanglement and discord.

The package simulates polarization-encoded two-qubit states from a
one-parameter mixing family, samples projective measurements, and estimates
entanglement and discord measures with estimators whose variances are checked
against their quantum Cramer-Rao bounds. Tomographic reconstruction and a
sweep harness reproduce the full estimation pipeline end to end.
"""
from .errors import ConfigError, DomainError
from .estimation import (
    NONOPTIMAL,
    OPTIMAL,
    VARIANTS,
    EstimateResult,
    FisherReport,
    cfi_numeric,
    estimate,
    measure_path,
    nonopt_unc_curves,
    qcrb_curves,
    qcrb_unc,
    qfi_numeric,
)
from .harness import (
    DIRECT_STATE,
    MIXING_MODES,
    POST_PROCESS_MIX,
    SWEEP_KINDS,
    SweepConfig,
    SweepRow,
    build_config,
    emit_all,
    emit_csv,
    emit_svg,
    run_sweep,
)
from .measurement import (
    DA_DA,
    OUTCOME_LABELS,
    OutcomeCounts,
    mix_counts,
    outcome_probabilities,
    sample_counts,
    setting_projectors,
)
from .states import (
    CONCURRENCE,
    LOG_NEGATIVITY,
    MEASURE_KINDS,
    NEGATIVITY,
    QGD,
    FamilyFit,
    concurrence,
    dephased_mixture,
    family_state,
    fidelity,
    fit_family_params,
    log_negativity,
    measures,
    negativity,
    qgd,
    singlet,
    validate_density_matrix,
)
from .streams import RandomStream
from .tomography import (
    Reconstruction,
    TomoDataset,
    reconstruct_linear,
    reconstruct_mle,
    simulate_tomography,
    tomo_report,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "DomainError",
    "NONOPTIMAL", "OPTIMAL", "VARIANTS",
    "EstimateResult", "FisherReport",
    "cfi_numeric", "estimate", "measure_path",
    "nonopt_unc_curves", "qcrb_curves", "qcrb_unc", "qfi_numeric",
    "DIRECT_STATE", "MIXING_MODES", "POST_PROCESS_MIX", "SWEEP_KINDS",
    "SweepConfig", "SweepRow", "build_config",
    "emit_all", "emit_csv", "emit_svg", "run_sweep",
    "DA_DA", "OUTCOME_LABELS", "OutcomeCounts",
    "mix_counts", "outcome_probabilities", "sample_counts",
    "setting_projectors",
    "CONCURRENCE", "LOG_NEGATIVITY", "MEASURE_KINDS", "NEGATIVITY", "QGD",
    "FamilyFit",
    "concurrence", "dephased_mixture", "family_state", "fidelity",
    "fit_family_params", "log_negativity", "measures", "negativity", "qgd",
    "singlet", "validate_density_matrix",
    "RandomStream",
    "Reconstruction", "TomoDataset",
    "reconstruct_linear", "reconstruct_mle", "simulate_tomography",
    "tomo_report",
    "__version__",
]
