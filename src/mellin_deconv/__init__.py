"""Density estimation for positive data observed under multiplicative noise.

The unknown density of X is recovered from samples of Y = X * U (U has a
known density) by estimating the Mellin transform of Y, dividing out the
noise transform with either a spectral cut-off window or a ridge damping,
and inverting.  Both regularisation levels are chosen from the data.
"""

from .grids import QuadratureConfig, default_x_grid
from .mellin import (
    EmpiricalMellin,
    HermitianSymmetryError,
    MellinError,
    MellinFunction,
    WeightedFunction,
    catalog_mellin,
    empirical_mellin_on_grid,
    inverse_mellin,
)
from .model import (
    CATALOG_IDS,
    ERROR_IDS,
    TARGET_IDS,
    DensitySpec,
    RngStream,
    contaminate,
    density_eval,
    density_spec,
    read_sample_csv,
    sample,
    stream_id_for,
    write_sample_csv,
)
from .estimators import (
    CutoffSpec,
    DensityEstimate,
    MellinMultiplier,
    NoiseTransformZeroError,
    RidgeSpec,
    cutoff_multiplier,
    estimate_density,
    ridge_multiplier,
    write_estimate_csv,
)
from .selection import (
    EmptyAdmissibleSetError,
    LevelDiagnostics,
    Pipeline,
    RidgePowerOverflowError,
    SelectionConfig,
    SelectionResult,
    TooManyLevelsError,
    select_cutoff,
    select_ridge,
    sigma_hat,
    write_diagnostics_csv,
)
from .risk import (
    ExperimentConfig,
    MiseReport,
    MiseRow,
    ProfileRow,
    XGridSpec,
    bias_variance_profile,
    run_mise,
    run_mise_pair,
    run_oracle_rate,
    run_selection_oracle_comparison,
    run_table_grid,
    sigma_c_true,
    table1_selection_config,
    weighted_moment,
    write_mise_csv,
    write_profile_csv,
)

__version__ = "0.1.0"
