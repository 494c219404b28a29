"""Local-interaction autoregression on gridded time series.

Each grid entry evolves as a linear function of lagged values inside a
site-specific spatial neighborhood plus noise.  The package simulates
such processes, fits them by embarrassingly parallel per-site least
squares, selects neighborhood sizes with an entrywise BIC, projects
fitted kernels onto separable low-rank structure, and forecasts.
"""

from .errors import (
    ConfigurationError,
    GtsFormatError,
    LiarError,
    NumericalError,
    SizeError,
    StabilityError,
    StructureError,
    UnderdeterminedError,
)
from .evaluate import (
    AutoCovEstimate,
    ForecastResult,
    MarFit,
    autocov,
    baseline_mar_als,
    baseline_pixel_ar,
    forecast,
    holdout_rmse,
    mar_forecast,
    mar_holdout_rmse,
    rmse,
)
from .fit import (
    DesignBlock,
    FitReport,
    SiteFit,
    assemble_design,
    fit_all,
    fit_site,
    standard_errors,
)
from .grid import (
    GridSeries,
    extract_patch,
    linear_to_site,
    read_csv_frames,
    read_gts,
    site_to_linear,
    sites_to_linear,
    write_gts,
)
from .neighborhoods import (
    Neighborhood,
    NeighborhoodFamily,
    box_field,
    box_neighborhood,
    custom_neighborhood,
    interior_mask,
    nested_family,
)
from .select import (
    BicTrace,
    SelectionReport,
    bic_score,
    default_d0,
    select_all,
    select_site,
)
from .separable import (
    BlockKernelMatrix,
    SeparableFit,
    assemble_block,
    fit_spliar,
    scatter_block,
    truncated_svd,
)
from .simulate import (
    KernelField,
    NoiseSpec,
    kernel_distance,
    operator_norm,
    random_stable_kernels,
    simulate_liar,
)

__version__ = "0.1.0"

__all__ = [
    "AutoCovEstimate",
    "BicTrace",
    "BlockKernelMatrix",
    "ConfigurationError",
    "DesignBlock",
    "FitReport",
    "ForecastResult",
    "GridSeries",
    "GtsFormatError",
    "KernelField",
    "LiarError",
    "MarFit",
    "Neighborhood",
    "NeighborhoodFamily",
    "NoiseSpec",
    "NumericalError",
    "SelectionReport",
    "SeparableFit",
    "SiteFit",
    "SizeError",
    "StabilityError",
    "StructureError",
    "UnderdeterminedError",
    "assemble_block",
    "assemble_design",
    "autocov",
    "baseline_mar_als",
    "baseline_pixel_ar",
    "bic_score",
    "box_field",
    "box_neighborhood",
    "custom_neighborhood",
    "default_d0",
    "extract_patch",
    "fit_all",
    "fit_site",
    "fit_spliar",
    "forecast",
    "holdout_rmse",
    "interior_mask",
    "kernel_distance",
    "linear_to_site",
    "mar_forecast",
    "mar_holdout_rmse",
    "nested_family",
    "operator_norm",
    "random_stable_kernels",
    "read_csv_frames",
    "read_gts",
    "rmse",
    "scatter_block",
    "select_all",
    "select_site",
    "simulate_liar",
    "site_to_linear",
    "sites_to_linear",
    "standard_errors",
    "truncated_svd",
    "write_gts",
]
