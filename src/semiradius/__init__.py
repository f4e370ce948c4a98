"""Certified functionals and inequality checks for semi-Hilbert spaces.

A positive semidefinite seed matrix induces a semi-inner product; this
package computes the induced operator seminorm, numerical radius, and
Crawford number as certified enclosures, and verifies a catalog of
inequalities between them over reproducible random campaigns.
"""

__version__ = "0.1.0"

from .campaign import (
    CampaignConfig,
    report_exit_code,
    run_campaign,
    save_extremes,
    verify_instance,
    write_csv,
    write_report,
)
from .catalog import (
    CATALOG,
    CheckResult,
    run_all,
    run_check,
    tightness_report,
)
from .errors import SemiradiusError
from .functionals import (
    Enclosure,
    RadiusOptions,
    a_numerical_radius,
    crawford,
    crawford_number,
    mc_crawford_upper,
    mc_radius_lower,
    numerical_radius,
    op_seminorm,
)
from .instances import read_instance, write_instance
from .sampler import (
    SampleConfig,
    derive_seed,
    sample_a_selfadjoint,
    sample_bundle,
    sample_commuting_pair,
    sample_operator_in_BA,
    sample_space,
    sample_unit_vectors,
)
from .space import SemiHilbertSpace, build_space

__all__ = [
    "CATALOG",
    "CampaignConfig",
    "CheckResult",
    "Enclosure",
    "RadiusOptions",
    "SampleConfig",
    "SemiHilbertSpace",
    "SemiradiusError",
    "__version__",
    "a_numerical_radius",
    "build_space",
    "crawford",
    "crawford_number",
    "derive_seed",
    "mc_crawford_upper",
    "mc_radius_lower",
    "numerical_radius",
    "op_seminorm",
    "read_instance",
    "report_exit_code",
    "run_all",
    "run_campaign",
    "run_check",
    "sample_a_selfadjoint",
    "sample_bundle",
    "sample_commuting_pair",
    "sample_operator_in_BA",
    "sample_space",
    "sample_unit_vectors",
    "tightness_report",
    "verify_instance",
    "write_csv",
    "write_instance",
    "write_report",
]
