"""Exact computation in free exponential polynomial rings.

Public surface: canonical exponential polynomials with ordinal complexity,
derivations and Jacobians, exact evaluation at truncated-series points,
ideal membership with certificates over finite exponent lattices, tower
extension of ideals into exponential ideals, and the Rabinowitsch
certificate pipeline.
"""

from .epoly import EPoly, ord_reduce
from .ordinals import OrdinalCNF
from .scalars import GaussianRational, IMAG_UNIT, gaussian
from .errors import (BudgetExceededError, ExpolyError, InternalError,
                     ParseError, PartialityError, PreconditionError,
                     VariableCountError)
from .textio import parse_epoly, parse_ideal_file
from .ediff import (DerivationSpec, apply_derivation, jacobian,
                    partial_derivative)
from .models import (SeriesPoint, TruncatedSeries, eval_epoly,
                     khovanskii_check, series_exp)
from .ideals import (IdealHandle, LaurentPresentation, MembershipResult,
                     present)
from .tower import (DaggerReport, SaturationOutcome, TowerIdeal,
                    TrackedDecomposition, augmentation, augmentation_mod,
                    dagger_check, real_kernel_check, rewrite, rewrite_expand,
                    saturate_level_one)
from .rabin import (CertificateResult, PipelineReport, PowerResult,
                    extract_power, nullstellensatz_pipeline, one_certificate)

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "CertificateResult", "DaggerReport",
    "DerivationSpec", "EPoly", "ExpolyError",
    "GaussianRational", "IMAG_UNIT", "IdealHandle", "InternalError",
    "LaurentPresentation", "MembershipResult", "OrdinalCNF", "ParseError",
    "PartialityError", "PipelineReport", "PowerResult", "PreconditionError",
    "SaturationOutcome", "SeriesPoint", "TowerIdeal",
    "TrackedDecomposition", "TruncatedSeries", "VariableCountError",
    "apply_derivation", "augmentation", "augmentation_mod",
    "dagger_check", "eval_epoly", "extract_power",
    "gaussian", "jacobian", "khovanskii_check", "nullstellensatz_pipeline",
    "one_certificate", "ord_reduce", "parse_epoly", "parse_ideal_file",
    "partial_derivative", "present", "real_kernel_check", "rewrite",
    "rewrite_expand", "saturate_level_one", "series_exp",
]
