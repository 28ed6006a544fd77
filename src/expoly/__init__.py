"""Exact computation in free exponential polynomial rings.

Public surface: canonical exponential polynomials with ordinal complexity,
derivations and Jacobians, truncated-series evaluation models, ideal
membership with certificates over finite exponent lattices, tower extension
of ideals into exponential ideals, and the Rabinowitsch certificate
pipeline.
"""

from .epoly import EPoly, LayerDecomposition, ord_reduce
from .ordinals import OrdinalCNF
from .scalars import (BaseField, GAUSSIAN_RATIONALS, GaussianRational,
                      IMAG_UNIT, RATIONALS, Rational, gaussian)
from .errors import (BudgetExceededError, ExpolyError, InternalError,
                     ParseError, PartialityError, PreconditionError,
                     VariableCountError)
from .textio import parse_epoly, parse_ideal_file
from .ediff import (DerivationSpec, apply_derivation, derivation_defect,
                    jacobian, partial_derivative)
from .models import (FloatPoint, SeriesPoint, TruncatedSeries, eval_epoly,
                     khovanskii_check, series_exp)
from .ideals import (IdealHandle, LaurentPresentation, MembershipResult,
                     augmentation, augmentation_mod, present)
from .tower import (DaggerReport, SaturationOutcome, TowerIdeal,
                    TrackedDecomposition, dagger_check, real_kernel_check,
                    rewrite, rewrite_expand, saturate_level_one, split_tilde)
from .rabin import (CertificateResult, PipelineReport, PowerResult, SPoly,
                    adjoin_y, extract_power, nullstellensatz_pipeline,
                    one_certificate)

__version__ = "0.1.0"

__all__ = [
    "BaseField", "BudgetExceededError", "CertificateResult", "DaggerReport",
    "DerivationSpec", "EPoly", "ExpolyError", "FloatPoint",
    "GAUSSIAN_RATIONALS", "GaussianRational", "IMAG_UNIT", "IdealHandle",
    "InternalError", "LaurentPresentation", "LayerDecomposition",
    "MembershipResult", "OrdinalCNF", "ParseError", "PartialityError",
    "PipelineReport", "PowerResult", "PreconditionError", "RATIONALS",
    "Rational", "SPoly", "SaturationOutcome", "SeriesPoint", "TowerIdeal",
    "TrackedDecomposition", "TruncatedSeries", "VariableCountError",
    "adjoin_y", "apply_derivation", "augmentation", "augmentation_mod",
    "dagger_check", "derivation_defect", "eval_epoly", "extract_power",
    "gaussian", "jacobian", "khovanskii_check", "nullstellensatz_pipeline",
    "one_certificate", "ord_reduce", "parse_epoly", "parse_ideal_file",
    "partial_derivative", "present", "real_kernel_check", "rewrite",
    "rewrite_expand", "saturate_level_one", "series_exp", "split_tilde",
]
