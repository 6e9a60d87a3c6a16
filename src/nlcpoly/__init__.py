"""Orthogonal polynomials, moment problems and spectral diagnostics for
positive sequences arising from nonlinear coherent states."""

from __future__ import annotations

from .sequences import (  # noqa: F401
    InequalityReport, MonotoneReport, ParameterDomainError, SequenceLimit,
    SequenceRangeError, SequenceSpec, check_monotone_and_bounded,
    check_nonlinear_inequalities, family_names, x_float, x_floats, x_limit,
    x_minus_limit, x_value,
)
from .special import (  # noqa: F401
    CMReport, DomainError, bessel_k, cm_sequence_test, log_gamma,
)
from .cm_generators import sqrt_deviation_scaled  # noqa: F401
from .moments import (  # noqa: F401
    BergDuranReport, DegenerateMomentsError, HankelResult, MomentSequence,
    bareiss_determinant, berg_duran_check, hankel_determinant, hankel_polynomial,
)
from .recurrence import (  # noqa: F401
    monic_polynomials, monic_q_coefficients, monic_q_polynomials, phi_value,
    phi_window,
)
from .spectral import (  # noqa: F401
    SpectralResult, SupportEndpoints, TruncatedJacobi, build_truncated,
    char_poly, ismail_li_bounds, jacobi_zeros, support_endpoints, sturm_count,
)
from .quadrature import QuadratureResult, exp_sinh, tanh_sinh  # noqa: F401
from .measures import (  # noqa: F401
    MeasureSpec, MomentCheckReport, get_measure, measure_names,
    select_bessel_ladder_measure, verify_moment_problem,
)
from .asymptotics import (  # noqa: F401
    AmplitudeEstimate, NevaiDiagnostic, amplitude_extract, nevai_amplitude,
    nevai_condition, rescaled_phi_window,
)

__version__ = "0.1.0"
