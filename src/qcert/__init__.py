"""qcert: exact distinct-partition counts, certified asymptotics, and
machine-verified Turan/Laguerre-type inequalities.

The package has three layers:

* exact integers: ``qtable`` computes q(n) (partitions into distinct
  parts) by Gauss's theta recurrence in big integers;
* certified numerics: ``intervals``/``enclosures`` provide dyadic
  interval arithmetic with outward rounding, ``ring``/``coeffs`` the
  exact expansion coefficients in Q[pi^±1, sqrt3], and ``bounds`` the
  fully explicit two-sided envelopes for q(n+s);
* verification: ``certify`` proves the eight inequality theorems by
  combining a polynomial positivity certifier with exact finite scans.
"""

from .bounds import (
    BoundPoly,
    ErrorBudget,
    bound_poly,
    bound_value,
    decay_threshold,
    error_budget,
    n_min,
    prefactor,
    window_max,
)
from .certify import (
    INEQUALITIES,
    THEOREMS,
    Certificate,
    IneqPoly,
    TheoremSpec,
    VerificationReport,
    build_ineq,
    certify_inequality,
    certify_positive,
    exact_verify,
    find_crossover,
    sharpness_scan,
    verify_theorem,
)
from .coeffs import (
    bessel_asym_coeff,
    binom_factor_coeff,
    exp_binom_coeff,
    exp_factor_coeff,
    expansion_coeff,
    bessel_factor_coeff,
    gen_binomial,
    rising_factorial,
    shift_sigma,
)
from .enclosures import (
    enclose_cosh,
    enclose_exp,
    enclose_log,
    enclose_pi,
)
from .intervals import (
    DEFAULT_PRECISION,
    DomainError,
    Dyadic,
    Interval,
)
from .qtable import (
    QTable,
    load_or_build,
)
from .ring import RingElem

__version__ = "1.0.0"
