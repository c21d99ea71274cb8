"""Distributions of additive functions under multiplicative weights.

Two complementary engines over the same objects:

* exact: sieve-scale tables of f(n) for n <= x, giving partial sums,
  moment generating functions, probability mass functions, and samples
  of g(N) where P(N = n) is proportional to a multiplicative weight.
* asymptotic: compensated Euler products, closed beyond their prime
  cutoff by the prime zeta function where the spec allows, giving the
  limiting constant lambda0, the limiting function psi(z), central
  limit normalization, and precise large-deviation predictions.

The two sides meet in the normalized residual psi_x(z) - psi(z), with
psi_x(z) from BucketSums.residual and psi(z) from psi, whose decay is
the convergence statement the test suite verifies.
"""

from .errors import (
    DegenerateSpecError,
    DivergentLocalFactorError,
    DomainError,
    PoleError,
    SpecGrammarError,
)
from .euler import (
    AdmissibilityReport,
    EulerProductResult,
    check_admissibility_pp,
    g_compensated,
    lambda0,
    psi,
    psi_grid,
)
from .exact import (
    BucketSums,
    DistributionTable,
    bucket_sums,
    bucket_sums_grid,
    partial_sum_grid,
    pmf,
    sample,
)
from .funcs import (
    BIG_OMEGA,
    FULL_PLANE,
    OMEGA,
    AdditiveSpec,
    GrowthBound,
    LocalSeries,
    MultiplicativeSpec,
    StripDomain,
    euler_phi_over_n,
    geometric_B,
    parse_additive,
    parse_multiplicative,
    perturbed,
    tabulated_additive,
    tabulated_multiplicative,
    tau_rho,
    theta_omega,
    twist,
    unit,
)
from .sieve import prime_array
from .special import cexpm1, clog1p, cpow, gamma, zeta
from .stats import (
    CltReport,
    LdpPrediction,
    clt_report,
    eta,
    eta_star,
    ldp_predict,
    normal_cdf,
    psi_prime_at_zero,
)

__version__ = "0.1.0"

__all__ = [
    "AdditiveSpec",
    "AdmissibilityReport",
    "BucketSums",
    "BIG_OMEGA",
    "CltReport",
    "DegenerateSpecError",
    "DistributionTable",
    "DivergentLocalFactorError",
    "DomainError",
    "EulerProductResult",
    "FULL_PLANE",
    "GrowthBound",
    "LocalSeries",
    "LdpPrediction",
    "MultiplicativeSpec",
    "OMEGA",
    "PoleError",
    "SpecGrammarError",
    "StripDomain",
    "bucket_sums",
    "bucket_sums_grid",
    "cexpm1",
    "check_admissibility_pp",
    "clog1p",
    "clt_report",
    "cpow",
    "eta",
    "eta_star",
    "euler_phi_over_n",
    "g_compensated",
    "gamma",
    "geometric_B",
    "lambda0",
    "ldp_predict",
    "normal_cdf",
    "parse_additive",
    "parse_multiplicative",
    "partial_sum_grid",
    "perturbed",
    "pmf",
    "prime_array",
    "psi",
    "psi_grid",
    "psi_prime_at_zero",
    "sample",
    "tabulated_additive",
    "tabulated_multiplicative",
    "tau_rho",
    "theta_omega",
    "twist",
    "unit",
    "zeta",
]
