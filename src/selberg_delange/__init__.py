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

import importlib.util
import sys

from . import errors, funcs, sieve, special

# each public name, under the module that defines it
_PUBLIC = {
    "errors": ("DegenerateSpecError", "DivergentLocalFactorError", "DomainError", "PoleError", "SpecGrammarError"),
    "euler": (
        "AdmissibilityReport", "EulerProductResult", "check_admissibility_pp", "g_compensated", "lambda0", "psi",
        "psi_grid",
    ),
    "exact": (
        "BucketSums", "DistributionTable", "bucket_sums", "bucket_sums_grid", "partial_sum_grid", "pmf", "sample",
    ),
    "funcs": (
        "BIG_OMEGA", "FULL_PLANE", "OMEGA", "AdditiveSpec", "GrowthBound", "LocalSeries", "MultiplicativeSpec",
        "StripDomain", "euler_phi_over_n", "geometric_B", "parse_additive", "parse_multiplicative", "perturbed",
        "tabulated_additive", "tabulated_multiplicative", "tau_rho", "theta_omega", "twist", "unit",
    ),
    "sieve": ("prime_array",),
    "special": ("cexpm1", "clog1p", "cpow", "gamma", "zeta"),
    "stats": (
        "CltReport", "LdpPrediction", "clt_report", "eta", "eta_star", "ldp_predict", "normal_cdf",
        "psi_prime_at_zero",
    ),
}
_HOME = {name: module for module, names in _PUBLIC.items() for name in names}


def _lazy(name: str):
    """The submodule name, in sys.modules at once and run at its first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# the engines: a command that calls none of one never runs it
euler, exact, stats = _lazy("euler"), _lazy("exact"), _lazy("stats")


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__():
    return sorted(set(globals()) | set(_HOME))


__version__ = "0.1.0"

__all__ = sorted(_HOME)
