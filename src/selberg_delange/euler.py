"""Truncated Euler products: local factors, leading constants, limits.

Everything here reduces to products over primes p <= P of local factors
(1 - p^{-s})^rho (1 + F_p(s)), where F_p(s) = sum_k f(p^k) p^{-ks} is
truncated using the spec's geometric growth envelope.  Products are
accumulated in log space (exact summation of per-prime logs) so that
10^6 factors neither underflow nor lose relative accuracy.

The leading constant at s = 1,

    lambda0(f) = (1/Gamma(rho)) prod_p (1 - 1/p)^rho sum_k f(p^k) p^{-k},

is defined as exactly 0 when rho is a nonpositive integer, and the
limiting function of the normalized twisted averages is the ratio
psi(z) = lambda0(alpha_{e^z}) / lambda0(alpha).  Its derivative psi'(0)
is the logarithmic derivative of the product, one more sum over the
same primes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache, partial
from math import fsum
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateSpecError,
    DivergentLocalFactorError,
    DomainError,
    PoleError,
)
from .exact import multiplicative_value_table
from .funcs import AdditiveSpec, MultiplicativeSpec, OMEGA, _prime_power_values, twist
from .sieve import prime_array
from .special import digamma, gamma

DEFAULT_PRIME_CUTOFF = 10**6
DEFAULT_FACTOR_TOL = 1e-14

# rho values this close to a nonpositive integer trigger the exact-zero
# rule; covers e.g. e^{i pi} * rho carrying one ulp of rounding
_INTEGER_SNAP_TOL = 1e-12

_K_HARD_CAP = 100_000


@dataclass(frozen=True)
class EulerProductResult:
    """Value of a truncated Euler product plus truncation metadata.

    k_cutoff is the largest per-prime series length used; tail_estimate
    is a heuristic bound on |log value - log true value| from the
    discarded primes p > prime_cutoff (0 when the value is exactly 0).
    """

    value: complex
    prime_cutoff: int
    k_cutoff: int
    tail_estimate: float


@dataclass(frozen=True)
class AdmissibilityReport:
    """Numeric diagnostics for the square-summability condition.

    square_sum_partials holds (P, sum over p <= P of the squared inner
    series at exponent 1 - c0); the verdict is read off the power-law
    slope of successive increments, with witness set to the smallest
    prime whose inner series outright diverges.
    """

    c0: float
    verdict: str
    witness: Optional[int]
    abscissa_estimate: float
    square_sum_partials: List[Tuple[int, float]]
    increment_exponent: Optional[float]


def _is_snapped_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    if abs(z.imag) > _INTEGER_SNAP_TOL:
        return False
    nearest = round(z.real)
    return nearest <= 0 and abs(z.real - nearest) <= _INTEGER_SNAP_TOL


def _series_length(C: float, q: float, tol: float, p: int) -> int:
    """Smallest K with geometric tail C q^{K+1}/(1-q) <= tol."""
    if q >= 1.0:
        raise DivergentLocalFactorError(
            f"local factor diverges at p={p}: growth ratio {C:g}*{q:g}^k does not decay",
            prime=p,
        )
    if C == 0.0:
        return 0
    K = 1
    bound = C * q * q / (1.0 - q)
    while bound > tol:
        K += 1
        bound *= q
        if K > _K_HARD_CAP:
            raise DivergentLocalFactorError(
                f"local factor at p={p} needs more than {_K_HARD_CAP} terms", prime=p
            )
    return K


def _local_factor_terms(
    spec: MultiplicativeSpec, p: int, s: complex, tol: float
) -> Tuple[complex, int]:
    sigma = s.real
    p_sigma = float(p) ** sigma
    q = spec.growth.r / p_sigma
    K = _series_length(spec.growth.C, q, tol, p)
    if K == 0:
        return 0j, 0
    if s.imag == 0.0:
        t = complex(1.0 / p_sigma)
    else:
        t = cmath.exp(-s * math.log(p))
    value_at = spec.value_at
    acc = 0j
    cur = t
    for k in range(1, K + 1):
        acc += value_at(p, k) * cur
        cur *= t
    return acc, K


def local_factor(spec: MultiplicativeSpec, p: int, s, tol: float = DEFAULT_FACTOR_TOL) -> complex:
    """F_p(s) = sum_{k>=1} f(p^k) p^{-ks}, truncated to tail <= tol.

    Raises:
        DivergentLocalFactorError: p^{Re s} <= growth ratio r.
    """
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    value, _ = _local_factor_terms(spec, int(p), complex(s), _check_tol(tol))
    return value


def _prime_tail_scale(P: int, u: float) -> float:
    """Heuristic for sum over primes p > P of p^{-u} (infinite for u <= 1)."""
    if u <= 1.0:
        return math.inf
    return P ** (1.0 - u) / ((u - 1.0) * math.log(P))


def _second_order_constant(spec: MultiplicativeSpec, rho: complex) -> float:
    C, r = spec.growth.C, spec.growth.r
    return 2.0 * (abs(rho) + (C * r) ** 2 + C * r * r)


class _LocalFactors(NamedTuple):
    """Local series F_p(s) over the primes p <= P, as float64 columns.

    vanished marks that 1 + F_p(s) = 0 at primes[-1], so the product is
    exactly 0; k_max then counts the primes up to that one.
    """

    primes: np.ndarray
    F_re: np.ndarray
    F_im: np.ndarray
    t_re: np.ndarray
    t_im: np.ndarray
    k_max: int
    vanished: bool


def _map_float(fn: Callable, *columns) -> np.ndarray:
    """fn applied elementwise through the scalar math library.

    numpy's own log1p, atan2 and power may differ from libm in the last
    ulp, which would change printed values; mapping keeps every term
    bit-identical to the scalar local_factor path.
    """
    n = max(np.size(c) for c in columns)
    lists = [np.broadcast_to(c, (n,)).tolist() for c in columns]
    return np.fromiter(map(fn, *lists), dtype=np.float64, count=n)


def _series_lengths(
    primes: np.ndarray, q: np.ndarray, C: float, tol: float, envelope: Tuple[float, float] = (1.0, 0.0)
) -> Tuple[np.ndarray, Optional[ArithmeticError]]:
    """Per-prime series lengths under the envelope (a + b k) C q^k.

    K_p is the smallest K >= 1 whose tail bound
    C q^{K+1}/(1-q) (a + b(K+1) + b q/(1-q)) is <= tol; the default
    envelope (1, 0) is the geometric tail of _series_length and rounds
    exactly as it does.  K stops before the first prime whose series
    fails, and that failure is returned as well (None if there is none).
    """
    fail = len(primes)
    failure = None
    diverging = np.flatnonzero(q >= 1.0)
    if len(diverging):
        fail = int(diverging[0])
        p, qf = int(primes[fail]), float(q[fail])
        failure = DivergentLocalFactorError(
            f"local factor diverges at p={p}: growth ratio {C:g}*{qf:g}^k does not decay",
            prime=p,
        )
    q = q[:fail]
    K = np.zeros(fail, dtype=np.int64)
    if C == 0.0:
        return K, failure
    a, b = envelope
    K[:] = 1
    geo = C * q * q / (1.0 - q)
    base = a + b * q / (1.0 - q)
    live = np.flatnonzero(geo * (base + b * 2) > tol)
    geo, q_live, base = geo[live], q[live], base[live]
    k = 1
    while len(live):
        k += 1
        if k > _K_HARD_CAP:
            fail = int(live[0])
            p = int(primes[fail])
            failure = DivergentLocalFactorError(
                f"local factor at p={p} needs more than {_K_HARD_CAP} terms", prime=p
            )
            return K[:fail], failure
        K[live] = k
        geo = geo * q_live
        keep = geo * (base + b * (k + 1)) > tol
        live, geo, q_live, base = live[keep], geo[keep], q_live[keep], base[keep]
    return K, failure


def _powers(values: Callable, primes: np.ndarray, K: np.ndarray, *columns: np.ndarray):
    """Yield (live, values(p, k), columns) for k = 1, 2, ...

    live indexes the primes whose series reaches k (K_p >= k); values
    gets them as an object array of Python ints, once per power k, and
    returns a complex128 array of their shape.  The columns are copies
    cut to the live rows; update them in place to carry state from one
    power to the next.
    """
    live = np.flatnonzero(K >= 1)
    p_live = np.array(primes[live].tolist(), dtype=object)
    columns = [c[live] for c in columns]
    k = 1
    while len(live):
        yield live, values(p_live, k), columns
        k += 1
        keep = K[live] >= k
        if not keep.all():
            live, p_live = live[keep], p_live[keep]
            columns = [c[keep] for c in columns]


@np.errstate(all="ignore")  # Python float arithmetic does not warn either
def _power_series(values: Callable, primes: np.ndarray, K: np.ndarray, t_re, t_im) -> Tuple[np.ndarray, np.ndarray]:
    """sum_{k <= K_p} values(p, k) t_p^k for every prime, as float64 columns.

    acc += value * cur; cur *= t, one power at a time, with the complex
    products spelled out in float64 so that they round exactly as
    Python's complex arithmetic does.
    """
    S_re, S_im = np.zeros(len(K)), np.zeros(len(K))
    for live, v, (tr, ti, cur_re, cur_im) in _powers(values, primes, K, t_re, t_im, t_re, t_im):
        S_re[live] += v.real * cur_re - v.imag * cur_im
        S_im[live] += v.real * cur_im + v.imag * cur_re
        cur_re[:], cur_im[:] = cur_re * tr - cur_im * ti, cur_re * ti + cur_im * tr
    return S_re, S_im


@np.errstate(all="ignore")  # Python float arithmetic does not warn either
def _local_factors(spec: MultiplicativeSpec, s: complex, P: int, tol: float, at: str) -> _LocalFactors:
    """F_p(s) for every prime p <= P, bit-identical to local_factor.

    One value_at call per power k covers every prime whose series
    reaches k.  Failures act at the first prime that trips one, in the
    order the scalar path meets them: series divergence, then a
    vanishing factor (returned, not raised), then the log branch cut,
    then a non-finite series.

    Raises:
        DivergentLocalFactorError: growth ratio >= p^{Re s}, or more
            than _K_HARD_CAP terms.
        PoleError: 1 + F_p(s) real and negative.
        ValueError: F_p(s) not finite.
    """
    primes = prime_array(P)
    p_sigma = primes.astype(np.float64)
    if s.real != 1.0:  # pow(p, 1.0) is p exactly
        p_sigma = _map_float(math.pow, p_sigma, s.real)
    K, failure = _series_lengths(primes, spec.growth.r / p_sigma, spec.growth.C, tol)
    fail = len(K)
    primes = primes[:fail]
    if s.imag == 0.0:
        t_re = 1.0 / p_sigma[:fail]
        t_im = np.zeros(fail)
    else:
        t = np.array([cmath.exp(-s * math.log(p)) for p in primes.tolist()], dtype=np.complex128)
        t_re, t_im = t.real, t.imag
    F_re, F_im = _power_series(partial(_prime_power_values, spec.value_at), primes, K, t_re, t_im)

    w_re = 1.0 + F_re
    zero = (w_re == 0.0) & (F_im == 0.0)
    pole = (F_im == 0.0) & (w_re < 0.0)
    bad = ~(np.isfinite(F_re) & np.isfinite(F_im))
    first = np.flatnonzero(zero | pole | bad)
    if len(first):
        i = int(first[0])
        p = int(primes[i])
        k_max = int(K[: i + 1].max())
        if zero[i]:
            return _LocalFactors(primes[: i + 1], F_re, F_im, t_re, t_im, k_max, True)
        if pole[i]:
            raise PoleError(
                f"local factor 1 + F_p({at}) = {float(w_re[i]):g} hits the log branch cut at p={p}",
                prime=p,
            )
        raise ValueError(f"a must have finite components, got {complex(F_re[i], F_im[i])!r}")
    if failure is not None:
        raise failure
    k_max = int(K.max()) if len(K) else 0
    return _LocalFactors(primes, F_re, F_im, t_re, t_im, k_max, False)


def _clog1p(re, im) -> Tuple[np.ndarray, np.ndarray]:
    """special.clog1p over arrays, elementwise bit-identical to it."""
    return (
        0.5 * _map_float(math.log1p, 2.0 * re + re * re + im * im),
        _map_float(math.atan2, im, 1.0 + re),
    )


def _log_product(rho: complex, comp_re, comp_im, factors: _LocalFactors) -> complex:
    """fsum over primes of rho * log(compensator) + log(1 + F_p)."""
    L_re, L_im = _clog1p(factors.F_re, factors.F_im)
    re = rho.real * comp_re - rho.imag * comp_im + L_re
    im = rho.real * comp_im + rho.imag * comp_re + L_im
    return complex(fsum(re.tolist()), fsum(im.tolist()))


def _check_cutoff(prime_cutoff) -> int:
    P = int(prime_cutoff)
    if P < 100:
        raise ValueError(f"prime_cutoff must be >= 100, got {prime_cutoff}")
    return P


def _check_tol(tol) -> float:
    t = float(tol)
    if not 0.0 < t < math.inf:
        raise ValueError(f"tol must be positive, got {tol}")
    return t


# Euler products are memoised per process: psi shares its denominator
# across z, and ldp shares psi across x.  Specs are frozen and compare
# value_at by identity, so a hit always means the same function.
_MEMO_SIZE = 256


def _memoised(cached, compute, *key):
    try:
        hash(key)
    except TypeError:  # a spec with an unhashable field
        return compute(*key)
    return cached(*key)


def lambda0(
    spec: MultiplicativeSpec,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    tol: float = DEFAULT_FACTOR_TOL,
) -> EulerProductResult:
    """Leading Euler-product constant of spec at s = 1.

    Args:
        spec: multiplicative function with growth ratio r < 2.
        prime_cutoff: include primes p <= prime_cutoff (>= 100).
        tol: per-factor truncation tolerance.

    Returns:
        EulerProductResult; value is exactly 0 when rho is a nonpositive
        integer (within snap tolerance) or some local factor vanishes.
        Results are memoised per process on (spec, cutoff, tol).
    """
    return _memoised(_lambda0_cached, _lambda0, spec, _check_cutoff(prime_cutoff), _check_tol(tol))


def _factors_at_one(spec: MultiplicativeSpec, P: int, tol: float) -> Optional[_LocalFactors]:
    """The local factors F_p(1), or None when rho is a nonpositive integer.

    Raises:
        DivergentLocalFactorError: growth ratio r >= 2.
        DegenerateSpecError: the prime value differs from rho.
    """
    rho = complex(spec.rho)
    if _is_snapped_nonpositive_integer(rho):
        return None
    if spec.growth.r >= 2.0:
        raise DivergentLocalFactorError(
            f"growth ratio r={spec.growth.r:g} >= 2 diverges at p=2, s=1", prime=2
        )
    if abs(complex(spec.prime_coeff) - rho) > _INTEGER_SNAP_TOL:
        raise DegenerateSpecError(
            f"spec {spec.name!r} declares prime value {spec.prime_coeff} != rho {spec.rho}; "
            "the s=1 Euler product diverges"
        )
    return _local_factors(spec, complex(1.0), P, tol, "1")


def _lambda0(spec: MultiplicativeSpec, P: int, tol: float) -> EulerProductResult:
    factors = _factors_at_one(spec, P, tol)
    if factors is None or factors.vanished:
        k_max = factors.k_max if factors else 0
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=k_max, tail_estimate=0.0)
    rho = complex(spec.rho)
    comp = _map_float(math.log1p, -1.0 / factors.primes)
    total = _log_product(rho, comp, 0.0, factors)
    value = cmath.exp(total) / gamma(rho)
    c1, eps = spec.prime_deviation
    tail = _second_order_constant(spec, rho) * _prime_tail_scale(P, 2.0)
    if c1 > 0.0:
        tail += c1 * _prime_tail_scale(P, 1.0 + eps)
    return EulerProductResult(value=value, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=tail)


_lambda0_cached = lru_cache(maxsize=_MEMO_SIZE)(_lambda0)


def psi(
    alpha: MultiplicativeSpec,
    z,
    g: AdditiveSpec = OMEGA,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    tol: float = DEFAULT_FACTOR_TOL,
) -> complex:
    """Limiting function psi(z) = lambda0(exp-twist of alpha) / lambda0(alpha).

    Memoised per process, like lambda0.

    Raises:
        DegenerateSpecError: lambda0(alpha) = 0.
    """
    z = complex(z)
    return _memoised(_psi_cached, _psi, alpha, z, g, _check_cutoff(prime_cutoff), _check_tol(tol))


def _psi(alpha: MultiplicativeSpec, z: complex, g: AdditiveSpec, P: int, tol: float) -> complex:
    den = lambda0(alpha, P, tol)
    if den.value == 0:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    twisted = twist(alpha, cmath.exp(z), g)
    num = lambda0(twisted, P, tol)
    return num.value / den.value


_psi_cached = lru_cache(maxsize=_MEMO_SIZE)(_psi)


def _psi_prime(alpha: MultiplicativeSpec, g: AdditiveSpec, prime_cutoff: int, tol: float) -> complex:
    """psi'(0) for stats.psi_prime_at_zero, memoised per process like psi."""
    return _memoised(_psi_prime_cached, _log_derivative, alpha, g, _check_cutoff(prime_cutoff), _check_tol(tol))


def _log_derivative(alpha: MultiplicativeSpec, g: AdditiveSpec, P: int, tol: float) -> complex:
    """d/dz log lambda0(exp-twist of alpha) at z = 0, over the primes p <= P.

    The closed form of stats.psi_prime_at_zero, from two kernel passes:
    F_p comes with the s = 1 factors, and G_p is truncated where the
    tail of its envelope (a + b k) C (r/p)^k is <= tol, with
    (a, b) = g.power_bound.  Logs go through the math library, as in
    lambda0, so the printed value does not depend on numpy's SIMD.
    """
    factors = _factors_at_one(alpha, P, tol)
    if factors is None or factors.vanished:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    c = g.prime_value
    if c is None:
        raise ValueError(f"additive spec {g.name!r} has no generic prime value; psi'(0) needs one")
    primes = factors.primes
    K, failure = _series_lengths(primes, alpha.growth.r / primes, alpha.growth.C, tol, g.power_bound)
    if failure is not None:
        raise failure

    def values(p, k):
        return _prime_power_values(g.value_at, p, k) * _prime_power_values(alpha.value_at, p, k)

    G_re, G_im = _power_series(values, primes, K, factors.t_re, factors.t_im)
    rho = complex(alpha.rho)
    comp = _map_float(math.log1p, -1.0 / primes)
    terms = c * rho * comp + (G_re + 1j * G_im) / (1.0 + factors.F_re + 1j * factors.F_im)
    total = complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))
    return total - c * rho * digamma(rho)


_psi_prime_cached = lru_cache(maxsize=_MEMO_SIZE)(_log_derivative)


def g_compensated(
    spec: MultiplicativeSpec,
    s,
    rho,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    tol: float = DEFAULT_FACTOR_TOL,
) -> EulerProductResult:
    """Compensated product prod_{p<=P} (1-p^{-s})^rho (1 + F_p(s)).

    Certified for Re s > 1; allowed down to Re s > 1 - c0 with the tail
    estimate degrading to a heuristic (possibly infinite).

    Raises:
        DomainError: Re s <= 1 - c0.
        DivergentLocalFactorError / PoleError: per-prime failures.
    """
    s = complex(s)
    rho = complex(rho)
    P = _check_cutoff(prime_cutoff)
    tol = _check_tol(tol)
    sigma = s.real
    if sigma <= 1.0 - spec.c0:
        raise DomainError(
            f"g_compensated needs Re s > 1 - c0 = {1.0 - spec.c0:g}, got Re s = {sigma:g}"
        )
    factors = _local_factors(spec, s, P, tol, f"{s}")
    if factors.vanished:
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=0.0)
    if s.imag == 0.0:
        t_re, t_im = _map_float(math.pow, factors.primes.astype(np.float64), -sigma), 0.0
    else:
        t_re, t_im = factors.t_re, factors.t_im
    comp_re, comp_im = _clog1p(-t_re, -t_im)
    value = cmath.exp(_log_product(rho, comp_re, comp_im, factors))
    c1, eps = spec.prime_deviation
    tail = _second_order_constant(spec, rho) * _prime_tail_scale(P, 2.0 * sigma)
    tail += abs(complex(spec.prime_coeff) - rho) * _prime_tail_scale(P, sigma)
    if c1 > 0.0:
        tail += c1 * _prime_tail_scale(P, sigma + eps)
    return EulerProductResult(value=value, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=tail)


_DEFAULT_P_GRID = tuple(2000 * 2**i for i in range(9))
_DEFAULT_SIGMA_GRID = tuple(round(2.0 - 0.1 * i, 10) for i in range(10))  # 2.0 .. 1.1
_ABSCISSA_N = 1 << 16


def _abscissa_estimate(spec: MultiplicativeSpec, sigma_grid: Sequence[float]) -> float:
    """Smallest tested sigma at which sum |f(n)| n^{-sigma} looks stable."""
    mags = np.abs(multiplicative_value_table(spec, _ABSCISSA_N))
    n_pows = np.arange(_ABSCISSA_N + 1, dtype=np.float64)
    n_pows[0] = 1.0
    best = math.inf
    for sigma in sorted(sigma_grid, reverse=True):
        terms = mags * n_pows ** (-float(sigma))
        full = float(terms.sum())
        half = float(terms[: _ABSCISSA_N // 2 + 1].sum())
        if not math.isfinite(full):
            break
        if abs(full - half) <= 1e-3 * max(1.0, abs(full)):
            best = float(sigma)
        else:
            break
    return best


def check_admissibility_pp(
    spec: MultiplicativeSpec,
    c0: float,
    p_grid: Optional[Sequence[int]] = None,
    tol: float = DEFAULT_FACTOR_TOL,
) -> AdmissibilityReport:
    """Probe the square-summability condition at exponent 1 - c0.

    Computes partial sums over p <= P of (sum_k |f(p^k)| p^{-k(1-c0)})^2
    on a grid of cutoffs and fits a power law to the increments:
    decaying increments (exponent < -0.1) are consistent with
    convergence, growing increments are not, and anything in between is
    inconclusive.  A prime whose inner series already fails to decay
    geometrically is reported as an inconsistency witness outright.
    """
    if not (0.0 < c0 < 1.0):
        raise ValueError(f"c0 must lie in (0,1), got {c0}")
    tol = _check_tol(tol)
    grid = sorted(set(int(P) for P in (p_grid if p_grid is not None else _DEFAULT_P_GRID)))
    if len(grid) < 3:
        raise ValueError("p_grid needs at least 3 cutoffs for a trend fit")
    beta = 1.0 - c0
    C, r = spec.growth.C, spec.growth.r
    abscissa = _abscissa_estimate(spec, _DEFAULT_SIGMA_GRID)
    # the inner ratio q = r / p^beta is decreasing in p, so the smallest
    # prime is the only candidate witness
    if r >= 2.0**beta:
        return AdmissibilityReport(
            c0=c0,
            verdict="inconsistent",
            witness=2,
            abscissa_estimate=abscissa,
            square_sum_partials=[],
            increment_exponent=None,
        )
    # inner_p = sum_k |f(p^k)| p^{-k beta}, one power k at a time over all
    # primes; weight /= p^beta and the fsum of each prefix of squares
    # round as the per-prime loop did
    primes = prime_array(grid[-1])
    p_beta = _map_float(math.pow, primes.astype(np.float64), beta)
    K, failure = _series_lengths(primes, r / p_beta, C, tol)
    if failure is not None:
        raise failure
    inner = np.zeros(len(primes))
    values = partial(_prime_power_values, spec.value_at)
    for live, v, (pb, weight) in _powers(values, primes, K, p_beta, np.ones(len(primes))):
        weight /= pb
        magnitude = np.abs(v.real) if not v.imag.any() else _map_float(math.hypot, v.real, v.imag)
        inner[live] += magnitude * weight
    squares = (inner * inner).tolist()
    ends = np.searchsorted(primes, grid, side="right").tolist()
    partials = [(P, fsum(squares[:end])) for P, end in zip(grid, ends)]
    increments = [
        (math.sqrt(lo * hi), t_hi - t_lo)
        for (lo, t_lo), (hi, t_hi) in zip(partials, partials[1:])
    ]
    positive = [(m, d) for m, d in increments if d > 0.0]
    if not positive:
        return AdmissibilityReport(
            c0=c0,
            verdict="consistent",
            witness=None,
            abscissa_estimate=abscissa,
            square_sum_partials=partials,
            increment_exponent=None,
        )
    xs = np.log([m for m, _ in positive])
    ys = np.log([d for _, d in positive])
    slope = float(np.polyfit(xs, ys, 1)[0]) if len(positive) >= 2 else 0.0
    if slope < -0.1:
        verdict = "consistent"
    elif slope > 0.0:
        verdict = "inconsistent"
    else:
        verdict = "inconclusive"
    return AdmissibilityReport(
        c0=c0,
        verdict=verdict,
        witness=None,
        abscissa_estimate=abscissa,
        square_sum_partials=partials,
        increment_exponent=slope,
    )
