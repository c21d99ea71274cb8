"""Euler products: local factors, leading constants, limits.

Everything here reduces to products over primes p <= P of local factors
(1 - p^{-s})^rho (1 + F_p(s)), where F_p(s) = sum_k f(p^k) p^{-ks} is
truncated using the spec's geometric growth envelope.  Products are
accumulated in log space (exact summation of per-prime logs) so that
10^6 factors neither underflow nor lose relative accuracy.

At s = 1 the primes above the cutoff are not dropped when the spec
declares a local series (funcs.LocalSeries).  The log of a local factor
is then a power series sum_j a_j u^j in u = 1/p whose coefficients do
not depend on p, so the primes p > P add sum_j a_j P_{>P}(j), where
P_{>P}(j) = sum_{p>P} p^{-j} is the tail of the prime zeta function,

    P(j) = sum_k mu(k)/k log zeta(kj)

minus its primes p <= P (H. Cohen, "High precision computation of
Hardy-Littlewood constants", 1998; Ettahri, Ramare and Surel, Math.
Comp. 2021).  The cutoff then sizes the head, and tail_estimate bounds
what is left: the truncated j series, the per-prime truncation
DEFAULT_FACTOR_TOL of the head and the rounding.

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
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from math import fsum
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateSpecError,
    DivergentLocalFactorError,
    DomainError,
    PoleError,
)
from .exact import multiplicative_value_table
from .funcs import AdditiveSpec, LocalSeries, MultiplicativeSpec, OMEGA, _prime_power_values, twist
from .sieve import prime_array
from .special import digamma, gamma, zeta_minus_one

DEFAULT_PRIME_CUTOFF = 10**6
# every local series stops where its tail bound is <= this; the kernels
# read it when they run, and the memo keys leave it out
DEFAULT_FACTOR_TOL = 1e-14

# rho values this close to a nonpositive integer trigger the exact-zero
# rule; covers e.g. e^{i pi} * rho carrying one ulp of rounding
_INTEGER_SNAP_TOL = 1e-12

_K_HARD_CAP = 100_000


@dataclass(frozen=True)
class EulerProductResult:
    """Value of an Euler product plus truncation metadata.

    prime_cutoff is the last prime of the head, the primes summed one by
    one; k_cutoff is the largest per-prime series length used there.
    tail_estimate bounds |log value - log true value| (0 when the value
    is exactly 0).  It adds three parts: the primes p > prime_cutoff
    (the truncated j series of a completed product, or the whole tail of
    a plain one), DEFAULT_FACTOR_TOL per head prime over |1 + F_p| where
    that is below 1, and the rounding.  completed tells whether the
    primes above prime_cutoff were closed by the prime-zeta tail.
    """

    value: complex
    prime_cutoff: int
    k_cutoff: int
    tail_estimate: float
    completed: bool = False


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

    k_max is the series length at the first prime, the longest of the
    head (see _series_lengths).  vanished marks that 1 + F_p(s) = 0 at
    primes[-1], so the product is exactly 0.
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
    bit-identical to a per-prime loop in Python floats.
    """
    n = max(np.size(c) for c in columns)
    lists = [np.broadcast_to(c, (n,)).tolist() for c in columns]
    return np.fromiter(map(fn, *lists), dtype=np.float64, count=n)


def _series_lengths(
    primes: np.ndarray, q: np.ndarray, C: float, tol: float, envelope: Tuple[float, float] = (1.0, 0.0)
) -> Tuple[List[int], int, Optional[ArithmeticError]]:
    """The staircase of series lengths under the envelope (a + b k) C q^k.

    K_p is the smallest K >= 1 whose tail bound
    C q^{K+1}/(1-q) (a + b(K+1) + b q/(1-q)) is <= tol; the default
    envelope (1, 0) gives the geometric tail C q^{K+1}/(1-q).
    q = r/p^sigma falls as p grows, and with b >= 0 and a + b >= 0 so
    does the bound; so K_p never rises with p, and the primes whose
    series reaches k are a prefix of the head.  Returns
    (counts, cut, failure): counts[k-1] is the length of that prefix
    (so K_p = len(counts) at the first prime), the head stops at cut,
    the index of the first prime whose series fails, and failure is that
    error (None if there is none).
    """
    cut = len(primes)
    failure = None
    diverging = np.flatnonzero(q >= 1.0)
    if len(diverging):
        cut = int(diverging[0])
        p, qf = int(primes[cut]), float(q[cut])
        failure = DivergentLocalFactorError(
            f"local factor diverges at p={p}: growth ratio {C:g}*{qf:g}^k does not decay",
            prime=p,
        )
    if C == 0.0:
        return [], cut, failure
    a, b = envelope
    q = q[:cut]
    geo = C * q * q / (1.0 - q)
    base = a + b * q / (1.0 - q)
    counts, n = [], cut
    while n:
        if len(counts) == _K_HARD_CAP:
            p = int(primes[0])
            failure = DivergentLocalFactorError(
                f"local factor at p={p} needs more than {_K_HARD_CAP} terms", prime=p
            )
            return [], 0, failure
        counts.append(n)
        n = int(np.count_nonzero(geo * (base[:n] + b * (len(counts) + 1)) > tol))
        geo = geo[:n] * q[:n]
    return counts, cut, failure


def _powers(values: Callable, primes: np.ndarray, counts: Sequence[int], *columns: np.ndarray):
    """Yield (n, values(p, k), columns) for k = 1, ..., len(counts).

    The primes whose series reaches k are the first n = counts[k-1] of
    the head; values gets them as a slice of one object array of Python
    ints and returns a complex128 array of their shape.  The columns are
    the first n rows of one copy of each input column; update them in
    place to carry state from one power to the next.
    """
    head = counts[0] if counts else 0
    p_obj = np.array(primes[:head].tolist(), dtype=object)
    columns = [c[:head].copy() for c in columns]
    for k, n in enumerate(counts, start=1):
        yield n, values(p_obj[:n], k), [c[:n] for c in columns]


@np.errstate(all="ignore")  # Python float arithmetic does not warn either
def _power_series(
    values: Callable, primes: np.ndarray, counts: Sequence[int], t_re, t_im
) -> Tuple[np.ndarray, np.ndarray]:
    """sum_{k <= K_p} values(p, k) t_p^k for every prime, as float64 columns.

    acc += value * cur; cur *= t, one power at a time, with the complex
    products spelled out in float64 so that they round exactly as
    Python's complex arithmetic does.
    """
    S_re, S_im = np.zeros(len(primes)), np.zeros(len(primes))
    for n, v, (tr, ti, cur_re, cur_im) in _powers(values, primes, counts, t_re, t_im, t_re, t_im):
        S_re[:n] += v.real * cur_re - v.imag * cur_im
        S_im[:n] += v.real * cur_im + v.imag * cur_re
        cur_re[:], cur_im[:] = cur_re * tr - cur_im * ti, cur_re * ti + cur_im * tr
    return S_re, S_im


@np.errstate(all="ignore")  # Python float arithmetic does not warn either
def _local_factors(spec: MultiplicativeSpec, s: complex, P: int, at: str) -> _LocalFactors:
    """F_p(s) for every prime p <= P, each series cut where its tail
    bound is <= DEFAULT_FACTOR_TOL; bit-identical to the scalar
    local_factor oracle of tests/test_euler.py.

    One value_at call per power k covers the prefix of the head whose
    series reaches k.  Failures act at the first prime that trips one,
    in the order the scalar path meets them: series divergence, then a
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
    counts, cut, failure = _series_lengths(primes, spec.growth.r / p_sigma, spec.growth.C, DEFAULT_FACTOR_TOL)
    primes = primes[:cut]
    if s.imag == 0.0:
        t_re = 1.0 / p_sigma[:cut]
        t_im = np.zeros(cut)
    else:
        t = np.array([cmath.exp(-s * math.log(p)) for p in primes.tolist()], dtype=np.complex128)
        t_re, t_im = t.real, t.imag
    F_re, F_im = _power_series(partial(_prime_power_values, spec.value_at), primes, counts, t_re, t_im)

    w_re = 1.0 + F_re
    zero = (w_re == 0.0) & (F_im == 0.0)
    pole = (F_im == 0.0) & (w_re < 0.0)
    bad = ~(np.isfinite(F_re) & np.isfinite(F_im))
    first = np.flatnonzero(zero | pole | bad)
    if len(first):
        i = int(first[0])
        p = int(primes[i])
        if zero[i]:
            return _LocalFactors(primes[: i + 1], F_re, F_im, t_re, t_im, len(counts), True)
        if pole[i]:
            raise PoleError(
                f"local factor 1 + F_p({at}) = {float(w_re[i]):g} hits the log branch cut at p={p}",
                prime=p,
            )
        raise ValueError(f"a must have finite components, got {complex(F_re[i], F_im[i])!r}")
    if failure is not None:
        raise failure
    return _LocalFactors(primes, F_re, F_im, t_re, t_im, len(counts), False)


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


# special.gamma's documented relative error for |z| <= 50
_GAMMA_REL_ERR = 1e-12
_ULP = 2.0**-53


def _head_bound(spec: MultiplicativeSpec, rho: complex, factors: _LocalFactors, total: complex) -> float:
    """Bound on the log error of the head product over the primes p <= P.

    Each truncated series F_p is within tol = DEFAULT_FACTOR_TOL of the
    true one, which moves log(1 + F_p) by at most tol / |1 + F_p|; over
    n primes that is at most tol n / min(1, min_p |1 + F_p|).  Rounding:
    every term is within a few ulps of |rho|/p or of (K_p + 4) ulps of
    |F_p|, where |F_p| <= C r/(p - r) <= 3 C r/p for p >= 3, and
    sum_{p<=P} 1/p is below ln ln P + 0.2615 + 1/ln^2 P (Rosser and
    Schoenfeld, 1962); then the exp and 1/Gamma(rho).
    """
    worst = max(1.0, 1.0 / float(np.hypot(1.0 + factors.F_re, factors.F_im).min()))
    n = len(factors.primes)
    log_p = math.log(int(factors.primes[-1]))
    reciprocal_sum = math.log(log_p) + 0.2615 + 1.0 / log_p**2
    C, r = spec.growth.C, spec.growth.r
    F_sum = C * r * (1.0 / (2.0 - r) + 3.0 * reciprocal_sum)
    rounding = _ULP * (4.0 * abs(rho) * reciprocal_sum + (factors.k_max + 4) * worst * F_sum)
    rounding += 4.0 * _ULP * (1.0 + abs(total)) + _GAMMA_REL_ERR
    return DEFAULT_FACTOR_TOL * n * worst + rounding


# The completed products: coefficients are read up to u^j with j at least
# _SERIES_MIN_POWER (so the root estimate of their growth sees a few of
# them) and at most _SERIES_MAX_POWER; contributions below _NEGLIGIBLE are
# bounded, not computed.
_SERIES_MIN_POWER = 6
_SERIES_MAX_POWER = 60
_NEGLIGIBLE = 2.0**-64


class _Completion(NamedTuple):
    """sum_{p>P} of a log local factor, and a bound on its error."""

    value: complex
    error: float


def _mobius(k: int) -> int:
    mu, d = 1, 2
    while d * d <= k:
        if k % d == 0:
            k //= d
            if k % d == 0:
                return 0
            mu = -mu
        d += 1
    return -mu if k > 1 else mu


@lru_cache(maxsize=None)
def _prime_zeta(j: int) -> float:
    """P(j) = sum_p p^{-j} = sum_k mu(k)/k log zeta(kj), for j >= 2.

    zeta(kj) - 1 carries full relative accuracy, so P(j) does too; the
    terms stop where 2^{-kj} falls below 2^-64 P(j).
    """
    terms = []
    for k in range(1, 66 // j + 2):
        mu = _mobius(k)
        if mu:
            terms.append(mu * _log_zeta(k * j) / k)
    return fsum(terms)


@lru_cache(maxsize=None)
def _log_zeta(s: int) -> float:
    """log zeta(s), shared by the P(j) whose Mobius sums meet at s."""
    return math.log1p(zeta_minus_one(s).real)


@lru_cache(maxsize=_MEMO_SIZE)
def _prime_zeta_tail(P: int, j: int) -> float:
    """P_{>P}(j) = sum_{p>P} p^{-j}: P(j) minus an fsum over the primes p <= P.

    Memoised per (P, j), so that the products of one run share it.
    """
    u = 1.0 / prime_array(P)
    power = u.copy()
    for _ in range(j - 1):
        power *= u
    return _prime_zeta(j) - fsum(power.tolist())


def _series_powers(coeffs: Callable[[int], Tuple], weight: Optional[Callable[[int], float]] = None):
    """Yield (F_m, G_m), m = 1, 2, ...: the coefficients of u^m in
    F(u) = sum_k f(p^k) u^k and G(u) = sum_k weight(k) f(p^k) u^k, where
    f(p^k) = sum_i coeffs(k)[i] u^i and u = 1/p."""
    rows = []
    while True:
        rows.append(coeffs(len(rows) + 1))
        m = len(rows)
        F = G = 0j
        for k in range(1, m + 1):
            row = rows[k - 1]
            if m - k < len(row):
                F += row[m - k]
                if weight is not None:
                    G += weight(k) * row[m - k]
        yield F, G


def _log_factor_coefficients(series: LocalSeries, rho: complex) -> Iterator[complex]:
    """a_1, a_2, ... of rho log(1 - u) + log(1 + F(u)) = sum_m a_m u^m.

    log(1 + F) = L solves (1 + F) L' = F', so
    m L_m = m F_m - sum_{i<m} i L_i F_{m-i}.
    """
    F, L = [0j], [0j]
    for m, (F_m, _) in enumerate(_series_powers(series.coeffs), start=1):
        F.append(F_m)
        L.append(F_m - sum((i * L[i] * F[m - i] for i in range(1, m)), 0j) / m)
        yield L[m] - rho / m


def _log_derivative_coefficients(series: LocalSeries, weight, c: float, rho: complex) -> Iterator[complex]:
    """b_1, b_2, ... of c rho log(1 - u) + G(u)/(1 + F(u)) = sum_m b_m u^m.

    Q = G/(1 + F) solves Q_m = G_m - sum_{i<m} F_i Q_{m-i}.
    """
    F, Q = [0j], [0j]
    for m, (F_m, G_m) in enumerate(_series_powers(series.coeffs, weight), start=1):
        F.append(F_m)
        Q.append(G_m - sum((F[i] * Q[m - i] for i in range(1, m)), 0j))
        yield Q[m] - c * rho / m


def _close_tail(coefficients: Iterator[complex], P: int, R0: float) -> Optional[_Completion]:
    """sum_{j>=2} a_j P_{>P}(j): the primes above P of sum_j a_j p^{-j}.

    a_1 must vanish, or the sum over primes diverges.  A term goes in
    when its bound |a_j| P^{1-j}/(j-1) (sum_{n>P} n^{-j} <= P^{1-j}/(j-1))
    exceeds both _NEGLIGIBLE and the rounding of P_{>P}(j); otherwise
    the bound goes into the error.  Past the last j read, |a_j| is taken
    to be at most (2R)^j, R being the larger of R0 and the root-test
    estimate max |a_i|^{1/i} so far.  None when a_1 != 0, or when that
    remainder is still above _NEGLIGIBLE at _SERIES_MAX_POWER.
    """
    if next(coefficients) != 0:
        return None
    re, im, error, R = [], [], 0.0, R0
    for j, a in enumerate(coefficients, start=2):
        mag = abs(a)
        if mag:
            R = max(R, mag ** (1.0 / j))
        bound = mag * float(P) ** (1 - j) / (j - 1)
        # P_{>P}(j) is within (j + 17) ulps of P(j) <= 2^{1-j} (zeta - 1
        # to 5 ulps, u^j to j + 1); a_j within j ulps of the (2R)^j it is
        # built from
        noise = (j + 17) * _ULP * (mag * 2.0 ** (1 - j) + (2.0 * R) ** j * float(P) ** (1 - j))
        if bound <= max(noise, _NEGLIGIBLE):
            error += bound
        else:
            term = a * _prime_zeta_tail(P, j)
            re.append(term.real)
            im.append(term.imag)
            error += noise
        q = 2.0 * R / P
        if j >= _SERIES_MIN_POWER and q < 0.5:
            rest = P * q ** (j + 1) / (j * (1.0 - q))
            if rest <= _NEGLIGIBLE:
                return _Completion(complex(fsum(re), fsum(im)), error + rest)
        if j >= _SERIES_MAX_POWER:
            return None


def _completes(series: Optional[LocalSeries], P: int, *exceptional: int) -> bool:
    """Whether a product over the primes above P can be closed by the series."""
    return series is not None and all(p <= P for p in (*series.exceptional_primes, *exceptional))


def lambda0(spec: MultiplicativeSpec, prime_cutoff: int = DEFAULT_PRIME_CUTOFF) -> EulerProductResult:
    """Leading Euler-product constant of spec at s = 1.

    Args:
        spec: multiplicative function with growth ratio r < 2.
        prime_cutoff: the head, the primes p <= prime_cutoff (>= 100)
            summed one by one; the primes above it are closed by the
            prime-zeta tail when spec has a local series.

    Returns:
        EulerProductResult; value is exactly 0 when rho is a nonpositive
        integer (within snap tolerance) or some local factor vanishes.
        Results are memoised per process on (spec, cutoff).
    """
    return _memoised(_lambda0_cached, _lambda0, spec, _check_cutoff(prime_cutoff))


def _factors_at_one(spec: MultiplicativeSpec, P: int) -> Optional[_LocalFactors]:
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
    return _local_factors(spec, complex(1.0), P, "1")


def _completion(spec: MultiplicativeSpec, rho: complex, P: int) -> Optional[_Completion]:
    """The primes p > P of lambda0's log product, or None for a plain product."""
    if not _completes(spec.series, P):
        return None
    return _close_tail(_log_factor_coefficients(spec.series, rho), P, spec.growth.r)


def _lambda0(spec: MultiplicativeSpec, P: int) -> EulerProductResult:
    """lambda0, closed by the prime-zeta tail when the spec allows it."""
    factors = _factors_at_one(spec, P)
    if factors is None or factors.vanished:
        k_max = factors.k_max if factors else 0
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=k_max, tail_estimate=0.0)
    rho = complex(spec.rho)
    comp = _map_float(math.log1p, -1.0 / factors.primes)
    total = _log_product(rho, comp, 0.0, factors)
    tail = _completion(spec, rho, P)
    if tail is None:
        c1, eps = spec.prime_deviation
        truncation = _second_order_constant(spec, rho) * _prime_tail_scale(P, 2.0)
        if c1 > 0.0:
            truncation += c1 * _prime_tail_scale(P, 1.0 + eps)
    else:
        total += tail.value
        truncation = tail.error
    value = cmath.exp(total) / gamma(rho)
    tail_estimate = truncation + _head_bound(spec, rho, factors, total)
    return EulerProductResult(
        value=value, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=tail_estimate, completed=tail is not None
    )


_lambda0_cached = lru_cache(maxsize=_MEMO_SIZE)(_lambda0)


def psi(
    alpha: MultiplicativeSpec,
    z,
    g: AdditiveSpec = OMEGA,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
) -> complex:
    """Limiting function psi(z) = lambda0(exp-twist of alpha) / lambda0(alpha).

    Memoised per process, like lambda0.

    Raises:
        DegenerateSpecError: lambda0(alpha) = 0.
    """
    z = complex(z)
    return _memoised(_psi_cached, _psi, alpha, z, g, _check_cutoff(prime_cutoff))


def _psi(alpha: MultiplicativeSpec, z: complex, g: AdditiveSpec, P: int) -> complex:
    """The ratio of two products closed alike: both completed, or both
    plain when either cannot be completed (a twist by a table g, say),
    so that the tails above P cancel in the ratio instead of adding."""
    den = lambda0(alpha, P)
    if den.value == 0:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    twisted = twist(alpha, cmath.exp(z), g)
    num = lambda0(twisted, P)
    if num.completed != den.completed:
        den = lambda0(replace(alpha, series=None), P)
        num = lambda0(replace(twisted, series=None), P)
    return num.value / den.value


_psi_cached = lru_cache(maxsize=_MEMO_SIZE)(_psi)


def _psi_prime(alpha: MultiplicativeSpec, g: AdditiveSpec, prime_cutoff: int) -> complex:
    """psi'(0) for stats.psi_prime_at_zero, memoised per process like psi."""
    return _memoised(_psi_prime_cached, _log_derivative, alpha, g, _check_cutoff(prime_cutoff))


def _log_derivative(alpha: MultiplicativeSpec, g: AdditiveSpec, P: int) -> complex:
    """d/dz log lambda0(exp-twist of alpha) at z = 0.

    The closed form of stats.psi_prime_at_zero, from two kernel passes
    over the primes p <= P: F_p comes with the s = 1 factors, and G_p is
    truncated where the tail of its envelope (a + b k) C (r/p)^k is
    <= DEFAULT_FACTOR_TOL, with (a, b) = g.power_bound.  Logs go through the math
    library, as in lambda0, so the printed value does not depend on
    numpy's SIMD.  When alpha has a local series and g a k_value, the
    primes p > P add sum_j b_j P_{>P}(j), as in lambda0.
    """
    factors = _factors_at_one(alpha, P)
    if factors is None or factors.vanished:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    c = g.prime_value
    if c is None:
        raise ValueError(f"additive spec {g.name!r} has no generic prime value; psi'(0) needs one")
    primes = factors.primes
    counts, _, failure = _series_lengths(
        primes, alpha.growth.r / primes, alpha.growth.C, DEFAULT_FACTOR_TOL, g.power_bound
    )
    if failure is not None:
        raise failure

    def values(p, k):
        return _prime_power_values(g.value_at, p, k) * _prime_power_values(alpha.value_at, p, k)

    G_re, G_im = _power_series(values, primes, counts, factors.t_re, factors.t_im)
    rho = complex(alpha.rho)
    comp = _map_float(math.log1p, -1.0 / primes)
    terms = c * rho * comp + (G_re + 1j * G_im) / (1.0 + factors.F_re + 1j * factors.F_im)
    total = complex(fsum(terms.real.tolist()), fsum(terms.imag.tolist()))
    if g.k_value is not None and _completes(alpha.series, P, *g.exceptional_primes):
        coefficients = _log_derivative_coefficients(alpha.series, g.k_value, c, rho)
        tail = _close_tail(coefficients, P, alpha.growth.r)
        if tail is not None:
            total += tail.value
    return total - c * rho * digamma(rho)


_psi_prime_cached = lru_cache(maxsize=_MEMO_SIZE)(_log_derivative)


def g_compensated(
    spec: MultiplicativeSpec,
    s,
    rho,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
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
    sigma = s.real
    if sigma <= 1.0 - spec.c0:
        raise DomainError(
            f"g_compensated needs Re s > 1 - c0 = {1.0 - spec.c0:g}, got Re s = {sigma:g}"
        )
    factors = _local_factors(spec, s, P, f"{s}")
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
    counts, _, failure = _series_lengths(primes, r / p_beta, C, DEFAULT_FACTOR_TOL)
    if failure is not None:
        raise failure
    inner = np.zeros(len(primes))
    values = partial(_prime_power_values, spec.value_at)
    for n, v, (pb, weight) in _powers(values, primes, counts, p_beta, np.ones(len(primes))):
        weight /= pb
        magnitude = np.abs(v.real) if not v.imag.any() else _map_float(math.hypot, v.real, v.imag)
        inner[:n] += magnitude * weight
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
