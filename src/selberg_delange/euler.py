"""Euler products: local factors, leading constants, limits.

Everything here reduces to products over primes p <= P of local factors
(1 - p^{-s})^rho (1 + F_p(s)), where F_p(s) = sum_k f(p^k) p^{-ks} is
truncated using the spec's geometric growth envelope.  Products are
accumulated in log space (exact summation of per-prime logs) so that
10^6 factors neither underflow nor lose relative accuracy.  Each product
is one call of the kernel, _local_factors: psi_grid makes lambda0(alpha)
and then the twist of each z, and psi'(0) its series F_p and then G_p.
Each call builds its own columns p^sigma and p^{-s}; lambda0's
compensator log1p(-1/p) alone is memoised, per P, read-only.  The growth
envelope decides a product's failure at the first prime, where
q = r/p^sigma is largest, and the kernel raises it there, before any
value is read or any column built.  Else the product walks the powers k
once, adds its terms over the prefix of primes whose series reaches k,
and counts, from its envelope, the prefix that reaches k + 1.

At s = 1 the primes above the cutoff are not dropped when the spec
declares a local series (funcs.LocalSeries).  The log of a local factor
is then a power series sum_j a_j u^j in u = 1/p whose coefficients do
not depend on p, so the primes p > P add sum_j a_j P_{>P}(j), where
P_{>P}(j) = sum_{p>P} p^{-j} is the tail of the prime zeta function,

    P(j) = sum_k mu(k)/k log zeta(kj)

minus its primes p <= P (H. Cohen, "High precision computation of
Hardy-Littlewood constants", 1998; Ettahri, Ramare and Surel, Math.
Comp. 2021).  The cutoff then sizes the head, and tail_estimate bounds
what is left: the truncated j series, the series truncation of the
head, at most DEFAULT_FACTOR_TOL over all its primes, and the rounding.

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
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from math import fsum
from typing import Callable, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateSpecError,
    DivergentLocalFactorError,
    DomainError,
    PoleError,
)
from .funcs import AdditiveSpec, LocalSeries, MultiplicativeSpec, OMEGA, prime_power_values, twist
from .sieve import prime_array
from .special import cpow, digamma, gamma, zeta_minus_one

DEFAULT_PRIME_CUTOFF = 10**6
# the series truncation budget of one product: each of its n local series
# over the primes p <= P stops where its tail bound is <= this over n; the
# kernel reads it at each call, and no memo holds it
DEFAULT_FACTOR_TOL = 1e-14

# rho values this close to a nonpositive integer trigger the exact-zero
# rule; covers e.g. e^{i pi} * rho carrying one ulp of rounding
_INTEGER_SNAP_TOL = 1e-12

_K_HARD_CAP = 100_000
_MAP_SLICE = 4096  # entries _map_float lists at a time


@dataclass(frozen=True)
class EulerProductResult:
    """Value of an Euler product plus truncation metadata.

    prime_cutoff is the cutoff P of the head, the primes p <= P summed
    one by one; k_cutoff is the largest per-prime series length used
    there.  tail_estimate bounds |log value - log true value| (0 when
    the value is exactly 0).  It adds three parts: the primes p >
    prime_cutoff (the truncated j series of a completed product, or the
    whole tail of a plain one), the truncation of the head's series,
    DEFAULT_FACTOR_TOL over all its primes, divided by min |1 + F_p|
    where that is below 1, and the rounding.  completed tells whether
    the primes above prime_cutoff were closed by the prime-zeta tail.
    """

    value: complex
    prime_cutoff: int
    k_cutoff: int
    tail_estimate: float
    completed: bool = False


@dataclass(frozen=True)
class AdmissibilityReport:
    """The square-summability condition at exponent 1 - c0, decided from
    the spec's prime data by check_admissibility_pp: the verdict
    ("consistent", "inconsistent" or "inconclusive"), the witness prime
    (2 or None), abscissa_estimate, and reason, which names the rule
    that decided.
    """

    c0: float
    verdict: str
    witness: Optional[int]
    abscissa_estimate: float
    reason: str


def _is_snapped_nonpositive_integer(z: complex) -> bool:
    z = complex(z)
    if abs(z.imag) > _INTEGER_SNAP_TOL:
        return False
    nearest = round(z.real)
    return nearest <= 0 and abs(z.real - nearest) <= _INTEGER_SNAP_TOL


class _Row(NamedTuple):
    """One product of the kernel: its values and its growth envelope.

    values(k, primes) gives f(p^k) over a prefix of the head primes, as
    funcs.prime_power_values does: an array of their shape, or a 0-d one
    for all of them.  The series at p stops where the tail of
    (a + b k) C (r/p^sigma)^k is <= DEFAULT_FACTOR_TOL / n, n the number
    of primes p <= P, with (a, b) = envelope.
    """

    values: Callable
    C: float
    r: float
    envelope: Tuple[float, float] = (1.0, 0.0)


def _spec_row(spec: MultiplicativeSpec) -> _Row:
    return _Row(partial(prime_power_values, spec), spec.growth.C, spec.growth.r)


class _LocalFactors(NamedTuple):
    """One product's series F_p(s) over all the primes p <= P, as float64
    columns (see _local_factors).  k_max is the series length at the
    first prime, the longest of the product and the number of powers
    read for it.  primes is the shared sieve column, F_re and F_im the
    product's own.  vanished marks that 1 + F_p(s) = 0 at some prime, so
    the product is exactly 0 and the columns are not read (see _checked).
    """

    primes: np.ndarray
    F_re: np.ndarray
    F_im: np.ndarray
    k_max: int
    vanished: bool = False


def _map_float(fn: Callable, *columns) -> np.ndarray:
    """fn applied elementwise through the scalar math library.

    numpy's own log1p, atan2 and power may differ from libm in the last
    ulp, which would change printed values; mapping keeps every term
    bit-identical to a per-prime loop in Python floats.  Columns are
    listed _MAP_SLICE entries at a time, so no list grows with them.
    """
    n = max(np.size(c) for c in columns)
    columns, out = [np.broadcast_to(c, (n,)) for c in columns], np.empty(n)
    for i in range(0, n, _MAP_SLICE):
        out[i : i + _MAP_SLICE] = np.fromiter(map(fn, *(c[i : i + _MAP_SLICE].tolist() for c in columns)), np.float64)
    return out


def _first_length(C: float, q: float, a: float, b: float, tol: float) -> int:
    """K_p at the first prime, where q is largest (see _local_factors),
    counted up to _K_HARD_CAP + 1 in Python floats, which round as
    _row_series' float64 columns do: past the cap, the product fails
    there, and else K is the number of powers _row_series walks."""
    if C == 0.0:
        return 0
    geo, base, K = C * q * q / (1.0 - q), a + b * q / (1.0 - q), 1
    while K <= _K_HARD_CAP and geo * (base + b * (K + 1)) > tol:
        geo *= q
        K += 1
    return K


def _local_factors(row: _Row, s: complex, P: int) -> _LocalFactors:
    """F_p(s) of the product row for every prime p <= P.

    The product has the ratios q = r/p^sigma over the primes and the
    envelope (a + b k) C q^k.  K_p is the smallest K >= 1 whose tail bound
    C q^{K+1}/(1-q) (a + b(K+1) + b q/(1-q)) is <= DEFAULT_FACTOR_TOL / n,
    n the number of primes p <= P: the product's budget shared by its
    primes, so that the n cuts together drop at most DEFAULT_FACTOR_TOL,
    bit-identical to the scalar local_factor oracle of tests/test_euler.py.
    The envelope (1, 0) gives the geometric tail C q^{K+1}/(1-q).  q falls
    as p grows, and with b >= 0 and a + b >= 0 so does the bound; the
    threshold is one number per product, so K_p never rises with p, and
    the primes whose series reaches k are a prefix of the primes.

    So the envelope decides the product's failure at the first prime,
    where q is largest: q >= 1 there, or a series there past _K_HARD_CAP.
    That error is raised before any value is read or any column built.
    Else _row_series computes the product over p^sigma and the power
    column that it builds for this call; what its values raise
    propagates.

    Raises:
        DivergentLocalFactorError: q >= 1 at the first prime, or more
            than _K_HARD_CAP terms there.
    """
    primes = prime_array(P)
    tol = DEFAULT_FACTOR_TOL / len(primes)
    p = int(primes[0])
    C, q = float(row.C), float(row.r) / math.pow(p, s.real)  # as _row_series rounds it
    if q >= 1.0:
        raise DivergentLocalFactorError(
            f"local factor diverges at p={p}: growth ratio {C:g}*{q:g}^k does not decay", prime=p
        )
    if (K := _first_length(C, q, *map(float, row.envelope), tol)) > _K_HARD_CAP:
        raise DivergentLocalFactorError(f"local factor at p={p} needs more than {_K_HARD_CAP} terms", prime=p)
    return _row_series(row, K, primes, s, tol)


def _power_columns(s: complex, primes) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """p^sigma and the power column t = p^{-s} over primes, t_im None for a real s."""
    p_sigma = primes.astype(np.float64)
    if s.real != 1.0:  # pow(p, 1.0) is p exactly
        p_sigma = _map_float(math.pow, p_sigma, s.real)
    if s.imag == 0.0:
        return p_sigma, 1.0 / p_sigma, None
    t = np.array([cmath.exp(-s * math.log(p)) for p in primes.tolist()], dtype=np.complex128)
    return p_sigma, t.real, t.imag


@lru_cache(maxsize=1)
def _compensator(P: int) -> np.ndarray:
    """lambda0's log1p(-1/p) over the primes p <= P, read-only."""
    comp = _map_float(math.log1p, -1.0 / prime_array(P))
    comp.flags.writeable = False
    return comp


@np.errstate(all="ignore")  # a term out of float64 range is refused by _checked; geo may underflow to 0
def _row_series(row: _Row, K: int, primes, s: complex, tol: float) -> _LocalFactors:
    """The product row over its own columns from _power_columns: its K
    powers, each over the prefix of the primes whose series reaches it,
    with its running power cur = t^k.

    At each k it reads its values over that prefix (one values call per
    power) and adds value * cur there.
    With s real, cur is real, and each part of numpy's complex-by-real
    product rounds as value.real * cur and value.imag * cur do (up to
    the sign of a zero, which no sum keeps, and a nan beside an infinite
    part of a value); else the complex products are spelled out in
    float64, so that they round exactly as Python's complex arithmetic
    does.  Then the envelope tail counts the prefix that reaches k + 1.
    """
    C, r, (a, b) = float(row.C), float(row.r), map(float, row.envelope)
    p_sigma, t_re, t_im = _power_columns(s, primes)
    q = r / p_sigma
    del p_sigma  # q takes its place through the loop
    geo = C * q  # C q q/(1 - q), in place
    geo *= q
    geo /= 1.0 - q
    base = a + b * q / (1.0 - q) if b else a  # with b = 0 it is a + 0 = a, and no column
    S = np.zeros(len(primes), dtype=np.complex128)
    cur_re = t_re.copy()
    cur_im = None if t_im is None else t_im.copy()
    m = len(primes)
    for k in range(1, K + 1):
        v = row.values(k, primes[:m])
        cr = cur_re[:m]
        if cur_im is None:
            S[:m] += v * cr
            cr *= t_re[:m]
        else:
            v = np.asarray(v, dtype=np.complex128)
            ci, tr, ti = cur_im[:m], t_re[:m], t_im[:m]
            S.real[:m] += v.real * cr - v.imag * ci
            S.imag[:m] += v.real * ci + v.imag * cr
            cr[:], ci[:] = cr * tr - ci * ti, cr * ti + ci * tr
        m = int(np.count_nonzero(geo * (base + b * (k + 1)) > tol))  # the prefix that reaches k + 1
        geo, q, base = geo[:m], q[:m], base[:m] if b else a
        geo *= q
    return _LocalFactors(primes, S.real, S.imag, K)


@np.errstate(all="ignore")
def _checked(factors: _LocalFactors, at: str) -> _LocalFactors:
    """The product as local factors 1 + F_p(at), each a valid log.

    The first prime that trips one acts: a non-finite series, a vanishing
    factor (returned with vanished set, not raised) or the log branch cut.

    Raises:
        PoleError: 1 + F_p(s) real and negative.
        ValueError: F_p(s) not finite.
    """
    F_re, F_im = factors.F_re, factors.F_im
    w_re = 1.0 + F_re
    zero = (w_re == 0.0) & (F_im == 0.0)
    pole = (F_im == 0.0) & (w_re < 0.0)
    bad = ~(np.isfinite(F_re) & np.isfinite(F_im))
    first = np.flatnonzero(zero | pole | bad)
    if len(first):
        i = int(first[0])
        p = int(factors.primes[i])
        if bad[i]:
            raise ValueError(f"local factor 1 + F_p({at}) is not finite at p={p}")
        if zero[i]:
            return factors._replace(vanished=True)
        raise PoleError(
            f"local factor 1 + F_p({at}) = {float(w_re[i]):g} hits the log branch cut at p={p}",
            prime=p,
        )
    return factors


@np.errstate(over="ignore", invalid="ignore")  # a square out of range takes the hypot below
def _clog1p(re, im) -> Tuple[np.ndarray, np.ndarray]:
    """special.clog1p over arrays, elementwise bit-identical to it."""
    square = 2.0 * re + re * re + im * im
    L_re = 0.5 * _map_float(math.log1p, square)
    wide = np.flatnonzero(~np.isfinite(square))
    if wide.size:
        re_w, im_w = (np.broadcast_to(c, square.shape)[wide] for c in (re, im))
        L_re[wide] = _map_float(lambda a, b: math.log(math.hypot(1.0 + a, b)), re_w, im_w)
    return L_re, _map_float(math.atan2, im, 1.0 + re)


@np.errstate(over="ignore", invalid="ignore")  # a term out of range is raised below
def _log_product(spec: MultiplicativeSpec, comp_re, comp_im, factors: _LocalFactors) -> complex:
    """fsum over primes of rho * log(compensator) + log(1 + F_p); OverflowError where a term is not finite."""
    rho = complex(spec.rho)
    L_re, L_im = _clog1p(factors.F_re, factors.F_im)
    re = rho.real * comp_re - rho.imag * comp_im + L_re
    im = rho.real * comp_im + rho.imag * comp_re + L_im
    overflow = OverflowError(f"the log product of {spec.name} overflows float64, with rho = {spec.rho:g}")
    if not (np.isfinite(re).all() and np.isfinite(im).all()):
        raise overflow
    try:
        return complex(fsum(re.tolist()), fsum(im.tolist()))
    except OverflowError:  # finite terms whose sum is not
        raise overflow from None


def _check_cutoff(prime_cutoff) -> int:
    P = int(prime_cutoff)
    if P < 100:
        raise ValueError(f"prime_cutoff must be >= 100, got {prime_cutoff}")
    return P


_ULP = 2.0**-53
# special.gamma on Re z >= 1/2 against mpmath at 40 digits, over |z| <= 400
# (beyond, Gamma leaves float64 range): at most 32 ulps of
# 1 + |z| ln(2 + |z|), at z = 0.5 + 9.1i, where the Lanczos sum is least
# accurate; twice that is charged
_GAMMA_ULPS = 64.0


def _gamma_error(z: complex) -> float:
    """Bound on the relative error of special.gamma(z), z not a pole.

    On Re z >= 1/2 it is the measured _GAMMA_ULPS ulps of
    1 + |z| ln(2 + |z|).  Below, gamma reflects to
    pi / (sin(pi z) Gamma(1 - z)).  Gamma(1 - z) carries the measured
    bound (rounding 1 - z adds |1 - z| |digamma(1 - z)| <= 2 of those
    ulps, within the margin).  The argument pi z is within 2 ulps of
    |pi z|, which moves sin(pi z) by that times
    |cot(pi z)| <= 1/(pi |w|) + 1, w = z - round(Re z): a term that grows
    as z nears a pole -1, -2, ... and stays 2 ulps near 0.  Four more
    ulps cover sin, the product and the division.
    """

    def lanczos(w: complex) -> float:
        return _GAMMA_ULPS * _ULP * (1.0 + abs(w) * math.log(2.0 + abs(w)))

    if z.real >= 0.5:
        return lanczos(z)
    w = z - round(z.real)
    return lanczos(1.0 - z) + 2.0 * _ULP * abs(z) * (1.0 / abs(w) + math.pi) + 4.0 * _ULP


def _head_bound(spec: MultiplicativeSpec, rho: complex, factors: _LocalFactors, total: complex) -> float:
    """Bound on the log error of the head product over the primes p <= P.

    Each truncated series F_p is within DEFAULT_FACTOR_TOL / n of the
    true one, n the number of primes p <= P (see _local_factors), which
    moves log(1 + F_p) by at most that over |1 + F_p|; so the head moves
    by at most DEFAULT_FACTOR_TOL / min(1, min_p |1 + F_p|).  Rounding:
    every term is within a few ulps of |rho|/p or of (K_p + 4) ulps of
    |F_p|, where |F_p| <= C r/(p - r) <= 3 C r/p for p >= 3, and
    sum_{p<=P} 1/p is below ln ln P + 0.2615 + 1/ln^2 P (Rosser and
    Schoenfeld, 1962); then the exp and 1/Gamma(rho) (_gamma_error).
    """
    worst = max(1.0, 1.0 / float(np.hypot(1.0 + factors.F_re, factors.F_im).min()))
    log_p = math.log(int(factors.primes[-1]))
    reciprocal_sum = math.log(log_p) + 0.2615 + 1.0 / log_p**2
    C, r = spec.growth.C, spec.growth.r
    F_sum = C * r * (1.0 / (2.0 - r) + 3.0 * reciprocal_sum)
    rounding = _ULP * (4.0 * abs(rho) * reciprocal_sum + (factors.k_max + 4) * worst * F_sum)
    rounding += 4.0 * _ULP * (1.0 + abs(total)) + _gamma_error(rho)
    return DEFAULT_FACTOR_TOL * worst + rounding


def _plain_tail(spec: MultiplicativeSpec, P: int, sigma: float) -> float:
    """Bound on the log of the primes p > P that a plain product at
    Re s = sigma drops, proven from the spec's bounds.

    With t = p^{-s}, the log of a local factor is
    (f(p) - rho) t + (F_p - f(p) t) + rho (log(1 - t) + t)
    + (log(1 + F_p) - F_p).  For p > P, |t| <= tau = P^{-sigma},
    x = r tau and |F_p| <= Phi = C x/(1 - x) by the envelope C r^k, so
    the four parts are at most c1 p^{-sigma-eps} (the prime deviation)
    and, times p^{-2 sigma}, C r^2/(1 - x), |rho|/(2(1 - tau)) and
    (C r/(1 - x))^2/(2(1 - Phi)).  Each sum over p > P of p^{-u} is at
    most 1.25506 u P^{1-u}/((u - 1) ln P): partial summation with
    pi(t) < 1.25506 t/ln t for t > 1 (Rosser and Schoenfeld, 1962,
    Cor. 1).  Infinite for u <= 1 or Phi >= 1.
    """

    def scale(u: float) -> float:
        return 1.25506 * u * P ** (1.0 - u) / ((u - 1.0) * math.log(P)) if u > 1.0 else math.inf

    C, r = spec.growth.C, spec.growth.r
    c1, eps = spec.prime_deviation
    tau = P**-sigma
    x = r * tau
    Phi = C * x / (1.0 - x)  # x < 1: the head's series converge at p = 2 < P
    if Phi >= 1.0:
        return math.inf
    lead = C * r / (1.0 - x)  # products, not **, so that overflow gives inf
    second = C * r * r / (1.0 - x) + abs(complex(spec.rho)) / (2.0 * (1.0 - tau)) + lead * lead / (2.0 * (1.0 - Phi))
    tail = second * scale(2.0 * sigma) if second > 0.0 else 0.0
    if c1 > 0.0:
        tail += c1 * scale(sigma + eps)
    return tail


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


@lru_cache(maxsize=256)
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


def _completes(series: Optional[LocalSeries], P: int, *exceptions) -> bool:
    """Whether the series can close the product above P: no prime it or the given exceptions list lies above P."""
    return series is not None and all(p <= P for listed in (series.exceptions, *exceptions) for p, _ in listed)


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
        Each call makes the product afresh, one call of the kernel.
    """
    return _lambda0(spec, _check_cutoff(prime_cutoff))[0]


def _factors_at_one(spec: MultiplicativeSpec, where: str = "") -> bool:
    """Whether the s = 1 product of spec needs its local factors: False
    when rho is a nonpositive integer, which makes the product 0.

    Raises:
        DivergentLocalFactorError: growth ratio r >= 2 (its message prefixed by where).
    """
    rho = complex(spec.rho)
    if _is_snapped_nonpositive_integer(rho):
        return False
    if spec.growth.r >= 2.0:
        raise DivergentLocalFactorError(f"{where}growth ratio r={spec.growth.r:g} >= 2 diverges at p=2, s=1", prime=2)
    return True


def _completion(spec: MultiplicativeSpec, rho: complex, P: int) -> Optional[_Completion]:
    """The primes p > P of lambda0's log product, or None for a plain product."""
    if not _completes(spec.series, P):
        return None
    return _close_tail(_log_factor_coefficients(spec.series, rho), P, spec.growth.r)


def _lambda0(spec: MultiplicativeSpec, P: int) -> Tuple[EulerProductResult, complex]:
    """lambda0 of spec, closed by the prime-zeta tail when the spec allows
    it, and its head, the product over the primes p <= P alone (the
    value, when plain or 0)."""
    if not _factors_at_one(spec):
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=0, tail_estimate=0.0), 0j
    factors = _checked(_local_factors(_spec_row(spec), complex(1.0), P), "1")
    if factors.vanished:
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=0.0), 0j
    rho = complex(spec.rho)
    total = _log_product(spec, _compensator(P), 0.0, factors)
    try:
        gamma_rho = gamma(rho)
    except OverflowError:
        raise OverflowError(f"Gamma(rho) of {spec.name} overflows float64, with rho = {spec.rho:g}") from None
    head = value = cmath.exp(total) / gamma_rho
    tail = _completion(spec, rho, P)
    if tail is None:
        truncation = _plain_tail(spec, P, 1.0)
    else:
        total += tail.value
        value, truncation = cmath.exp(total) / gamma_rho, tail.error
    tail_estimate = truncation + _head_bound(spec, rho, factors, total)
    return EulerProductResult(
        value=value, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=tail_estimate, completed=tail is not None
    ), head


def psi(
    alpha: MultiplicativeSpec,
    z,
    g: AdditiveSpec = OMEGA,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
) -> complex:
    """Limiting function psi(z) = lambda0(exp-twist of alpha) / lambda0(alpha).

    psi_grid of the one z: two products, lambda0(alpha) and the twist.

    Raises:
        DegenerateSpecError: lambda0(alpha) = 0.
    """
    return psi_grid(alpha, (z,), g, prime_cutoff)[0]


def psi_grid(
    alpha: MultiplicativeSpec,
    zs: Sequence,
    g: AdditiveSpec = OMEGA,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
) -> List[complex]:
    """psi(z) for each z of zs, with lambda0(alpha) made once.

    lambda0(alpha) is made first and then the twist of each z, in the
    order of zs, each over the primes p <= cutoff, and a twist closed
    unlike alpha is divided by it head by head (see _psi_batch).  The
    values are bit-identical to psi(z) alone.  What lambda0(alpha)
    raises comes first; then a failing z raises what psi(z) alone
    raises, the first in the order of zs.

    Raises:
        DegenerateSpecError: lambda0(alpha) = 0.
        DomainError: the twist at z leaves float64 range (_exp_twist).
    """
    return _psi_batch(alpha, (_exp_twist(alpha, complex(z), g) for z in zs), prime_cutoff)[1]


def _twist_is_finite(alpha: MultiplicativeSpec, z: complex, g: AdditiveSpec) -> bool:
    """Whether the twist of alpha by e^z stays in float64 range: e^z is
    finite and nonzero, and so is Gamma of the twist's rho, rho e^(c z)
    with c = g.k_value(1), computed as funcs.twist computes it, with a
    modulus no less than the least normal float (a subnormal Gamma has
    lost its digits, and psi is then nan).  psi(z) divides by that Gamma
    unless the rho is a nonpositive integer, whose product is 0.  A g
    without a k_value passes: twist rejects it.
    """
    if g.k_value is None:
        return True
    try:
        y = cmath.exp(z)
        if y == 0:
            return False
        rho = cpow(y, g.k_value(1)) * complex(alpha.rho)
        if cmath.isfinite(rho) and not _is_snapped_nonpositive_integer(rho):
            return abs(gamma(rho)) >= sys.float_info.min
        return cmath.isfinite(rho)
    except OverflowError:
        return False


def _exp_twist(alpha: MultiplicativeSpec, z: complex, g: AdditiveSpec) -> MultiplicativeSpec:
    """twist(alpha, e^z, g), rejected before its product when it leaves float64 range or diverges.

    Raises:
        DomainError: not _twist_is_finite(alpha, z, g).
        DivergentLocalFactorError: growth ratio r >= 2, with z named.
    """
    if not _twist_is_finite(alpha, z, g):
        raise DomainError(
            f"z = {z:g} takes the twist out of float64 range: e^z underflows to 0 or overflows, or "
            f"|Gamma(rho e^(c z))| overflows or falls below the least normal float, with c = {g.k_value(1):g} "
            f"for {g.name}"
        )
    spec = twist(alpha, cmath.exp(z), g)
    _factors_at_one(spec, f"z = {z:g}, twist by {g.name}: ")
    return spec


def _psi_batch(
    alpha: MultiplicativeSpec, twisted: Iterable[MultiplicativeSpec], prime_cutoff: int
) -> Tuple[EulerProductResult, List[complex]]:
    """lambda0(alpha) and the psi of each twist.

    lambda0(alpha) is made first, so its error comes before any twist's;
    then twisted is read in order, _exp_twist(alpha, z, g) for each z of
    the grid (a generator raises a failing z's error when it is reached),
    and each twist's product made.  Each value is the ratio of two
    products closed alike, so that the tails above P cancel in the ratio
    instead of adding: of the values when both completed or both are
    plain, else of the heads, the products over the primes p <= P (a
    table prime of g above P, say, leaves the twists plain).  A plain
    product's head is its value.
    """
    P = _check_cutoff(prime_cutoff)
    den, den_head = _lambda0(alpha, P)
    if den.value == 0:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    values = []
    for spec in twisted:
        num, head = _lambda0(spec, P)
        values.append(num.value / den.value if num.completed == den.completed else head / den_head)
    return den, values


def _log_derivative(alpha: MultiplicativeSpec, g: AdditiveSpec, P: int) -> complex:
    """d/dz log lambda0(exp-twist of alpha) at z = 0.

    The closed form of stats.psi_prime_at_zero, from two calls of the
    kernel over the primes p <= P: F_p, the s = 1 factors, and then
    G_p = sum_k g(p^k) alpha(p^k) p^{-k}, truncated where the tail of
    its envelope (a + b k) C (r/p)^k is <= DEFAULT_FACTOR_TOL over the
    number of primes, with (a, b) = g.power_bound.  The compensator
    log1p(-1/p) is computed here and freed with the call: memoised, it
    would stay beside G_p's columns.  Logs go through the
    math library, as in lambda0, so the printed value does not depend on
    numpy's SIMD.  When alpha has a local series and no exceptional prime
    of either lies above P, the primes p > P add sum_j b_j P_{>P}(j), as
    in lambda0.  Otherwise, or when that series cannot close (_close_tail
    gives None), the value is the head alone, with no bound on the primes
    it drops.
    """
    if not _factors_at_one(alpha):
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    if g.k_value is None:
        raise ValueError(f"additive spec {g.name!r} has no generic prime value; psi'(0) needs one")
    c = g.k_value(1)

    def values(k, primes):  # complex products, as g(p^k) alpha(p^k) rounds in Python
        g_values, alpha_values = prime_power_values(g, k, primes), prime_power_values(alpha, k, primes)
        return np.multiply(g_values, alpha_values, dtype=np.complex128)

    factors = _checked(_local_factors(_spec_row(alpha), complex(1.0), P), "1")
    if factors.vanished:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    G = _local_factors(_Row(values, alpha.growth.C, alpha.growth.r, g.power_bound), complex(1.0), P)
    rho = complex(alpha.rho)
    # G_p / (1 + F_p) + c rho log(1 - 1/p) in place, and fsum reads the
    # columns directly: fewer temporaries over the primes, the same bits
    terms = G.F_re + 1j * G.F_im
    terms /= 1.0 + factors.F_re + 1j * factors.F_im
    terms += c * rho * _map_float(math.log1p, -1.0 / factors.primes)
    total = complex(fsum(terms.real), fsum(terms.imag))
    if _completes(alpha.series, P, g.exceptions):
        coefficients = _log_derivative_coefficients(alpha.series, g.k_value, c, rho)
        tail = _close_tail(coefficients, P, alpha.growth.r)
        if tail is not None:
            total += tail.value
    return total - c * rho * digamma(rho)


def g_compensated(
    spec: MultiplicativeSpec,
    s,
    *,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
) -> EulerProductResult:
    """Compensated product prod_{p<=P} (1-p^{-s})^rho (1 + F_p(s)), rho = spec.rho.

    Allowed down to Re s > 1 - c0.  tail_estimate is _plain_tail, a
    proven bound wherever it is finite; it is infinite where 2 Re s <= 1
    or the prime deviation bound c1 p^(-eps) is not summable at Re s.

    Raises:
        DomainError: Re s <= 1 - c0.
        DivergentLocalFactorError / PoleError: per-prime failures.
    """
    s = complex(s)
    P = _check_cutoff(prime_cutoff)
    sigma = s.real
    if sigma <= 1.0 - spec.c0:
        raise DomainError(
            f"g_compensated needs Re s > 1 - c0 = {1.0 - spec.c0:g}, got Re s = {sigma:g}"
        )
    factors = _checked(_local_factors(_spec_row(spec), s, P), f"{s}")
    if factors.vanished:
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=0.0)
    if s.imag == 0.0:
        t_re, t_im = _map_float(math.pow, factors.primes.astype(np.float64), -sigma), 0.0
    else:
        t_re, t_im = _power_columns(s, factors.primes)[1:]
    comp_re, comp_im = _clog1p(-t_re, -t_im)
    value = cmath.exp(_log_product(spec, comp_re, comp_im, factors))
    return EulerProductResult(
        value=value, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=_plain_tail(spec, P, sigma)
    )


def _admissibility_rule(spec: MultiplicativeSpec, beta: float) -> Tuple[str, Optional[int], float, str]:
    """verdict, witness, abscissa_estimate and reason of check_admissibility_pp."""
    a = abs(complex(spec.rho))
    c1, eps = spec.prime_deviation
    C, r = spec.growth.C, spec.growth.r
    if a > 0.0:
        abscissa = max(1.0, math.log2(r))
    else:
        abscissa = max([math.log2(r)] + [0.5] * (C > 0.0) + [1.0 - eps] * (c1 > 0.0))
    if r >= 2.0**beta:
        return "inconsistent", 2, abscissa, f"growth ratio r = {r:g} >= 2^(1-c0): the bound at p = 2 does not decay"
    if a > 0.0:
        if beta > 0.5:
            return "consistent", None, abscissa, f"|f(p)| -> {a:g} > 0 and c0 < 1/2: sum_p p^(-2(1-c0)) converges"
        return "inconsistent", None, abscissa, f"|f(p)| -> {a:g} > 0 and c0 >= 1/2: sum_p p^(-2(1-c0)) diverges"
    if c1 > 0.0 and eps + beta <= 0.5:
        return "inconclusive", None, abscissa, "f(p) -> 0, and its upper bound c1 p^-eps is not square-summable"
    if C > 0.0 and beta <= 0.25:
        reason = "f(p) -> 0, and its upper bound C r^2 p^(-2(1-c0)) is not square-summable"
        return "inconclusive", None, abscissa, reason
    return "consistent", None, abscissa, "f(p) -> 0, and its bounds c1 p^-eps, C r^2 p^(-2(1-c0)) are square-summable"


def check_admissibility_pp(spec: MultiplicativeSpec) -> AdmissibilityReport:
    """Decide whether sum_p (sum_k |f(p^k)| p^{-k beta})^2 converges at
    beta = 1 - c0 from c0 = spec.c0, a = |rho|, (c1, eps) =
    prime_deviation and (C, r) = growth alone (Tenenbaum, Introduction
    to Analytic and Probabilistic Number Theory, Ch. II.5):

    - r >= 2^beta: inconsistent, with witness 2.
    - a > 0: the inner series is |f(p)| p^-beta + O(C r^2 p^{-2 beta})
      with |f(p)| -> a, so it is consistent iff c0 < 1/2; the abscissa of
      sum |f(n)| n^-sigma is max(1, log2 r).
    - a = 0: consistent when (c1 = 0 or eps + beta > 1/2) and (C = 0 or
      beta > 1/4), else inconclusive, as those are upper bounds; the
      abscissa is at most max(log2 r, 1/2 if C > 0, 1 - eps if c1 > 0).
    """
    verdict, witness, abscissa, reason = _admissibility_rule(spec, 1.0 - spec.c0)
    return AdmissibilityReport(c0=spec.c0, verdict=verdict, witness=witness, abscissa_estimate=abscissa, reason=reason)
