"""Euler products: local factors, leading constants, limits.

Everything here reduces to products over primes p <= P of local factors
(1 - p^{-s})^rho (1 + F_p(s)), where F_p(s) = sum_k f(p^k) p^{-ks} is
truncated using the spec's geometric growth envelope.  Products are
accumulated in log space (exact summation of per-prime logs) so that
10^6 factors neither underflow nor lose relative accuracy.  One kernel
pass evaluates a stack of products as rows over one column of primes:
psi_grid puts lambda0(alpha) and the twist of every z in one pass, and
psi'(0) its series F_p and G_p.

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
from typing import Callable, Iterator, List, NamedTuple, Optional, Sequence, Tuple, Union

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
# the series truncation budget of one product: each of the n local series
# of a pass over the primes p <= P stops where its tail bound is <= this
# over n; the kernels read it when they run
DEFAULT_FACTOR_TOL = 1e-14

# rho values this close to a nonpositive integer trigger the exact-zero
# rule; covers e.g. e^{i pi} * rho carrying one ulp of rounding
_INTEGER_SNAP_TOL = 1e-12

_K_HARD_CAP = 100_000


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
    """One product of a kernel pass: its values and its growth envelope.

    values(k, primes) gives f(p^k) over a prefix of the head primes, as
    funcs.prime_power_values does: an array of their shape, or a 0-d one
    for all of them.  The series at p stops where the tail of
    (a + b k) C (r/p^sigma)^k is <= DEFAULT_FACTOR_TOL / n, n the number
    of primes of the pass, with (a, b) = envelope.
    """

    values: Callable
    C: float
    r: float
    envelope: Tuple[float, float] = (1.0, 0.0)


def _spec_row(spec: MultiplicativeSpec) -> _Row:
    return _Row(partial(prime_power_values, spec), spec.growth.C, spec.growth.r)


class _LocalFactors(NamedTuple):
    """One row's series F_p(s) over its head primes, as float64 columns.

    The head stops at the first prime whose series fails, and failure is
    that error (None if there is none).  k_max is the series length at
    the first prime, the longest of the head: the number of nonzero
    counts in the row's column of _series_lengths.
    t_re and t_im are the power column p^{-s}, with t_im None for a real
    s.  vanished marks that 1 + F_p(s) = 0 at primes[-1], so the product
    is exactly 0 (see _checked).
    """

    primes: np.ndarray
    F_re: np.ndarray
    F_im: np.ndarray
    t_re: np.ndarray
    t_im: Optional[np.ndarray]
    k_max: int
    failure: Optional[ArithmeticError]
    vanished: bool = False


def _map_float(fn: Callable, *columns) -> np.ndarray:
    """fn applied elementwise through the scalar math library.

    numpy's own log1p, atan2 and power may differ from libm in the last
    ulp, which would change printed values; mapping keeps every term
    bit-identical to a per-prime loop in Python floats.
    """
    n = max(np.size(c) for c in columns)
    lists = [np.broadcast_to(c, (n,)).tolist() for c in columns]
    return np.fromiter(map(fn, *lists), dtype=np.float64, count=n)


@np.errstate(all="ignore")  # entries past a row's cut or count are masked out
def _series_lengths(
    primes: np.ndarray, q: np.ndarray, C: Sequence[float], envelopes: Sequence[Tuple[float, float]]
) -> Tuple[np.ndarray, List[int], List[Optional[ArithmeticError]]]:
    """The staircases of series lengths of a stack of rows.

    Row i has the ratios q[i] = r_i/p^sigma over the primes and the
    envelope (a + b k) C q^k with C = C[i] and (a, b) = envelopes[i].
    K_p is the smallest K >= 1 whose tail bound
    C q^{K+1}/(1-q) (a + b(K+1) + b q/(1-q)) is <= DEFAULT_FACTOR_TOL / n,
    n = len(primes): the product's budget shared by its primes, so that
    the n cuts together drop at most DEFAULT_FACTOR_TOL.  The envelope
    (1, 0) gives the geometric tail C q^{K+1}/(1-q).  q falls as p
    grows, and with b >= 0 and a + b >= 0 so does the bound; the
    threshold is one number per pass, so K_p never rises with p, and the
    primes whose series reaches k are a prefix of the head.  Returns
    (lengths, cuts, failures): lengths is the int64 count matrix of
    shape (k, rows), whose entry [k-1, i] is the length of that prefix
    for row i (so K_p at the first prime is the number of nonzero counts
    in column i), and row i's head stops at cuts[i], the index of the
    first prime whose series fails, with failures[i] that error (None if
    there is none).  The rows share one loop over k, over the longest
    prefix still counting; each row counts within its own prefix.
    """
    tol = DEFAULT_FACTOR_TOL / len(primes)
    C = np.asarray(C, dtype=np.float64)
    a, b = np.asarray(envelopes, dtype=np.float64).T[:, :, None]
    diverging = q >= 1.0
    cuts = np.where(diverging.any(axis=1), diverging.argmax(axis=1), q.shape[1]).tolist()
    failures = [None] * len(cuts)
    for i, cut in enumerate(cuts):
        if cut < q.shape[1]:
            p, qf = int(primes[cut]), float(q[i, cut])
            failures[i] = DivergentLocalFactorError(
                f"local factor diverges at p={p}: growth ratio {float(C[i]):g}*{qf:g}^k does not decay",
                prime=p,
            )
    geo = C[:, None] * q * q / (1.0 - q)
    base = a + b * q / (1.0 - q)
    column = np.arange(q.shape[1])
    n = np.where(C != 0.0, cuts, 0)
    width = int(n.max(initial=0))
    steps = []
    while width:
        if len(steps) == _K_HARD_CAP:
            p = int(primes[0])
            for i in np.flatnonzero(n).tolist():
                cuts[i] = 0
                failures[i] = DivergentLocalFactorError(
                    f"local factor at p={p} needs more than {_K_HARD_CAP} terms", prime=p
                )
            break
        steps.append(n)
        geo = geo[:, :width]
        live = geo * (base[:, :width] + b * (len(steps) + 1)) > tol
        live &= column[:width] < n[:, None]
        n = live.sum(axis=1)
        width = int(n.max())
        geo = geo[:, :width] * q[:, :width]
    lengths = np.array(steps, dtype=np.int64).reshape(-1, len(cuts)) * (np.array(cuts) > 0)
    return lengths[: np.count_nonzero(lengths.any(axis=1))], cuts, failures


@np.errstate(all="ignore")  # Python float arithmetic does not warn either
def _power_series(
    rows: Sequence[_Row], primes: np.ndarray, lengths: np.ndarray, t_re, t_im=None
) -> Tuple[np.ndarray, np.ndarray, List[Optional[Exception]]]:
    """sum_{k <= K_p} values(p, k) t_p^k for every row and prime, as
    float64 arrays of shape (rows, primes).

    One loop over k serves the stack.  The power column cur = t_p^k is
    shared; row i adds its terms only to the first lengths[k-1, i]
    primes, lengths being the count matrix of _series_lengths: a where=
    mask against the union of the staircases.
    acc += value * cur; cur *= t, one power at a time, with the complex
    products spelled out in float64 so that they round exactly as
    Python's complex arithmetic does.  With t_im None the column is real
    and its zero imaginary half is skipped.
    Also returns, per row, the ArithmeticError or ValueError its values
    raised (None if none).
    """
    union = lengths.max(axis=1, initial=0).tolist()
    head = union[0] if union else 0
    S_re, S_im = np.zeros((len(rows), len(primes))), np.zeros((len(rows), len(primes)))
    errors: List[Optional[Exception]] = [None] * len(rows)
    column = np.arange(head)
    cur_re = t_re[:head].copy()
    cur_im = None if t_im is None else t_im[:head].copy()
    for k, (n, live) in enumerate(zip(union, lengths), start=1):
        values: List = [0j] * len(rows)
        for i, m in enumerate(live.tolist()):
            if m and errors[i] is None:
                try:
                    values[i] = rows[i].values(k, primes[:m])
                except (ArithmeticError, ValueError) as exc:
                    errors[i] = exc
        if all(getattr(v, "ndim", 0) == 0 for v in values):  # one value per row: a column
            V = np.array(values, dtype=np.complex128)[:, None]
        else:
            V = np.zeros((len(rows), n), dtype=np.complex128)
            for i, (v, m) in enumerate(zip(values, live.tolist())):
                V[i, :m] = v
        where = column[:n] < live[:, None]
        acc_re, acc_im, cr = S_re[:, :n], S_im[:, :n], cur_re[:n]
        if cur_im is None:
            np.add(acc_re, V.real * cr, out=acc_re, where=where)
            np.add(acc_im, V.imag * cr, out=acc_im, where=where)
            cr *= t_re[:n]
        else:
            ci, tr, ti = cur_im[:n], t_re[:n], t_im[:n]
            np.add(acc_re, V.real * cr - V.imag * ci, out=acc_re, where=where)
            np.add(acc_im, V.real * ci + V.imag * cr, out=acc_im, where=where)
            cr[:], ci[:] = cr * tr - ci * ti, cr * ti + ci * tr
    return S_re, S_im, errors


def _local_factors(rows: Sequence[_Row], s: complex, P: int) -> List[Union[_LocalFactors, Exception]]:
    """F_p(s) of each row for every prime p <= P, in one kernel pass.

    Each series is cut where its tail bound is <= DEFAULT_FACTOR_TOL
    over the number of primes p <= P (see _series_lengths), which depends
    on P alone, bit-identical to the scalar local_factor oracle of
    tests/test_euler.py.  One values call per row and power k covers the
    prefix of the head whose series reaches k.  A row whose values raise
    gets that error in its place; _checked reads the other failures.
    """
    primes = prime_array(P)
    p_sigma = primes.astype(np.float64)
    if s.real != 1.0:  # pow(p, 1.0) is p exactly
        p_sigma = _map_float(math.pow, p_sigma, s.real)
    r = np.array([row.r for row in rows], dtype=np.float64)
    lengths, cuts, failures = _series_lengths(
        primes, r[:, None] / p_sigma, [row.C for row in rows], [row.envelope for row in rows]
    )
    head = max(cuts, default=0)
    primes = primes[:head]
    if s.imag == 0.0:
        t_re, t_im = 1.0 / p_sigma[:head], None
    else:
        t = np.array([cmath.exp(-s * math.log(p)) for p in primes.tolist()], dtype=np.complex128)
        t_re, t_im = t.real, t.imag
    S_re, S_im, errors = _power_series(rows, primes, lengths, t_re, t_im)
    k_max = np.count_nonzero(lengths, axis=0).tolist()
    return [
        error if error is not None else _LocalFactors(
            primes[:cut], F_re[:cut], F_im[:cut], t_re[:cut], None if t_im is None else t_im[:cut], k, failure
        )
        for cut, failure, k, F_re, F_im, error in zip(cuts, failures, k_max, S_re, S_im, errors)
    ]


@np.errstate(all="ignore")
def _checked(factors: Union[_LocalFactors, Exception], at: str) -> _LocalFactors:
    """The row as local factors 1 + F_p(at), each a valid log.

    Failures act at the first prime that trips one: the row's values
    raising, then at each prime a non-finite series, a vanishing factor
    (returned with vanished set, not raised) or the log branch cut, then
    series divergence.

    Raises:
        DivergentLocalFactorError: growth ratio >= p^{Re s}, or more
            than _K_HARD_CAP terms.
        PoleError: 1 + F_p(s) real and negative.
        ValueError: F_p(s) not finite.
    """
    factors = _raised(factors)
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
            return factors._replace(primes=factors.primes[: i + 1], vanished=True)
        raise PoleError(
            f"local factor 1 + F_p({at}) = {float(w_re[i]):g} hits the log branch cut at p={p}",
            prime=p,
        )
    if factors.failure is not None:
        raise factors.failure
    return factors


def _attempt(fn: Callable, *args):
    """fn(*args), or the ArithmeticError or ValueError it raises: a row's
    result, which fails without stopping the other rows."""
    try:
        return fn(*args)
    except (ArithmeticError, ValueError) as exc:
        return exc


def _raised(result):
    """result, or raise it when it is an exception held for its row."""
    if isinstance(result, Exception):
        raise result
    return result


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
    true one, n the number of primes p <= P (see _series_lengths), which
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
        Each call is a kernel pass of one row.
    """
    return _raised(_lambda0_batch([spec], _check_cutoff(prime_cutoff))[0])[0]


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


def _lambda0_batch(
    specs: Sequence[MultiplicativeSpec], P: int
) -> List[Union[Tuple[EulerProductResult, complex], Exception]]:
    """lambda0 of each spec, closed by the prime-zeta tail when the spec
    allows it, from one kernel pass over the primes p <= P.

    The specs are the rows of the pass and share the compensator
    log1p(-1/p).  Each gives its result and its head, the product over
    the primes p <= P alone (the value, when plain or 0), or the
    ArithmeticError or ValueError of its own checks; the other rows are
    what they are alone.
    """
    results = [_attempt(_factors_at_one, spec) for spec in specs]
    todo = [i for i, needed in enumerate(results) if needed is True]
    for i, needed in enumerate(results):
        if needed is False:
            results[i] = EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=0, tail_estimate=0.0), 0j
    if todo:
        comp = _map_float(math.log1p, -1.0 / prime_array(P))
        for i, factors in zip(todo, _local_factors([_spec_row(specs[i]) for i in todo], complex(1.0), P)):
            results[i] = _attempt(_lambda0_result, specs[i], P, factors, comp)
    return results


def _lambda0_result(spec: MultiplicativeSpec, P: int, factors, comp: np.ndarray) -> Tuple[EulerProductResult, complex]:
    """lambda0 and its head from the row's unchecked local factors and the compensator."""
    factors = _checked(factors, "1")
    if factors.vanished:
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=0.0), 0j
    rho = complex(spec.rho)
    total = _log_product(spec, comp, 0.0, factors)
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

    psi_grid of the one z: the twist and lambda0(alpha) are the two rows
    of one kernel pass.

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
    """psi(z) for each z of zs, from one kernel pass.

    lambda0(alpha) and the twist of each z are the rows of one pass over
    the primes p <= cutoff, and a twist closed unlike alpha is divided
    by it head by head (see _psi_batch).  The values are bit-identical
    to psi(z) alone.  A failing z raises what psi(z) alone raises, the
    first in the order of zs.

    Raises:
        DegenerateSpecError: lambda0(alpha) = 0.
        DomainError: the twist at z leaves float64 range (_exp_twist).
    """
    return _psi_batch(alpha, zs, g, prime_cutoff)[1]


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
    alpha: MultiplicativeSpec, zs: Sequence, g: AdditiveSpec, prime_cutoff: int
) -> Tuple[EulerProductResult, List[complex]]:
    """lambda0(alpha) and psi_grid(alpha, zs, g, prime_cutoff), from one pass.

    Each value is the ratio of two products closed alike, so that the
    tails above P cancel in the ratio instead of adding: of the values
    when both completed or both are plain, else of the heads, the
    products over the primes p <= P (a table prime of g above P, say,
    leaves the twists plain).  A plain product's head is its value.
    Raises what lambda0(alpha) raises, for every z.
    """
    P = _check_cutoff(prime_cutoff)
    twisted = [_attempt(_exp_twist, alpha, complex(z), g) for z in zs]
    den, *nums = _lambda0_batch([alpha] + [spec for spec in twisted if not isinstance(spec, Exception)], P)
    den, den_head = _raised(den)
    if den.value == 0:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    nums = iter(nums)
    values = []
    for spec in twisted:
        num, head = _raised(spec if isinstance(spec, Exception) else next(nums))
        values.append(num.value / den.value if num.completed == den.completed else head / den_head)
    return den, values


def _log_derivative(alpha: MultiplicativeSpec, g: AdditiveSpec, P: int) -> complex:
    """d/dz log lambda0(exp-twist of alpha) at z = 0.

    The closed form of stats.psi_prime_at_zero, from one kernel pass
    over the primes p <= P with two rows: F_p, the s = 1 factors, and
    G_p = sum_k g(p^k) alpha(p^k) p^{-k}, truncated where the tail of
    its envelope (a + b k) C (r/p)^k is <= DEFAULT_FACTOR_TOL over the
    number of primes, with (a, b) = g.power_bound.  Logs go through the
    math library, as in lambda0, so the printed value does not depend on
    numpy's SIMD.  When alpha has a local series and no exceptional prime
    of either lies above P, the primes p > P add sum_j b_j P_{>P}(j), as
    in lambda0.
    """
    if not _factors_at_one(alpha):
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    if g.k_value is None:
        raise ValueError(f"additive spec {g.name!r} has no generic prime value; psi'(0) needs one")
    c = g.k_value(1)

    def values(k, primes):  # complex products, as g(p^k) alpha(p^k) rounds in Python
        g_values, alpha_values = prime_power_values(g, k, primes), prime_power_values(alpha, k, primes)
        return np.multiply(g_values, alpha_values, dtype=np.complex128)

    G_row = _Row(values, alpha.growth.C, alpha.growth.r, g.power_bound)
    F, G = _local_factors([_spec_row(alpha), G_row], complex(1.0), P)
    factors = _checked(F, "1")
    if factors.vanished:
        raise DegenerateSpecError(f"lambda0({alpha.name}) = 0; psi undefined")
    G = _raised(G)
    if G.failure is not None:
        raise G.failure
    rho = complex(alpha.rho)
    # G_p / (1 + F_p) + c rho log(1 - 1/p) in place, and fsum reads the
    # columns directly: fewer temporaries over the primes, the same bits
    terms = G.F_re + 1j * G.F_im
    terms /= 1.0 + factors.F_re + 1j * factors.F_im
    terms += c * rho * _map_float(math.log1p, -1.0 / factors.primes)
    total = complex(fsum(terms.real), fsum(terms.imag))
    if _completes(alpha.series, P, *g.exceptional_primes):
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
    factors = _checked(_local_factors([_spec_row(spec)], s, P)[0], f"{s}")
    if factors.vanished:
        return EulerProductResult(value=0j, prime_cutoff=P, k_cutoff=factors.k_max, tail_estimate=0.0)
    if s.imag == 0.0:
        t_re, t_im = _map_float(math.pow, factors.primes.astype(np.float64), -sigma), 0.0
    else:
        t_re, t_im = factors.t_re, factors.t_im
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
