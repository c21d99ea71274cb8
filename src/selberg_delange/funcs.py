"""Multiplicative and additive function specifications.

A multiplicative function is pinned down by its values on prime powers
f(p^k) together with metadata the numeric engines need: the average
value rho over primes, the exponent c0 entering the admissibility
window, and a geometric growth envelope |f(p^k)| <= C * r^k that makes
every series truncation computable.  Additive functions carry the
analogous data for exponential twists y^g.

Every built-in multiplicative spec except `perturbed` states its values
by its local series: f(p^k) as a short polynomial in 1/p whose
coefficients do not depend on p, but at the prime powers it lists.  Both
engines read it, and the Euler products close the product over the
primes above their cutoff with it.

Built-in families:
    unit                 f(n) = 1
    theta_omega(theta)   f(n) = theta^omega(n)
    geometric_B(B)       f(p^k) = B^k
    perturbed(a, eps)    f(p^k) = a + p^(-eps k)
    tau_rho(rho)         Dirichlet coefficients of zeta^rho
    euler_phi_over_n     f(p^k) = 1 - 1/p   (phi(n)/n)
plus explicit (p,k) -> value tables for both kinds.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import KW_ONLY, dataclass, field
from typing import Callable, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from .errors import SpecGrammarError
from .special import cpow

_DEVIATION_NONE = (0.0, 1.0)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


@dataclass(frozen=True)
class GrowthBound:
    """Geometric envelope |f(p^k)| <= C * r^k, valid for every prime p."""

    C: float
    r: float

    def __post_init__(self):
        if not (self.C >= 0.0 and math.isfinite(self.C)):
            raise ValueError(f"growth constant C must be finite and >= 0, got {self.C}")
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ValueError(f"growth ratio r must be finite and > 0, got {self.r}")


@dataclass(frozen=True)
class StripDomain:
    """Open horizontal strip c < Re z < d (either end may be infinite)."""

    c: float
    d: float

    def __post_init__(self):
        if not self.c < self.d:
            raise ValueError(f"strip requires c < d, got [{self.c}, {self.d}]")

    def contains(self, z) -> bool:
        z = complex(z)
        return self.c < z.real < self.d


FULL_PLANE = StripDomain(-math.inf, math.inf)


def _by_power(exceptions: Mapping[Tuple[int, int], complex]) -> Dict[int, Tuple[np.ndarray, np.ndarray]]:
    """exceptions as k -> (the sorted int64 primes listed at k, their complex128 values)."""
    grouped: Dict[int, list] = {}
    for p, k in sorted(exceptions):
        grouped.setdefault(k, []).append(p)
    return {
        k: (np.array(ps, dtype=np.int64), np.array([exceptions[p, k] for p in ps], dtype=np.complex128))
        for k, ps in grouped.items()
    }


@dataclass(frozen=True)
class LocalSeries:
    """f(p^k) = sum_i coeffs(k)[i] p^(-i) at every prime power outside
    exceptions, with coefficients that do not depend on p.

    exceptions maps each (p, k) where f takes another value to it (the
    entries of `tabulated`, and a twist's), and is compared by value but
    not hashed, so a table spec stays hashable.  Every built-in but
    `perturbed` has a series.  coeffs(k) returns a short tuple for each
    k >= 1; coeffs is compared by identity, like value_at.
    """

    coeffs: Callable[[int], Tuple[complex, ...]]
    exceptions: Mapping[Tuple[int, int], complex] = field(default_factory=dict, hash=False)
    _by_power: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_by_power", _by_power(self.exceptions))


@dataclass(frozen=True)
class MultiplicativeSpec:
    """A multiplicative function given by its prime-power values.

    Each f(p^k) is stated once, and both engines read it through
    prime_power_values: by series, the optional LocalSeries and its
    exceptions, or else by value_at(p, k), which is read nowhere else.
    Construction raises ValueError where neither is given.  Among the
    built-ins only `perturbed` and its twists give value_at.  value_at
    must be pure; instances are immutable and safe to share across threads.

    rho is the value f(p) tends to over the primes, so that
    sum f(n) n^-s = zeta(s)^rho G(s); prime_deviation = (c1, eps) bounds
    |f(p) - rho| <= c1 * p^(-eps), and feeds Euler-product tail
    estimates.  The Euler products close the primes above their cutoff
    with the series when no listed prime lies there.  The fields
    after value_at are keyword-only.
    """

    name: str
    value_at: Optional[Callable[[int, int], complex]] = None
    _: KW_ONLY
    rho: complex
    c0: float
    growth: GrowthBound
    prime_deviation: Tuple[float, float] = _DEVIATION_NONE
    series: Optional[LocalSeries] = None

    def __post_init__(self):
        if not cmath.isfinite(complex(self.rho)):
            raise ValueError(f"rho must be finite, got {self.rho}")
        if not (0.0 < self.c0 < 1.0):
            raise ValueError(f"c0 must lie in (0,1), got {self.c0}")
        c1, eps = self.prime_deviation
        if c1 < 0.0 or eps <= 0.0:
            raise ValueError(f"prime_deviation needs c1 >= 0 and eps > 0, got {self.prime_deviation}")
        _check_value_at(self)


@dataclass(frozen=True)
class AdditiveSpec:
    """An additive function given by its prime-power values.

    power_bound = (a, b) asserts |g(p^k)| <= a + b*k; a and b are
    finite with b >= 0 and a + b >= 0, so that the bound is >= 0 at
    every k >= 1 and never falls as k grows.  nonnegative marks that
    all values are real and >= 0 (true for omega and Omega), which
    tightens twisted growth bounds.  strip is the horizontal strip of
    twist parameters z on which the limiting-function analysis of
    exp-twists y^g (y = e^z) stays valid.  k_value(k) is the value
    g(p^k) takes at every prime power outside exceptions, as in
    LocalSeries (1 for omega, k for Omega, 0 for tables, whose entries
    are the exceptions), or None when g states no such value; k_value(1)
    is g's generic prime value.  It gives twists their rho and carries a
    local series through twists and psi'(0).  value_at(p, k) gives g's
    values where k_value is None; no built-in gives one.
    """

    name: str
    value_at: Optional[Callable[[int, int], complex]] = None
    strip: StripDomain = FULL_PLANE
    power_bound: Tuple[float, float] = (1.0, 0.0)
    integer_valued: bool = False
    nonnegative: bool = True
    exceptions: Mapping[Tuple[int, int], float] = field(default_factory=dict, hash=False)
    k_value: Optional[Callable[[int], float]] = None
    _by_power: Dict[int, Tuple[np.ndarray, np.ndarray]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        a, b = self.power_bound
        if not (math.isfinite(a) and math.isfinite(b) and b >= 0.0 and a + b >= 0.0):
            raise ValueError(f"power_bound (a, b) needs finite a and b with b >= 0 and a + b >= 0, "
                             f"got {self.power_bound}")
        _check_value_at(self)
        object.__setattr__(self, "_by_power", _by_power(self.exceptions))


# primes per value_at call where no series states a value
_PRIMES_PER_CALL = 4096


def _check_value_at(spec: Union[MultiplicativeSpec, AdditiveSpec]) -> None:
    stated = spec.series if isinstance(spec, MultiplicativeSpec) else spec.k_value
    if spec.value_at is None and stated is None:
        raise ValueError(f"{spec.name}: no series states its values at any prime, so it needs value_at")


def _stored(values: np.ndarray) -> np.ndarray:
    """complex128 values as float64 when every imaginary part is +0.0,
    the one double whose bits are all zero."""
    if np.count_nonzero(values.imag.view(np.int64)):
        return values
    return np.ascontiguousarray(values.real)


def _series_values(coeffs: Tuple, primes: np.ndarray) -> np.ndarray:
    """The series of coefficients coeffs at every prime of primes: a 0-d
    array for one coefficient, else the polynomial in u = 1/p by Horner's
    rule from 0 and the last coefficient, with the real and imaginary
    parts multiplied by u apart."""
    c = _stored(np.array(coeffs, dtype=np.complex128))
    if len(c) == 1:
        return c[0, ...]
    out = np.zeros(len(primes), dtype=c.dtype)
    parts, u = out.view(np.float64).reshape(len(primes), -1), 1.0 / primes[:, None]
    for a in c[::-1]:
        parts *= u
        out += a
    return _stored(out)


def prime_power_values(spec: Union[MultiplicativeSpec, AdditiveSpec], k: int, primes: np.ndarray) -> np.ndarray:
    """f(p^k), or g(p^k), at every prime p of the sorted int64 array
    primes: the one source of prime-power values for both engines.

    Where the spec has a series (or k_value), every prime takes the
    series' value, evaluated in numpy by _series_values, and then each
    entry of its exceptions listed at this k and at a prime among primes
    takes the listed value (the entries are grouped by k once, when the
    spec is built); value_at is not read.  Where it has none,
    value_at(p, k) is called once per _PRIMES_PER_CALL primes with p a
    numpy object array of Python ints, so that Python arithmetic on p
    acts elementwise and rounds as the scalar call does; it may return a
    scalar or an array of p's shape.  A value_at that raises TypeError
    or ValueError on an array (a table lookup, an `if` on p) is called
    one prime at a time instead.  Among the built-ins only `perturbed`
    and its twists are read that way.

    Returns a 0-d array where one coefficient holds and no entry is
    listed among primes at k, else an array of the primes' shape;
    float64 while every imaginary part is +0.0, else complex128.

    Raises:
        OverflowError: the spec's coefficients or value_at overflow; the
            message names the spec, the first listed prime and k.
    """
    if not len(primes):
        return np.empty(0)
    multiplicative = isinstance(spec, MultiplicativeSpec)
    series = spec.series if multiplicative else spec.k_value
    try:
        if series is None:
            return _called_values(spec.value_at, k, primes)
        stated = _series_values(series.coeffs(k) if multiplicative else (series(k),), primes)
    except OverflowError:
        raise OverflowError(f"{spec.name}: value at ({int(primes[0])},{k}) overflows float64") from None
    at_k = (series if multiplicative else spec)._by_power.get(k)
    if at_k is None:
        return stated
    at, values = at_k
    where = np.searchsorted(primes, at)
    inside = primes[np.minimum(where, len(primes) - 1)] == at
    if not inside.any():
        return stated
    listed = _stored(values[inside])
    out = np.full(len(primes), stated, dtype=np.result_type(stated, listed))
    out[where[inside]] = listed
    return out


def _called_values(value_at, k: int, primes: np.ndarray) -> np.ndarray:
    """value_at(p, k) at every listed prime, as prime_power_values states."""
    out = np.empty(len(primes))
    for start in range(0, len(primes), _PRIMES_PER_CALL):
        chunk = primes[start : start + _PRIMES_PER_CALL].astype(object)
        try:
            values = np.broadcast_to(np.asarray(value_at(chunk, k), dtype=np.complex128), chunk.shape)
        except (TypeError, ValueError):
            values = np.array([value_at(p, k) for p in chunk.tolist()], dtype=np.complex128)
        values = _stored(values)
        if np.iscomplexobj(values) and not np.iscomplexobj(out):
            out = out.astype(np.complex128)
        out[start : start + len(chunk)] = values
    return out


def _listed(spec: Union[MultiplicativeSpec, AdditiveSpec], k: int, primes: np.ndarray) -> list:
    """prime_power_values as one Python scalar per prime."""
    values = prime_power_values(spec, k, primes)
    return values.tolist() if values.ndim else [values.item()] * len(primes)


def _is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin with the bases _WITNESSES, which decides every n < 3.3e24."""
    if n < 2 or any(n % q == 0 for q in _WITNESSES):
        return n in _WITNESSES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, n)  # a prime n has a^d = 1, or a^(d 2^r) = -1 for some r < s
        if x not in (1, n - 1) and all((x := x * x % n) != n - 1 for _ in range(s - 1)):
            return False
    return True


OMEGA = AdditiveSpec(
    name="omega",
    integer_valued=True,
    k_value=lambda k: 1,
)

# exponential twists of Omega stay controlled only for Re z < ln(2)/2,
# i.e. |y| < sqrt(2); slope enforcement downstream uses this strip
BIG_OMEGA = AdditiveSpec(
    name="big_omega",
    strip=StripDomain(-math.inf, 0.5 * math.log(2.0)),
    power_bound=(0.0, 1.0),
    integer_valued=True,
    k_value=lambda k: k,
)


def twist(alpha: MultiplicativeSpec, y, g: AdditiveSpec) -> MultiplicativeSpec:
    """The twisted function n -> y^g(n) * alpha(n).

    The average value of the twist is y^c * alpha.rho, where c is the
    generic prime value g.k_value(1) (omega and Omega give y * rho,
    tables give rho); the primes g lists enter the prime deviation
    bound, as in tabulated_multiplicative.  The twist maps alpha's local
    series, if it has one, to a series: it multiplies coeffs(k) by
    y^k_value(k), and lists y^g(p^k) alpha(p^k) at every (p, k) that
    alpha's series or g lists, computed here once.  Only where alpha has
    no series does it give a value_at, which reads alpha's and g's
    values through prime_power_values.

    Raises:
        ValueError: y == 0, or g states no k_value.
        DomainError: y is real and <= 0 and g lists a non-integer value.
    """
    y = complex(y)
    if y == 0:
        raise ValueError("twist parameter y must be nonzero")
    if g.k_value is None:
        raise ValueError(f"additive spec {g.name!r} has no generic prime value, so its twist has no rho")

    def value_at(p, k):  # p is a sorted list or chunk of primes, or one prime
        primes = np.array(p, dtype=np.int64, ndmin=1)
        g_values = _listed(g, k, primes)
        powers = {v: cpow(y, v) for v in set(g_values)}
        values = [powers[v] * f for v, f in zip(g_values, _listed(alpha, k, primes))]
        return values if np.ndim(p) else values[0]

    a, b = g.power_bound
    m = max(1.0, abs(y)) if g.nonnegative else max(abs(y), 1.0 / abs(y))
    c1, eps = alpha.prime_deviation
    scale = cpow(y, g.k_value(1))
    at = np.array(sorted({p for p, _ in g.exceptions}), dtype=np.int64)
    deviations = zip(at.tolist(), _listed(g, 1, at), _listed(alpha, 1, at))
    c1 = c1 * m ** (a + b) + max((abs(cpow(y, v) - scale) * abs(f) * p**eps for p, v, f in deviations), default=0.0)
    series = None
    if alpha.series is not None:
        alpha_coeffs, k_value = alpha.series.coeffs, g.k_value

        def coeffs(k):
            y_k = cpow(y, k_value(k))
            return tuple(y_k * c for c in alpha_coeffs(k))

        listed = {}  # the primes alpha or g lists at each k, read in one call per k
        for p, k in sorted({*alpha.series.exceptions, *g.exceptions}):
            listed.setdefault(k, []).append(p)
        series = LocalSeries(coeffs, {(p, k): v for k, ps in listed.items() for p, v in zip(ps, value_at(ps, k))})
    return MultiplicativeSpec(
        name=f"twist({alpha.name}, y={y.real:g}{y.imag:+g}j, g={g.name})",
        value_at=value_at if series is None else None,
        rho=scale * complex(alpha.rho),
        c0=alpha.c0,
        growth=GrowthBound(C=alpha.growth.C * m**a, r=alpha.growth.r * m**b),
        prime_deviation=(c1, eps),
        series=series,
    )


def unit() -> MultiplicativeSpec:
    """f(n) = 1 for all n; rho = 1."""
    return MultiplicativeSpec(
        name="unit",
        rho=1.0,
        c0=0.25,
        growth=GrowthBound(1.0, 1.0),
        series=LocalSeries(lambda k: (1.0,)),
    )


def theta_omega(theta) -> MultiplicativeSpec:
    """f(n) = theta^omega(n), i.e. f(p^k) = theta; rho = theta."""
    theta = complex(theta)
    value = theta if theta.imag != 0.0 else theta.real

    return MultiplicativeSpec(
        name=f"theta_omega:{_format_param(value)}",
        rho=value,
        c0=0.25,
        growth=GrowthBound(abs(theta), 1.0),
        series=LocalSeries(lambda k: (value,)),
    )


def geometric_B(B: float, c0: Optional[float] = None) -> MultiplicativeSpec:
    """f(p^k) = B^k; rho = B.  Requires 0 < B < 2 so that every local
    factor converges at s = 1 (the factor at p has a pole at p^s = B).

    The default c0 is chosen small enough that B < 2^(1-c0) holds
    whenever possible; an explicit c0 is stored as given, even when it
    violates that inequality (the admissibility checker then reports
    the witness prime rather than this constructor failing).
    """
    B = float(B)
    if not (0.0 < B < 2.0):
        raise ValueError(f"geometric_B needs B in (0, 2), got {B}")
    if c0 is None:
        c0 = 0.25 if B <= 1.0 else min(0.25, 0.5 * (1.0 - math.log2(B)))
    return MultiplicativeSpec(
        name=f"geometric_B:{B:g}",
        rho=B,
        c0=c0,
        growth=GrowthBound(1.0, B),
        series=LocalSeries(lambda k: (B**k,)),
    )


def perturbed(a, eps: float) -> MultiplicativeSpec:
    """f(p^k) = a + p^(-eps k); rho = a."""
    a = complex(a)
    if a.imag == 0.0:
        a = a.real
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError(f"perturbed needs eps > 0, got {eps}")
    return MultiplicativeSpec(
        name=f"perturbed:a={_format_param(a)},eps={eps:g}",
        value_at=lambda p, k: a + p ** (-eps * k),
        rho=a,
        c0=min(0.25, eps / 2.0),
        growth=GrowthBound(abs(a) + 1.0, 1.0),
        prime_deviation=(1.0, eps),
    )


def _binomial_series_coeff(rho, k: int):
    """Coefficient of x^k in (1-x)^(-rho): C(rho+k-1, k)."""
    acc = rho / k if k else 1.0
    for j in range(1, k):
        acc *= (rho + j) / (k - j)
    return acc


def tau_rho(rho) -> MultiplicativeSpec:
    """Dirichlet coefficients of zeta(s)^rho.

    The prime-power value is the generalized binomial C(rho+k-1, k),
    the coefficient forced by the binomial series for (1-p^(-s))^(-rho).

    Raises:
        ValueError: rho is not finite, or a coefficient the growth
        envelope scans overflows float64.
    """
    rho = complex(rho)
    if rho.imag == 0.0:
        rho = rho.real
    if not cmath.isfinite(rho):
        raise ValueError(f"tau_rho needs a finite rho, got {_format_param(rho)}")

    # values are p-independent and grow polynomially in k, so any r > 1
    # gives a geometric envelope once C covers the early maximum
    r = 1.25
    k_scan = max(80, int(10.0 * (abs(rho) + 1.0)))
    C = 1.0
    for k in range(1, k_scan + 1):
        coeff = abs(_binomial_series_coeff(rho, k))
        if not math.isfinite(coeff):
            raise ValueError(f"tau_rho: rho = {_format_param(rho)} overflows C(rho+k-1, k) at k = {k}")
        try:
            C = max(C, coeff / r**k)
        except OverflowError:
            break  # r**k exceeds every double: no finite coefficient lifts C >= 1 from here on
    return MultiplicativeSpec(
        name=f"tau_rho:{_format_param(rho)}",
        rho=rho,
        c0=0.25,
        growth=GrowthBound(C, r),
        series=LocalSeries(lambda k: (_binomial_series_coeff(rho, k),)),
    )


def euler_phi_over_n() -> MultiplicativeSpec:
    """f(n) = phi(n)/n, i.e. f(p^k) = 1 - 1/p; rho = 1."""
    return MultiplicativeSpec(
        name="euler_phi_over_n",
        rho=1.0,
        c0=0.25,
        growth=GrowthBound(1.0, 1.0),
        prime_deviation=(1.0, 1.0),
        series=LocalSeries(lambda k: (1.0, -1.0)),
    )


def _table_key(p: int, k: int, v) -> Tuple[int, int]:
    """(p, k) as ints, once p is a prime below 2^53 (exact in float64, as
    1.0/p and the tables' int64 need), k >= 1 and the value v is finite."""
    if p >= 2**53:
        raise ValueError(f"table entry {p}^{k}: tabled primes must lie below 2^53")
    if k < 1 or not _is_prime(operator.index(p)):
        raise ValueError(f"table key ({p},{k}) is not a (prime, k>=1) pair")
    if not cmath.isfinite(complex(v)):
        raise ValueError(f"table entry {p}^{k} = {v} is not finite")
    return int(p), int(k)


def tabulated_multiplicative(
    entries: Dict[Tuple[int, int], complex],
    default=1.0,
    *,
    c0: float = 0.25,
    name: str = "tabulated",
) -> MultiplicativeSpec:
    """Explicit (p, k) -> value table; unlisted prime powers take default.

    default must be a constant here (callable defaults would defeat the
    automatic growth and tail metadata).  rho is default, the value f(p)
    takes at every prime outside the table, and the growth envelope is
    C = max |value|, r = 1.  default and the values must be finite.
    """
    if not cmath.isfinite(complex(default)):
        raise ValueError(f"default = {default} is not finite")
    default = complex(default)
    if default.imag == 0.0:
        default = default.real
    table = {_table_key(p, k, v): complex(v) for (p, k), v in entries.items()}
    cap = max([abs(default)] + [abs(v) for v in table.values()])
    dev = max((abs(v - default) * p for (p, k), v in table.items() if k == 1), default=0.0)
    return MultiplicativeSpec(
        name=name,
        rho=default,
        c0=c0,
        growth=GrowthBound(max(cap, 1e-300), 1.0),
        prime_deviation=(dev, 1.0),
        series=LocalSeries(lambda k: (default,), table),
    )


def tabulated_additive(
    entries: Dict[Tuple[int, int], float],
    name: str = "table",
) -> AdditiveSpec:
    """Explicit (p, k) -> value additive table; unlisted values are 0.

    It states g(p^k) = 0 at every prime power outside the table, whose
    entries are its exceptions.
    """
    table = {_table_key(p, k, v): float(v) for (p, k), v in entries.items()}
    values = list(table.values())
    cap = max((abs(v) for v in values), default=0.0)
    return AdditiveSpec(
        name=name,
        power_bound=(cap, 0.0),
        integer_valued=all(v == int(v) for v in values),
        nonnegative=all(v >= 0.0 for v in values),
        exceptions=table,
        k_value=lambda k: 0.0,
    )


def _format_param(v) -> str:
    if isinstance(v, complex):
        return f"{v.real:g}{v.imag:+g}j"
    return f"{v:g}"


# ---------------------------------------------------------------------------
# textual spec grammar for the CLI
#
#   spec     := name [":" param ("," param)*]
#   param    := number | key "=" number | int "^" int "=" number
#
# _GRAMMAR holds one row per name: the constructor, the number of
# positional numbers it takes (0 or 1), the keys it accepts, the keys it
# requires and an example.  The keys are the constructor's keyword
# parameters, and tabulated alone takes the prime-power entries, as its
# first argument.
# ---------------------------------------------------------------------------

_GRAMMAR = {
    "unit": (unit, 0, (), (), "unit"),
    "theta_omega": (theta_omega, 1, (), (), "theta_omega:2.5"),
    "geometric_B": (geometric_B, 1, ("c0",), (), "geometric_B:1.5"),
    "perturbed": (perturbed, 0, ("a", "eps"), ("a", "eps"), "perturbed:a=1,eps=0.5"),
    "tau_rho": (tau_rho, 1, (), (), "tau_rho:2"),
    "euler_phi_over_n": (euler_phi_over_n, 0, (), (), "euler_phi_over_n"),
    "tabulated": (tabulated_multiplicative, 0, ("c0", "default"), (), "tabulated:default=1,2^1=0.5,2^2=0.25"),
}


def _grammar_error(text: str, column: int, message: str) -> SpecGrammarError:
    return SpecGrammarError(f"bad spec {text!r} at column {column}: {message}")


def _parse_number(text: str, token: str, column: int) -> float:
    try:
        return float(token)
    except ValueError:
        raise _grammar_error(text, column, f"expected a number, got {token!r}") from None


def _split_params(rest: str, offset: int):
    """Yield (token, column) for comma-separated params."""
    pos = 0
    for chunk in rest.split(","):
        yield chunk.strip(), offset + pos + 1
        pos += len(chunk) + 1


def parse_multiplicative(text: str) -> MultiplicativeSpec:
    """Parse the CLI spec grammar into a MultiplicativeSpec, by the row
    of _GRAMMAR its name picks.

    Raises:
        SpecGrammarError: unknown name, malformed parameters or values the
        spec's constructor rejects, with the offending column in the message.
    """
    body = text.strip()
    name, sep, rest = body.partition(":")
    name = name.strip()
    if name not in _GRAMMAR:
        known = ", ".join(_GRAMMAR)
        raise _grammar_error(text, 1, f"unknown spec name {name!r}; known names: {known}")
    make, arity, allowed_keys, required_keys, example = _GRAMMAR[name]
    positional = []
    keywords = {}
    entries = {}
    if sep:
        if not rest.strip():
            raise _grammar_error(text, len(name) + 2, "empty parameter list after ':'")
        for token, column in _split_params(rest, len(name) + 1):
            if not token:
                raise _grammar_error(text, column, "empty parameter")
            if "=" in token:
                key, _, val = token.partition("=")
                key = key.strip()
                number = _parse_number(text, val.strip(), column)
                if "^" in key:
                    p_str, _, k_str = key.partition("^")
                    try:
                        p, k = int(p_str), int(k_str)
                    except ValueError:
                        raise _grammar_error(text, column, f"bad prime-power key {key!r}") from None
                    if (p, k) in entries:
                        raise _grammar_error(text, column, f"duplicate key {key!r}")
                    entries[(p, k)] = number
                else:
                    if key in keywords:
                        raise _grammar_error(text, column, f"duplicate key {key!r}")
                    keywords[key] = number
            else:
                positional.append((_parse_number(text, token, column), column))

    for key in keywords:
        if key not in allowed_keys:
            raise _grammar_error(text, 1, f"unexpected key {key!r} for {name}")
    if len(positional) > arity:
        raise _grammar_error(text, positional[arity][1], f"too many parameters for {name}")
    if entries and name != "tabulated":
        raise _grammar_error(text, 1, f"prime-power entries only apply to 'tabulated', not {name}")
    if len(positional) < arity:
        raise _grammar_error(text, 1, f"{name} needs exactly one parameter, e.g. {example}")
    if any(key not in keywords for key in required_keys):
        needed = " and ".join(f"{key}=..." for key in required_keys)
        raise _grammar_error(text, 1, f"{name} needs {needed}, e.g. {example}")
    numbers = ([entries] if name == "tabulated" else []) + [number for number, _ in positional]
    try:
        return make(*numbers, **keywords)
    except ValueError as exc:
        raise _grammar_error(text, positional[0][1] if positional else 1, str(exc)) from None


def parse_additive(text: str) -> AdditiveSpec:
    """Parse an additive-function name: omega | big_omega | table:<file>.

    Table files hold whitespace-separated "p k value" rows, at most one
    per (p, k); blank lines and '#' comments are ignored.
    """
    body = text.strip()
    if body == "omega":
        return OMEGA
    if body == "big_omega":
        return BIG_OMEGA
    name, sep, path = body.partition(":")
    if name == "table" and sep:
        entries, lines = {}, {}  # each row's value and line
        try:
            with open(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    parts = line.split()
                    try:
                        p, k, v = parts
                        p, k, v = int(p), int(k), float(v)
                    except ValueError:
                        raise SpecGrammarError(f"{path}:{lineno}: expected 'p k value', got {raw.strip()!r}") from None
                    if not math.isfinite(v):
                        raise SpecGrammarError(f"{path}:{lineno}: value {parts[2]} is not finite")
                    if (p, k) in lines:
                        raise SpecGrammarError(f"{path}:{lineno}: repeats the row for p = {p}, k = {k} "
                                               f"of line {lines[(p, k)]}")
                    entries[(p, k)], lines[(p, k)] = v, lineno
        except OSError as exc:
            raise SpecGrammarError(f"cannot read additive table {path!r}: {exc}") from None
        try:
            return tabulated_additive(entries, name=f"table:{path}")
        except ValueError as exc:
            raise SpecGrammarError(f"bad additive table {path!r}: {exc}") from None
    raise SpecGrammarError(
        f"unknown additive function {text!r}; expected omega, big_omega, or table:<file>"
    )
