"""Multiplicative and additive function specifications.

A multiplicative function is pinned down by its values on prime powers
f(p^k) together with metadata the numeric engines need: the average
value rho over primes, the exponent c0 entering the admissibility
window, and a geometric growth envelope |f(p^k)| <= C * r^k that makes
every series truncation computable.  Additive functions carry the
analogous data for exponential twists y^g.

Every built-in multiplicative spec except `perturbed` also declares its
local series: f(p^k) as a short polynomial in 1/p whose coefficients do
not depend on p.  The Euler products use it to close the product over
the primes above their cutoff in closed form.

Built-in families:
    unit                 f(n) = 1
    theta_omega(theta)   f(n) = theta^omega(n)
    geometric_B(B)       f(p^k) = B^k
    perturbed(a, eps)    f(p^k) = a + coeff(p,k), |coeff| <= p^(-eps k)
    tau_rho(rho)         Dirichlet coefficients of zeta^rho
    euler_phi_over_n     f(p^k) = 1 - 1/p   (phi(n)/n)
plus explicit (p,k) -> value tables for both kinds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import SpecGrammarError
from .special import cpow

_DEVIATION_NONE = (0.0, 1.0)


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


@dataclass(frozen=True)
class LocalSeries:
    """f(p^k) = sum_i coeffs(k)[i] p^(-i) at every prime p outside
    exceptional_primes, with coefficients that do not depend on p.

    coeffs(k) returns a short tuple for each k >= 1; coeffs is compared
    by identity, like value_at.
    """

    coeffs: Callable[[int], Tuple[complex, ...]]
    exceptional_primes: Tuple[int, ...] = ()


@dataclass(frozen=True)
class MultiplicativeSpec:
    """A multiplicative function given by its prime-power values.

    value_at(p, k) must be pure; instances are immutable and safe to
    share across threads, and Euler products memoise on them.  The
    Euler-product kernel calls value_at once per power k with p a numpy
    object array of Python int primes, so that Python arithmetic on p
    acts elementwise and rounds as the scalar call does; it may return
    a scalar or an array of p's shape.  A value_at that raises
    TypeError or ValueError on an array (a table lookup, an `if` on p)
    is evaluated one prime at a time instead.

    prime_coeff is the exact constant value of f(p) at primes when one
    exists (it does for every built-in), and prime_deviation = (c1, eps)
    bounds |f(p) - prime_coeff| <= c1 * p^(-eps); both feed
    Euler-product tail estimates.

    series is the optional LocalSeries of the same values, declared by
    every built-in but `perturbed`.  It must agree with value_at; the
    Euler products use it only for the primes above their cutoff, and
    only when no exceptional prime lies there.  A spec without one keeps
    the plain truncated product.
    """

    name: str
    value_at: Callable[[int, int], complex]
    rho: complex
    c0: float
    growth: GrowthBound
    prime_coeff: complex = None  # defaults to rho
    prime_deviation: Tuple[float, float] = _DEVIATION_NONE
    series: Optional[LocalSeries] = None

    def __post_init__(self):
        if not (0.0 < self.c0 < 1.0):
            raise ValueError(f"c0 must lie in (0,1), got {self.c0}")
        if self.prime_coeff is None:
            object.__setattr__(self, "prime_coeff", complex(self.rho))
        c1, eps = self.prime_deviation
        if c1 < 0.0 or eps <= 0.0:
            raise ValueError(f"prime_deviation needs c1 >= 0 and eps > 0, got {self.prime_deviation}")


@dataclass(frozen=True)
class AdditiveSpec:
    """An additive function given by its prime-power values.

    power_bound = (a, b) asserts |g(p^k)| <= a + b*k; a and b are
    finite with b >= 0 and a + b >= 0, so that the bound is >= 0 at
    every k >= 1 and never falls as k grows.  nonnegative marks that
    all values are real and >= 0 (true for omega and Omega), which
    tightens twisted growth bounds.  strip is the horizontal strip of
    twist parameters z on which the limiting-function analysis of
    exp-twists y^g (y = e^z) stays valid.  prime_value is the generic
    value g(p) taken at every prime outside the finite set
    exceptional_primes (1 for omega and Omega, 0 for tables), or None
    when g declares no such value.  k_value(k) is g(p^k) when that value
    is the same at every prime (1 for omega, k for Omega), else None; it
    carries a local series through twists and psi'(0).
    """

    name: str
    value_at: Callable[[int, int], complex]
    strip: StripDomain = FULL_PLANE
    power_bound: Tuple[float, float] = (1.0, 0.0)
    integer_valued: bool = False
    nonnegative: bool = True
    prime_value: Optional[float] = None
    exceptional_primes: Tuple[int, ...] = ()
    k_value: Optional[Callable[[int], int]] = None

    def __post_init__(self):
        a, b = self.power_bound
        if not (math.isfinite(a) and math.isfinite(b) and b >= 0.0 and a + b >= 0.0):
            raise ValueError(f"power_bound (a, b) needs finite a and b with b >= 0 and a + b >= 0, "
                             f"got {self.power_bound}")


OMEGA = AdditiveSpec(
    name="omega",
    value_at=lambda p, k: 1,
    strip=FULL_PLANE,
    power_bound=(1.0, 0.0),
    integer_valued=True,
    nonnegative=True,
    prime_value=1,
    k_value=lambda k: 1,
)

# exponential twists of Omega stay controlled only for Re z < ln(2)/2,
# i.e. |y| < sqrt(2); slope enforcement downstream uses this strip
BIG_OMEGA = AdditiveSpec(
    name="big_omega",
    value_at=lambda p, k: k,
    strip=StripDomain(-math.inf, 0.5 * math.log(2.0)),
    power_bound=(0.0, 1.0),
    integer_valued=True,
    nonnegative=True,
    prime_value=1,
    k_value=lambda k: k,
)


def _prime_power_values(value_at, primes: np.ndarray, k: int) -> np.ndarray:
    """value_at(p, k) over an object array of primes, as complex128.

    value_at may return a scalar or an array of the primes' shape; one
    that raises TypeError or ValueError on an array is evaluated one
    prime at a time.
    """
    try:
        return np.broadcast_to(np.asarray(value_at(primes, k), dtype=np.complex128), primes.shape)
    except (TypeError, ValueError):
        return np.array([value_at(p, k) for p in primes.tolist()], dtype=np.complex128)


def twist(alpha: MultiplicativeSpec, y, g: AdditiveSpec, rho=None) -> MultiplicativeSpec:
    """The twisted function n -> y^g(n) * alpha(n).

    The average value of the twist is y^c * alpha.rho, where c is the
    generic prime value g.prime_value (omega and Omega give y * rho,
    tables give rho); the finitely many exceptional primes of g enter
    the prime deviation bound, as in tabulated_multiplicative.  For a g
    without a generic prime value the caller must pass the twisted
    average explicitly.  A twist by a g with a k_value maps alpha's
    local series to a series: it multiplies coeffs(k) by y^k_value(k).

    Raises:
        ValueError: y == 0, or rho omitted for a g without prime_value.
    """
    y = complex(y)
    if y == 0:
        raise ValueError("twist parameter y must be nonzero")
    alpha_value = alpha.value_at
    g_value = g.value_at

    def value_at(p, k):
        return cpow(y, g_value(p, k)) * alpha_value(p, k)

    a, b = g.power_bound
    m = max(1.0, abs(y)) if g.nonnegative else max(abs(y), 1.0 / abs(y))
    c1, eps = alpha.prime_deviation
    c1 = c1 * m ** (a + b)
    if rho is None:
        if g.prime_value is None:
            raise ValueError(
                f"additive spec {g.name!r} has no generic prime value; pass the twisted rho explicitly"
            )
        scale = cpow(y, g.prime_value)
        rho = scale * complex(alpha.rho)
        prime_coeff = scale * complex(alpha.prime_coeff)
        c1 += max(
            (abs(cpow(y, g_value(p, 1)) - scale) * abs(alpha_value(p, 1)) * p**eps
             for p in g.exceptional_primes),
            default=0.0,
        )
    else:
        rho = complex(rho)
        prime_coeff = rho
    series = None
    if alpha.series is not None and g.k_value is not None:
        alpha_coeffs, k_value = alpha.series.coeffs, g.k_value

        def coeffs(k):
            scale = cpow(y, k_value(k))
            return tuple(scale * c for c in alpha_coeffs(k))

        series = LocalSeries(coeffs, alpha.series.exceptional_primes)
    return MultiplicativeSpec(
        name=f"twist({alpha.name}, y={y.real:g}{y.imag:+g}j, g={g.name})",
        value_at=value_at,
        rho=rho,
        c0=alpha.c0,
        growth=GrowthBound(C=alpha.growth.C * m**a, r=alpha.growth.r * m**b),
        prime_coeff=prime_coeff,
        prime_deviation=(c1, eps),
        series=series,
    )


def _constant_series(coeffs: Tuple, exceptional_primes: Tuple[int, ...] = ()) -> LocalSeries:
    """The series whose coefficients are the same for every k."""
    return LocalSeries(lambda k: coeffs, exceptional_primes)


def unit() -> MultiplicativeSpec:
    """f(n) = 1 for all n; rho = 1."""
    return MultiplicativeSpec(
        name="unit",
        value_at=lambda p, k: 1.0,
        rho=1.0,
        c0=0.25,
        growth=GrowthBound(1.0, 1.0),
        series=_constant_series((1.0,)),
    )


def theta_omega(theta) -> MultiplicativeSpec:
    """f(n) = theta^omega(n), i.e. f(p^k) = theta; rho = theta."""
    theta = complex(theta)
    value = theta if theta.imag != 0.0 else theta.real

    return MultiplicativeSpec(
        name=f"theta_omega:{_format_param(value)}",
        value_at=lambda p, k: value,
        rho=value,
        c0=0.25,
        growth=GrowthBound(abs(theta), 1.0),
        series=_constant_series((value,)),
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
        value_at=lambda p, k: B**k,
        rho=B,
        c0=c0,
        growth=GrowthBound(1.0, B),
        series=LocalSeries(lambda k: (B**k,)),
    )


def perturbed(a, eps: float, coeff: Optional[Callable[[int, int], complex]] = None) -> MultiplicativeSpec:
    """f(p^k) = a + coeff(p, k) with |coeff(p, k)| <= p^(-eps k); rho = a.

    The default perturbation is coeff(p, k) = p^(-eps k) itself.  A
    custom coeff must respect the bound; it is trusted here and probed
    empirically by the admissibility checker.
    """
    a = complex(a)
    if a.imag == 0.0:
        a = a.real
    eps = float(eps)
    if eps <= 0.0:
        raise ValueError(f"perturbed needs eps > 0, got {eps}")
    if coeff is None:
        coeff = lambda p, k: p ** (-eps * k)
    return MultiplicativeSpec(
        name=f"perturbed:a={_format_param(a)},eps={eps:g}",
        value_at=lambda p, k: a + coeff(p, k),
        rho=a,
        c0=min(0.25, eps / 2.0),
        growth=GrowthBound(abs(a) + 1.0, 1.0),
        prime_coeff=a,
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
    """
    rho = complex(rho)
    if rho.imag == 0.0:
        rho = rho.real

    def value_at(p, k):
        return _binomial_series_coeff(rho, k)

    # values are p-independent and grow polynomially in k, so any r > 1
    # gives a geometric envelope once C covers the early maximum
    r = 1.25
    k_scan = max(80, int(10.0 * (abs(rho) + 1.0)))
    C = 1.0
    for k in range(1, k_scan + 1):
        C = max(C, abs(_binomial_series_coeff(rho, k)) / r**k)
    return MultiplicativeSpec(
        name=f"tau_rho:{_format_param(rho)}",
        value_at=value_at,
        rho=rho,
        c0=0.25,
        growth=GrowthBound(C, r),
        series=LocalSeries(lambda k: (_binomial_series_coeff(rho, k),)),
    )


def euler_phi_over_n() -> MultiplicativeSpec:
    """f(n) = phi(n)/n, i.e. f(p^k) = 1 - 1/p; rho = 1."""
    return MultiplicativeSpec(
        name="euler_phi_over_n",
        value_at=lambda p, k: 1.0 - 1.0 / p,
        rho=1.0,
        c0=0.25,
        growth=GrowthBound(1.0, 1.0),
        prime_coeff=1.0,
        prime_deviation=(1.0, 1.0),
        series=_constant_series((1.0, -1.0)),
    )


def _is_prime_small(p: int) -> bool:
    if p < 2:
        return False
    for q in range(2, math.isqrt(p) + 1):
        if p % q == 0:
            return False
    return True


def tabulated_multiplicative(
    entries: Dict[Tuple[int, int], complex],
    default=1.0,
    *,
    rho=None,
    c0: float = 0.25,
    growth: Optional[GrowthBound] = None,
    name: str = "tabulated",
) -> MultiplicativeSpec:
    """Explicit (p, k) -> value table; unlisted prime powers take default.

    default must be a constant here (callable defaults would defeat the
    automatic growth and tail metadata).  rho defaults to the default
    value itself, which is f(p) at every prime outside the table.
    """
    default = complex(default)
    if default.imag == 0.0:
        default = default.real
    table = {}
    for (p, k), v in entries.items():
        if k < 1 or not _is_prime_small(p):
            raise ValueError(f"table key ({p},{k}) is not a (prime, k>=1) pair")
        table[(int(p), int(k))] = complex(v)
    if rho is None:
        rho = default
    if growth is None:
        cap = max([abs(default)] + [abs(v) for v in table.values()])
        growth = GrowthBound(max(cap, 1e-300), 1.0)
    dev = 0.0
    for (p, k), v in table.items():
        if k == 1:
            dev = max(dev, abs(v - default) * p)
    return MultiplicativeSpec(
        name=name,
        value_at=lambda p, k: table.get((p, k), default),
        rho=rho,
        c0=c0,
        growth=growth,
        prime_coeff=default,
        prime_deviation=(dev, 1.0),
        series=_constant_series((default,), tuple(sorted({p for p, _ in table}))),
    )


def tabulated_additive(
    entries: Dict[Tuple[int, int], float],
    name: str = "table",
) -> AdditiveSpec:
    """Explicit (p, k) -> value additive table; unlisted values are 0.

    Its generic prime value is therefore 0, and the primes p with a
    nonzero entry at (p, 1) are its exceptional primes.
    """
    table = {}
    for (p, k), v in entries.items():
        if k < 1 or not _is_prime_small(p):
            raise ValueError(f"table key ({p},{k}) is not a (prime, k>=1) pair")
        table[(int(p), int(k))] = float(v)
    values = list(table.values())
    cap = max((abs(v) for v in values), default=0.0)
    return AdditiveSpec(
        name=name,
        value_at=lambda p, k: table.get((p, k), 0.0),
        strip=FULL_PLANE,
        power_bound=(cap, 0.0),
        integer_valued=all(v == int(v) for v in values),
        nonnegative=all(v >= 0.0 for v in values),
        prime_value=0.0,
        exceptional_primes=tuple(sorted(p for (p, k), v in table.items() if k == 1 and v != 0.0)),
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
# e.g.  "unit", "theta_omega:2.5", "geometric_B:1.5,c0=0.2",
#       "perturbed:a=1,eps=0.5", "tau_rho:3",
#       "tabulated:rho=1,default=1,2^1=0.5,2^2=0.25"
# ---------------------------------------------------------------------------

_SPEC_NAMES = (
    "unit",
    "theta_omega",
    "geometric_B",
    "perturbed",
    "tau_rho",
    "euler_phi_over_n",
    "tabulated",
)


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
    """Parse the CLI spec grammar into a MultiplicativeSpec.

    Raises:
        SpecGrammarError: unknown name or malformed parameters, with the
        offending column in the message.
    """
    body = text.strip()
    name, sep, rest = body.partition(":")
    name = name.strip()
    if name not in _SPEC_NAMES:
        known = ", ".join(_SPEC_NAMES)
        raise _grammar_error(text, 1, f"unknown spec name {name!r}; known names: {known}")
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
                    entries[(p, k)] = number
                else:
                    if key in keywords:
                        raise _grammar_error(text, column, f"duplicate key {key!r}")
                    keywords[key] = number
            else:
                positional.append((_parse_number(text, token, column), column))

    def no_extras(allowed_keys=(), n_positional=0):
        for key in keywords:
            if key not in allowed_keys:
                raise _grammar_error(text, 1, f"unexpected key {key!r} for {name}")
        if len(positional) > n_positional:
            raise _grammar_error(text, positional[n_positional][1], f"too many parameters for {name}")
        if entries and name != "tabulated":
            raise _grammar_error(text, 1, f"prime-power entries only apply to 'tabulated', not {name}")

    if name == "unit":
        no_extras()
        if positional:
            raise _grammar_error(text, positional[0][1], "unit takes no parameters")
        return unit()
    if name == "euler_phi_over_n":
        no_extras()
        if positional:
            raise _grammar_error(text, positional[0][1], "euler_phi_over_n takes no parameters")
        return euler_phi_over_n()
    if name == "theta_omega":
        no_extras(n_positional=1)
        if len(positional) != 1:
            raise _grammar_error(text, 1, "theta_omega needs exactly one parameter, e.g. theta_omega:2.5")
        return theta_omega(positional[0][0])
    if name == "tau_rho":
        no_extras(n_positional=1)
        if len(positional) != 1:
            raise _grammar_error(text, 1, "tau_rho needs exactly one parameter, e.g. tau_rho:2")
        return tau_rho(positional[0][0])
    if name == "geometric_B":
        no_extras(allowed_keys=("c0",), n_positional=1)
        if len(positional) != 1:
            raise _grammar_error(text, 1, "geometric_B needs one parameter, e.g. geometric_B:1.5")
        try:
            return geometric_B(positional[0][0], c0=keywords.get("c0"))
        except ValueError as exc:
            raise _grammar_error(text, positional[0][1], str(exc)) from None
    if name == "perturbed":
        no_extras(allowed_keys=("a", "eps"))
        if positional:
            raise _grammar_error(text, positional[0][1], "perturbed takes key=value parameters only")
        if "a" not in keywords or "eps" not in keywords:
            raise _grammar_error(text, 1, "perturbed needs a=... and eps=..., e.g. perturbed:a=1,eps=0.5")
        try:
            return perturbed(keywords["a"], keywords["eps"])
        except ValueError as exc:
            raise _grammar_error(text, 1, str(exc)) from None
    # tabulated
    no_extras(allowed_keys=("rho", "c0", "default", "C", "r"))
    if positional:
        raise _grammar_error(text, positional[0][1], "tabulated takes key=value parameters only")
    growth = None
    if ("C" in keywords) != ("r" in keywords):
        raise _grammar_error(text, 1, "tabulated growth needs both C= and r=")
    if "C" in keywords:
        growth = GrowthBound(keywords["C"], keywords["r"])
    try:
        return tabulated_multiplicative(
            entries,
            default=keywords.get("default", 1.0),
            rho=keywords.get("rho"),
            c0=keywords.get("c0", 0.25),
            growth=growth,
        )
    except ValueError as exc:
        raise _grammar_error(text, 1, str(exc)) from None


def parse_additive(text: str) -> AdditiveSpec:
    """Parse an additive-function name: omega | big_omega | table:<file>.

    Table files hold whitespace-separated "p k value" rows; blank lines
    and '#' comments are ignored.
    """
    body = text.strip()
    if body == "omega":
        return OMEGA
    if body == "big_omega":
        return BIG_OMEGA
    name, sep, path = body.partition(":")
    if name == "table" and sep:
        entries = {}
        try:
            with open(path) as fh:
                for lineno, raw in enumerate(fh, start=1):
                    line = raw.split("#", 1)[0].strip()
                    if not line:
                        continue
                    parts = line.split()
                    if len(parts) != 3:
                        raise SpecGrammarError(
                            f"{path}:{lineno}: expected 'p k value', got {raw.strip()!r}"
                        )
                    try:
                        p, k, v = int(parts[0]), int(parts[1]), float(parts[2])
                    except ValueError:
                        raise SpecGrammarError(
                            f"{path}:{lineno}: expected 'p k value', got {raw.strip()!r}"
                        ) from None
                    entries[(p, k)] = v
        except OSError as exc:
            raise SpecGrammarError(f"cannot read additive table {path!r}: {exc}") from None
        try:
            return tabulated_additive(entries, name=f"table:{path}")
        except ValueError as exc:
            raise SpecGrammarError(f"bad additive table {path!r}: {exc}") from None
    raise SpecGrammarError(
        f"unknown additive function {text!r}; expected omega, big_omega, or table:<file>"
    )
