"""Complex special functions backing the Euler-product engine.

Provides Gamma and its logarithmic derivative digamma on the complex
plane (Lanczos approximation and asymptotic series, each with
reflection), the Riemann zeta function restricted to Re s > 1
(Euler-Maclaurin summation, also as zeta(s) - 1), and principal-branch power/log helpers
tuned for factors close to 1.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError, PoleError

# Lanczos coefficients, g = 7, 9 terms: relative error about 1e-13 at
# worst on Re z >= 0.5 (see gamma), which reflection extends to the rest
# of the plane.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)

# Bernoulli numbers B_2 .. B_24 are 1/6, -1/30, 1/42, -1/30, 5/66,
# -691/2730, 7/6, -3617/510, 43867/798, -174611/330, 854513/138 and
# -236364091/2730.  B_{2j}/(2j)! gives the Euler-Maclaurin correction
# terms: twelve terms with N >= 24 leave a remainder far below
# double-precision noise for |s| <= 60.  B_{2j}/(2j) gives the asymptotic
# series of digamma, whose twelfth term is below 4e-21 once |z| >= 10.
# Both are written as the doubles nearest those rationals, so importing
# this module loads neither fractions nor decimal.
_EM_COEFFS = (
    0.08333333333333333, -0.001388888888888889, 3.306878306878307e-05,
    -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
    1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
    -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19,
)
_DIGAMMA_COEFFS = (
    0.08333333333333333, -0.008333333333333333, 0.003968253968253968,
    -0.004166666666666667, 0.007575757575757576, -0.021092796092796094,
    0.08333333333333333, -0.4432598039215686, 3.0539543302701198,
    -26.456212121212122, 281.46014492753625, -3607.5105463980462,
)
_DIGAMMA_ASYMPTOTIC_RE = 10.0


def _as_finite_complex(value, label: str) -> complex:
    z = complex(value)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"{label} must have finite components, got {value!r}")
    return z


def _is_nonpositive_integer(z: complex) -> bool:
    return z.imag == 0.0 and z.real <= 0.0 and z.real == math.floor(z.real)


def gamma(z) -> complex:
    """Gamma function for complex z.

    Args:
        z: any finite complex number away from the poles at 0, -1, -2, ...

    Returns:
        Gamma(z) as a complex number.  Measured against mpmath, the
        relative error on Re z >= 1/2 is at most 32 ulps of
        1 + |z| ln(2 + |z|) (1.3e-13 near 0.5 + 16i, 4e-14 on the real
        axis up to 45).  Below 1/2 the reflection adds the error of
        sin(pi z), about 2 ulps of |z| over the distance to the nearest
        pole -1, -2, ... (5.7e-9 at z = -0.99999999).  euler._gamma_error
        bounds both.

    Raises:
        PoleError: z is a nonpositive integer.
        OverflowError: Gamma(z) is not finite in float64 (real z above
            about 171.62).
    """
    z = _as_finite_complex(z, "z")
    if _is_nonpositive_integer(z):
        raise PoleError(f"gamma pole at z = {z.real:g}")
    if z.real < 0.5:
        # reflection: Gamma(z) Gamma(1-z) = pi / sin(pi z)
        return math.pi / (cmath.sin(math.pi * z) * gamma(1.0 - z))
    w = z - 1.0
    acc = complex(_LANCZOS_COEFFS[0])
    for i, c in enumerate(_LANCZOS_COEFFS[1:], start=1):
        acc += c / (w + i)
    t = w + _LANCZOS_G + 0.5
    value = _SQRT_TWO_PI * cmath.exp((w + 0.5) * cmath.log(t) - t) * acc
    if not cmath.isfinite(value):
        raise OverflowError(f"gamma({z:g}) overflows float64")
    return value


def digamma(z) -> complex:
    """Digamma function Gamma'(z)/Gamma(z) for complex z.

    Re z < 0.5 goes through the reflection
    digamma(z) = digamma(1 - z) - pi cot(pi z), with pi z reduced by the
    nearest integer first so that the cotangent keeps full relative
    accuracy next to a pole.  Otherwise the recurrence
    digamma(z) = digamma(z + 1) - 1/z lifts Re z to at least 10, where
    digamma(z) = log z - 1/(2z) - sum_j B_{2j}/(2j z^{2j}).

    Returns:
        digamma(z); relative error near 1e-15 away from the zeros of
        digamma.

    Raises:
        PoleError: z is a nonpositive integer.
    """
    z = _as_finite_complex(z, "z")
    if _is_nonpositive_integer(z):
        raise PoleError(f"digamma pole at z = {z.real:g}")
    if z.real < 0.5:
        frac = z - round(z.real)  # exact: a fractional part is a double
        return digamma(1.0 - z) - math.pi / cmath.tan(math.pi * frac)
    shift = 0j
    while z.real < _DIGAMMA_ASYMPTOTIC_RE:
        shift -= 1.0 / z
        z += 1.0
    inv_z2 = 1.0 / (z * z)
    series = 0j
    for coeff in reversed(_DIGAMMA_COEFFS):
        series = (series + coeff) * inv_z2
    return shift + cmath.log(z) - 0.5 / z - series


def zeta(s) -> complex:
    """Riemann zeta via Euler-Maclaurin summation, restricted to Re s > 1.

    Args:
        s: complex with Re s > 1 (the absolute-convergence half-plane;
           nothing in this package needs the continuation).

    Returns:
        zeta(s) with relative error below 1e-12 for |s| <= 60.

    Raises:
        DomainError: Re s <= 1.
    """
    return _euler_maclaurin(s, 1)


def zeta_minus_one(s) -> complex:
    """zeta(s) - 1 = sum_{n>=2} n^{-s}, to full relative accuracy.

    The same summation as zeta without its leading 1, so it keeps its
    relative accuracy when zeta(s) - 1 is far below an ulp of 1, as it
    is for large Re s.

    Raises:
        DomainError: Re s <= 1.
    """
    return _euler_maclaurin(s, 2)


def _euler_maclaurin(s, start: int) -> complex:
    """sum_{n>=start} n^{-s}: terms below N, then the Euler-Maclaurin tail."""
    s = _as_finite_complex(s, "s")
    if s.real <= 1.0:
        raise DomainError(f"zeta implemented only for Re s > 1, got Re s = {s.real:g}")
    n_cut = max(24, int(1.3 * abs(s)) + 8)
    acc = 0j
    for n in range(start, n_cut):
        acc += complex(n) ** (-s)
    acc += complex(n_cut) ** (1.0 - s) / (s - 1.0)
    n_pow = complex(n_cut) ** (-s)
    acc += 0.5 * n_pow
    # correction terms: B_{2j}/(2j)! * s(s+1)...(s+2j-2) * N^{1-s-2j}
    rising = s
    scale = n_pow / n_cut  # N^{-s-1}
    inv_n2 = 1.0 / (n_cut * n_cut)
    for j, coeff in enumerate(_EM_COEFFS, start=1):
        if j > 1:
            rising *= (s + (2 * j - 3)) * (s + (2 * j - 2))
            scale *= inv_n2
        acc += coeff * rising * scale
    return acc


def _ipow(base: complex, k: int) -> complex:
    if k < 0:
        if base == 0:
            raise PoleError("0 cannot be raised to a negative power")
        return 1.0 / _ipow(base, -k)
    result = complex(1.0)
    factor = complex(base)
    while k:
        if k & 1:
            result *= factor
        factor *= factor
        k >>= 1
    return result


def _as_integer_exponent(exponent):
    """Return the exponent as an int when it is exactly integral, else None."""
    if isinstance(exponent, int):
        return exponent
    z = complex(exponent)
    if z.imag == 0.0 and abs(z.real) <= 2**53 and z.real == math.floor(z.real):
        return int(z.real)
    return None


def cpow(base, exponent) -> complex:
    """base**exponent on the principal branch; exact powering for integers.

    Integer exponents are evaluated by repeated squaring and place no
    restriction on the base; non-integer exponents require the base off
    the branch cut (-inf, 0].
    """
    base = _as_finite_complex(base, "base")
    exponent = _as_finite_complex(exponent, "exponent")
    k = _as_integer_exponent(exponent)
    if k is not None:
        return _ipow(base, k)
    if base.imag == 0.0 and base.real <= 0.0:
        raise DomainError(f"cpow branch cut: base {base} with non-integer exponent")
    return cmath.exp(exponent * cmath.log(base))


def clog1p(a) -> complex:
    """log(1 + a) on the principal branch, accurate for small |a|.

    Raises:
        DomainError: 1 + a lies on the branch cut (-inf, 0].
    """
    a = _as_finite_complex(a, "a")
    re, im = a.real, a.imag
    if im == 0.0 and re <= -1.0:
        raise DomainError(f"clog1p branch cut: 1 + a = {1.0 + re:g}")
    # |1+a|^2 = 1 + (2 re + re^2 + im^2), real log1p keeps accuracy; where
    # that sum overflows, |1+a| itself is still finite
    square = 2.0 * re + re * re + im * im
    log_abs = 0.5 * math.log1p(square) if math.isfinite(square) else math.log(math.hypot(1.0 + re, im))
    return complex(log_abs, math.atan2(im, 1.0 + re))


def cexpm1(z) -> complex:
    """exp(z) - 1 without cancellation near z = 0."""
    z = _as_finite_complex(z, "z")
    x, y = z.real, z.imag
    if y == 0.0:
        return complex(math.expm1(x), 0.0)
    half = math.sin(0.5 * y)
    return complex(
        math.expm1(x) * math.cos(y) - 2.0 * half * half,
        math.exp(x) * math.sin(y),
    )
