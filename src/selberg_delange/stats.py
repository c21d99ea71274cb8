"""Poisson cumulant machinery, CLT normalization, and large deviations.

The Poisson cumulant eta(z) = e^z - 1 drives everything: ldp_predict
compares exact tail probabilities against
exp(-rho ln ln x eta*(s)) psi(ln s)/(1 - 1/s), and clt_report measures
the Kolmogorov distance between the standardized additive statistic and
a standard normal.  At s = 1 the prefactor is replaced by psi'(0),
which psi_prime_at_zero computes in closed form as the logarithmic
derivative of the Euler product (a digamma term plus one sum over the
primes, closed by the prime-zeta tail when alpha has a local series).
Both comparisons take the exact side's bucket sums (exact.BucketSums)
and read alpha, g and x from them, so a law is never compared at an x
or a spec other than its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .euler import DEFAULT_PRIME_CUTOFF, _check_cutoff, _log_derivative, _twist_is_finite, psi
from .exact import BucketSums
from .funcs import OMEGA, AdditiveSpec, MultiplicativeSpec
from .special import cexpm1


def eta(z) -> complex:
    """Poisson cumulant e^z - 1 (accurate near 0)."""
    return cexpm1(complex(z))


def eta_star(s: float) -> float:
    """Legendre transform sup_t (ts - eta(t)) = 1 + s(ln s - 1).

    Raises:
        DomainError: s <= 0.
    """
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"eta_star requires s > 0, got {s}")
    if s == 1.0:
        return 0.0
    return 1.0 + s * (math.log(s) - 1.0)


def normal_cdf(t: float) -> float:
    """Standard normal CDF via the complementary error function."""
    return 0.5 * math.erfc(-float(t) / math.sqrt(2.0))


def psi_prime_at_zero(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec = OMEGA,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
) -> complex:
    """psi'(0), the logarithmic derivative of the Euler product.

    psi(0) = 1, so psi'(0) is d/dz log lambda0(exp-twist of alpha) at
    z = 0: with rho = alpha.rho and c = g.k_value(1),

        psi'(0) = -c rho digamma(rho)
                  + sum_p [c rho log(1 - 1/p) + G_p / (1 + F_p)],

    where F_p = sum_k alpha(p^k) p^{-k} and
    G_p = sum_k g(p^k) alpha(p^k) p^{-k}.  It is the constant term of
    the mean of g(N) (Mertens' constant 0.26150 for unit and omega).
    Two products over the primes p <= P, F_p and then G_p, one kernel
    call each; when alpha has a local series and no exceptional prime of
    alpha or g lies above P, the primes above P are closed by the
    prime-zeta tail.  Otherwise, or when that tail series cannot close,
    psi'(0) keeps the head alone, the sum over the primes p <= P, and
    gives no bound for the primes it drops: for theta_omega:30 and omega
    it is -152.42607826916247 at cutoff 100, -153.822953241354 at 1000
    and -153.8229532458206 at 1e6, and no cutoff says how far it is off.

    Raises:
        DegenerateSpecError: lambda0(alpha) = 0.
        ValueError: g states no k_value, so no generic prime value.
    """
    return _log_derivative(alpha, g, _check_cutoff(prime_cutoff))


def _mean_scale(alpha: MultiplicativeSpec, x: int) -> float:
    """rho ln ln x, rho = alpha.rho: the mean scale both tail comparisons share.

    rho must be real and > 0, with rho ln ln x finite: the tail threshold
    and the standardization need a positive, finite scale.

    Raises:
        DomainError: rho is not real, rho <= 0, or rho ln ln x is not finite.
        ValueError: x < 16.
    """
    if x < 16:
        raise ValueError(f"x must be >= 16 so ln ln x >= 1, got {x}")
    rho = complex(alpha.rho)
    t_x = rho.real * math.log(math.log(x))
    if rho.imag != 0.0 or not math.isfinite(t_x):
        shown = rho if rho.imag else rho.real
        raise DomainError(f"tail comparisons need a real rho with rho ln ln x finite, got rho = {shown} at x = {x}")
    if not rho.real > 0.0:
        raise DomainError(f"tail comparisons need rho > 0, got rho = {rho.real} at x = {x}")
    return t_x


def _largest_s(holds: Callable[[float], bool], upper: float) -> float:
    """Where holds, true at s = 1 and false from some s on, turns false in
    [1, upper] (upper if it holds there), by bisection on ln s."""
    if holds(upper):
        return upper
    lo, hi = 0.0, math.log(upper)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        lo, hi = (mid, hi) if holds(math.exp(mid)) else (lo, mid)
    return math.exp(hi)


@dataclass(frozen=True)
class LdpPrediction:
    """Large-deviation comparison at slope s: P(g >= s rho ln ln x)."""

    s: float
    h: float
    rate: float
    predicted_tail: float
    exact_tail: float
    ratio: float


def _checked_decay(alpha: MultiplicativeSpec, g: AdditiveSpec, x: int, s: float) -> Tuple[float, float]:
    """rho ln ln x and exp(-rho ln ln x eta*(s)), once s passes ldp's checks at x:
    the mean scale, the strip of g, no underflow and a finite Gamma."""
    t_x = _mean_scale(alpha, x)
    h = math.log(s)

    def decays(v: float) -> bool:
        return math.exp(-t_x * eta_star(v)) > 0.0

    def twist_gamma_is_finite(v: float) -> bool:
        return _twist_is_finite(alpha, math.log(v), g)

    if s != 1.0 and not g.strip.contains(h):
        upper = math.exp(min(g.strip.d, 700.0))
        upper = min(_largest_s(decays, upper), _largest_s(twist_gamma_is_finite, upper))
        raise DomainError(f"s = {s:g} puts ln s = {h:g} outside the strip of {g.name}; need 1 <= s < {upper:g}")
    decay = math.exp(-t_x * eta_star(s))
    if decay == 0.0:
        raise DomainError(f"s = {s:g} underflows exp(-rho ln ln x eta*(s)) to 0 at x = {x}")
    if s != 1.0 and not twist_gamma_is_finite(s):
        raise DomainError(
            f"s = {s:g} overflows Gamma(rho s^c) in psi(ln s), with c = {g.k_value(1):g} for {g.name}; "
            f"need s < {_largest_s(twist_gamma_is_finite, s):g}"
        )
    return t_x, decay


def _prefactor(alpha: MultiplicativeSpec, g: AdditiveSpec, s: float, prime_cutoff: int) -> float:
    """psi(ln s)/(1 - 1/s), or psi'(0) at s = 1, where that quotient is 1/0."""
    if s == 1.0:
        import logging  # loaded for this warning alone

        logging.getLogger(__name__).warning("s = 1: replacing the divergent prefactor psi(0)/(1 - 1/s) by psi'(0)")
        return psi_prime_at_zero(alpha, g, prime_cutoff).real
    return psi(alpha, math.log(s), g, prime_cutoff=prime_cutoff).real / (1.0 - 1.0 / s)


def _checked_slope(s: float) -> float:
    """s as a float, once ldp's upper tail allows it (s >= 1)."""
    s = float(s)
    if not s >= 1.0:
        raise DomainError(f"ldp compares the upper tail and needs s >= 1, got {s:g}")
    return s


def ldp_predict(
    grid: Sequence[BucketSums], s: float, *, prime_cutoff: int = DEFAULT_PRIME_CUTOFF
) -> List[LdpPrediction]:
    """Compare the exact tail P(g(N) >= s rho ln ln x) with its prediction
    at each x of grid, the bucket sums of one alpha and one g.

    predicted_tail = exp(-rho ln ln x eta*(s)) psi(ln s)/(1 - 1/s), with
    rho = alpha.rho; the exact tail sums pmf buckets from
    ceil(s rho ln ln x) upward.  The prefactor psi(ln s)/(1 - 1/s)
    belongs to the upper tail and does not depend on x: it is computed
    once, after the first x passes its checks and yields its
    distribution.  At s = 1 it is 1/0, so the stated replacement psi'(0)
    is used (a warning is logged since psi(0) = 1 makes the
    unsubstituted ratio diverge).

    Raises:
        DomainError: s < 1, ln s outside the strip of g, s so large that
        exp(-rho ln ln x eta*(s)) underflows to 0 or that Gamma of the
        twisted rho in psi(ln s) overflows, or rho not real and > 0 with
        rho ln ln x finite; all before the distribution and any Euler
        product at that x.  The strip and Gamma messages state the
        largest s that works.
        ValueError: grid mixes specs, or an x < 16; what
        BucketSums.distribution raises.
    """
    s = _checked_slope(s)
    if any((sums.alpha, sums.g) != (grid[0].alpha, grid[0].g) for sums in grid):
        raise ValueError("ldp_predict needs the bucket sums of one alpha and one g")
    h, rate = math.log(s), eta_star(s)
    prefactor = None
    predictions = []
    for sums in grid:
        t_x, decay = _checked_decay(sums.alpha, sums.g, sums.x, s)
        exact = sums.distribution().tail_probability(s * t_x)
        if prefactor is None:
            prefactor = _prefactor(sums.alpha, sums.g, s, prime_cutoff)
        predicted = decay * prefactor
        ratio = exact / predicted if predicted != 0.0 else math.inf
        predictions.append(
            LdpPrediction(s=s, h=h, rate=rate, predicted_tail=predicted, exact_tail=exact, ratio=ratio)
        )
    return predictions


@dataclass(frozen=True)
class CltReport:
    """Normal approximation quality for (g(N) - rho ln ln x)/sqrt(rho ln ln x)."""

    x: int
    kolmogorov_distance: float
    tail_pairs: Tuple[Tuple[float, float, float], ...]


def clt_report(sums: BucketSums, y_grid: Sequence[float]) -> CltReport:
    """Kolmogorov distance and tail pairs against the standard normal, for
    the alpha, g and x of sums.

    tail_pairs holds (y, exact P(g >= rho ln ln x + y sqrt(rho ln ln x)),
    1 - Phi(y)) for each y in y_grid, with rho = alpha.rho.

    Raises:
        DomainError: rho not real and > 0 with rho ln ln x finite; before
        the distribution.
        ValueError: x < 16; what BucketSums.distribution raises.
    """
    t_x = _mean_scale(sums.alpha, sums.x)
    dist = sums.distribution()
    sigma = math.sqrt(t_x)
    atoms = (dist.values.astype(np.float64) - t_x) / sigma
    cdf = np.minimum(np.cumsum(dist.probabilities), 1.0)
    gauss = np.array([normal_cdf(a) for a in atoms.tolist()])
    below = np.concatenate(([0.0], cdf[:-1]))
    distance = float(np.max(np.maximum(np.abs(cdf - gauss), np.abs(below - gauss))))
    distance = min(1.0, max(0.0, distance))
    pairs = []
    for y in y_grid:
        y = float(y)
        exact = dist.tail_probability(t_x + y * sigma)
        pairs.append((y, exact, 1.0 - normal_cdf(y)))
    return CltReport(x=sums.x, kolmogorov_distance=distance, tail_pairs=tuple(pairs))
