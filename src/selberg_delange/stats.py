"""Poisson cumulant machinery, CLT normalization, and large deviations.

The Poisson cumulant eta(z) = e^z - 1 drives everything: ldp_predict
compares exact tail probabilities against
exp(-rho ln ln x eta*(s)) psi(ln s)/(1 - 1/s), and clt_report measures
the Kolmogorov distance between the standardized additive statistic and
a standard normal.  At s = 1 the prefactor is replaced by psi'(0),
which psi_prime_at_zero computes in closed form as the logarithmic
derivative of the Euler product (a digamma term plus one sum over the
primes, closed by the prime-zeta tail when alpha has a local series).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .errors import DomainError
from .euler import DEFAULT_FACTOR_TOL, DEFAULT_PRIME_CUTOFF, _psi_prime, psi
from .exact import DistributionTable, pmf
from .funcs import OMEGA, AdditiveSpec, MultiplicativeSpec
from .special import cexpm1

logger = logging.getLogger(__name__)


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
    tol: float = DEFAULT_FACTOR_TOL,
) -> complex:
    """psi'(0), the logarithmic derivative of the Euler product.

    psi(0) = 1, so psi'(0) is d/dz log lambda0(exp-twist of alpha) at
    z = 0: with rho = alpha.rho and c = g.prime_value,

        psi'(0) = -c rho digamma(rho)
                  + sum_p [c rho log(1 - 1/p) + G_p / (1 + F_p)],

    where F_p = sum_k alpha(p^k) p^{-k} and
    G_p = sum_k g(p^k) alpha(p^k) p^{-k}.  It is the constant term of
    the mean of g(N) (Mertens' constant 0.26150 for unit and omega).
    Two kernel passes over the primes p <= P, memoised per process; when
    alpha has a local series and g a k_value (omega, Omega), the primes
    above P are closed by the prime-zeta tail, otherwise dropped.

    Raises:
        DegenerateSpecError: lambda0(alpha) = 0.
        ValueError: g has no generic prime value.
    """
    return _psi_prime(alpha, g, prime_cutoff, tol)


@dataclass(frozen=True)
class LdpPrediction:
    """Large-deviation comparison at slope s: P(g >= s rho ln ln x)."""

    s: float
    h: float
    rate: float
    predicted_tail: float
    exact_tail: float
    ratio: float


def ldp_predict(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec,
    rho: Optional[float],
    x: int,
    s: float,
    dist: Optional[DistributionTable] = None,
    prime_cutoff: int = DEFAULT_PRIME_CUTOFF,
    tol: float = DEFAULT_FACTOR_TOL,
) -> LdpPrediction:
    """Compare the exact tail P(g(N) >= s rho ln ln x) with its prediction.

    predicted_tail = exp(-rho ln ln x eta*(s)) psi(ln s)/(1 - 1/s); the
    exact tail sums pmf buckets from ceil(s rho ln ln x) upward.  At
    s = 1 the prefactor psi(ln s)/(1 - 1/s) is 1/0, so the stated
    replacement psi'(0) is used (a warning is logged since psi(0) = 1
    makes the unsubstituted ratio diverge).

    Raises:
        DomainError: s <= 0 or ln s outside the strip of g.
        ValueError: x < 16 or non-real rho.
    """
    s = float(s)
    if not s > 0.0:
        raise DomainError(f"ldp_predict requires s > 0, got {s}")
    if x < 16:
        raise ValueError(f"x must be >= 16 so ln ln x >= 1, got {x}")
    if rho is None:
        rho = alpha.rho
    rho = complex(rho)
    if rho.imag != 0.0:
        raise ValueError(f"rho must be real for tail comparisons, got {rho}")
    rho = rho.real
    h = math.log(s)
    if s != 1.0 and not g.strip.contains(h):
        raise DomainError(
            f"s = {s:g} puts ln s = {h:g} outside the strip of {g.name}; "
            f"need {math.exp(g.strip.c):g} < s < {math.exp(min(g.strip.d, 700.0)):g}"
        )
    rate = eta_star(s)
    t_x = rho * math.log(math.log(x))
    if s == 1.0:
        logger.warning(
            "s = 1: replacing the divergent prefactor psi(0)/(1 - 1/s) by psi'(0)"
        )
        prefactor = psi_prime_at_zero(alpha, g, prime_cutoff, tol).real
    else:
        value = psi(alpha, h, g, prime_cutoff=prime_cutoff, tol=tol)
        prefactor = value.real / (1.0 - 1.0 / s)
    predicted = math.exp(-t_x * rate) * prefactor
    if dist is None:
        dist = pmf(alpha, g, x)
    exact = dist.tail_probability(s * t_x)
    ratio = exact / predicted if predicted != 0.0 else math.inf
    return LdpPrediction(
        s=s, h=h, rate=rate, predicted_tail=predicted, exact_tail=exact, ratio=ratio
    )


@dataclass(frozen=True)
class CltReport:
    """Normal approximation quality for (g(N) - rho ln ln x)/sqrt(rho ln ln x)."""

    x: int
    kolmogorov_distance: float
    tail_pairs: Tuple[Tuple[float, float, float], ...]


def clt_report(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec,
    rho: Optional[float],
    x: int,
    y_grid: Sequence[float],
    dist: Optional[DistributionTable] = None,
) -> CltReport:
    """Kolmogorov distance and tail pairs against the standard normal.

    tail_pairs holds (y, exact P(g >= rho ln ln x + y sqrt(rho ln ln x)),
    1 - Phi(y)) for each y in y_grid.

    Raises:
        DomainError: rho <= 0 (the standardization needs a positive scale).
        ValueError: x < 16.
    """
    if x < 16:
        raise ValueError(f"x must be >= 16 so ln ln x >= 1, got {x}")
    if rho is None:
        rho = alpha.rho
    rho = complex(rho)
    if rho.imag != 0.0 or not rho.real > 0.0:
        raise DomainError(f"clt_report requires real rho > 0, got {rho}")
    rho = rho.real
    if dist is None:
        dist = pmf(alpha, g, x)
    t_x = rho * math.log(math.log(x))
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
    return CltReport(x=int(x), kolmogorov_distance=distance, tail_pairs=tuple(pairs))


def clt_report_to_dict(report: CltReport) -> Dict:
    return {
        "x": report.x,
        "kolmogorov_distance": report.kolmogorov_distance,
        "tail_pairs": [[y, exact, gauss] for (y, exact, gauss) in report.tail_pairs],
    }


def ldp_prediction_to_dict(pred: LdpPrediction) -> Dict:
    return {
        "s": pred.s,
        "h": pred.h,
        "rate": pred.rate,
        "predicted_tail": pred.predicted_tail,
        "exact_tail": pred.exact_tail,
        "ratio": pred.ratio,
    }


def tail_pairs_to_csv(pairs: Sequence[Tuple[float, float, float]]) -> str:
    """CSV rendering of (y, exact, gaussian) triples."""
    lines = ["y,exact,gaussian"]
    for y, exact, gauss in pairs:
        lines.append(f"{y:.15g},{exact:.15g},{gauss:.15g}")
    return "\n".join(lines) + "\n"
