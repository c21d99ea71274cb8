"""Exact sieve-scale sums, distributions, and sampling.

Value tables.  f(n) and g(n) for every n <= x are built from the
prime-power values in two parts.  Each prime p <= sqrt(x) is swept over
the arithmetic progressions of its powers, which is the vectorized
equivalent of factoring each n and applying its prime powers in
increasing order.  Every n <= x has at most one prime factor q above
sqrt(x), and the sweep would apply it last, so all larger primes take
one value_at(primes, 1) call and one gather through the cofactor,
w[m q] *= f(q) for m <= x // q.  The result is bit-identical to
sweeping every prime.

Buckets.  For integer-valued g every exact statistic of g(N) is a
function of the sums S_m(x) = sum of alpha(n) over n <= x with
g(n) = m: the twisted sum is sum_m y^m S_m, the normalizing sum is
sum_m S_m, and the pmf is S_m over that total.  bucket_sums makes one
pass over the tables; twisted_sum, mgf_exact, mod_poisson_residual and
pmf then cost O(#buckets), about 25.  Non-integer g keeps the direct
sum of exp(g(n) log y) alpha(n).

All reductions run through fixed-block sums finished by fsum, so results
are bit-stable for a given block size (changing _CHUNK or the bincount
block may perturb outputs at the 1e-13 level).  Direct sums add blocks
of _CHUNK pairwise and stay near 1e-16 of the terms' L1 norm; a bucket
adds up to 4096 weights in sequence, which for weights with few distinct
values costs up to about 1e-14 of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSpecError, DomainError
from .funcs import AdditiveSpec, MultiplicativeSpec, _prime_power_values
from .sieve import _require_memory, _sieve_bytes, prime_array
from .special import cexpm1, cpow

# reduction block size shared by every compensated sum in this module
_CHUNK = 1024

# an alpha table (float64) and a g table (int64) per n, the pair every
# exact statistic of g(N) reads
_TABLE_BYTES_PER_N = 16


def compensated_sum(values) -> float:
    """Sum a real array: pairwise blocks finished with exact fsum."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    n = a.size
    if n == 0:
        return 0.0
    m = (n // _CHUNK) * _CHUNK
    partials: List[float] = []
    if m:
        partials.extend(a[:m].reshape(-1, _CHUNK).sum(axis=1).tolist())
    if m < n:
        partials.append(math.fsum(a[m:].tolist()))
    return math.fsum(partials)


def compensated_complex_sum(values) -> complex:
    """Complex sum with real and imaginary parts compensated separately."""
    a = np.ascontiguousarray(values)
    if np.iscomplexobj(a):
        return complex(compensated_sum(a.real), compensated_sum(a.imag))
    return complex(compensated_sum(a), 0.0)


def compensated_cumsum(values) -> np.ndarray:
    """Prefix sums with per-block compensation of the running offset."""
    a = np.ascontiguousarray(values, dtype=np.float64)
    n = a.size
    out = np.empty(n, dtype=np.float64)
    m = (n // _CHUNK) * _CHUNK
    total = 0.0
    comp = 0.0
    if m:
        body = np.cumsum(a[:m].reshape(-1, _CHUNK), axis=1, out=out[:m].reshape(-1, _CHUNK))
        offsets = np.empty(m // _CHUNK, dtype=np.float64)
        for i, t in enumerate(body[:, -1].tolist()):
            offsets[i] = total
            y = t - comp
            new_total = total + y
            comp = (new_total - total) - y
            total = new_total
        body += offsets[:, None]
    if m < n:
        out[m:] = np.cumsum(a[m:]) + total
    return out


def _split_at_root(x: int) -> Tuple[List[int], np.ndarray]:
    """Primes p <= isqrt(x) as a list, and the larger primes as an array.

    Raises ValueError for x < 1, and, before allocating anything, when
    the value tables and the prime sieve for x exceed physical memory.
    """
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    _require_memory(_TABLE_BYTES_PER_N * (x + 1) + _sieve_bytes(x), f"value tables to x = {x}")
    primes = prime_array(x)
    split = int(np.searchsorted(primes, math.isqrt(x), side="right"))
    return primes[:split].tolist(), primes[split:]


def _cofactor_gather(table: np.ndarray, primes: np.ndarray, values: np.ndarray, x: int, op) -> None:
    """table[m q] = op(table[m q], values[q]) for every listed q and m <= x // q.

    Every q must exceed sqrt(x), so m < q and each n <= x is hit by at
    most one q; primes are ascending, so the q with m q <= x form a
    prefix of the array.
    """
    if not len(primes):
        return
    limits = x // np.arange(1, x // int(primes[0]) + 1, dtype=np.int64)
    for m, count in enumerate(np.searchsorted(primes, limits, side="right").tolist(), start=1):
        idx = m * primes[:count]
        table[idx] = op(table[idx], values[:count])


def _apply_prime_exact(w: np.ndarray, p: int, x: int, values: Sequence[complex]) -> None:
    """Multiply w[n] by value(p, k) on the exact-exponent classes p^k || n."""
    for k, v in enumerate(values, start=1):
        pk = p**k
        idx = np.arange(pk, x + 1, pk, dtype=np.int64)
        nxt = pk * p
        if nxt <= x:
            idx = idx[idx % nxt != 0]
        w[idx] *= v


def multiplicative_value_table(spec: MultiplicativeSpec, x: int) -> np.ndarray:
    """Array of f(n) for 0 <= n <= x (entry 0 is 0, entry 1 is 1).

    Primes up to sqrt(x) are swept over the progressions of their
    powers, and the larger primes are applied by one cofactor gather;
    the result is exactly the per-n product of prime-power values.
    Returns float64 when every prime-power value is real, complex128
    otherwise.  Raises ValueError for x < 1 or x beyond physical memory.
    """
    small, large = _split_at_root(x)
    w = np.ones(x + 1, dtype=np.float64)
    w[0] = 0.0
    for p in small:
        values: List[complex] = []
        pk = p
        has_zero = False
        while pk <= x:
            v = complex(spec.value_at(p, len(values) + 1))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{spec.name}: non-finite value at ({p},{len(values) + 1})")
            values.append(v)
            has_zero = has_zero or v == 0
            pk *= p
        if not np.iscomplexobj(w) and any(v.imag != 0.0 for v in values):
            w = w.astype(np.complex128)
        if has_zero:
            vals = values if np.iscomplexobj(w) else [v.real for v in values]
            _apply_prime_exact(w, p, x, vals)
            continue
        prev = complex(1.0)
        pk = p
        for v in values:
            ratio = v / prev
            if ratio != 1.0:
                scale = ratio if np.iscomplexobj(w) else ratio.real
                w[pk::pk] *= scale
            prev = v
            pk *= p
    if not len(large):
        return w
    # primes above sqrt(x) divide each n <= x at most once, and last
    values = _prime_power_values(spec.value_at, np.array(large.tolist(), dtype=object), 1)
    bad = np.flatnonzero(~(np.isfinite(values.real) & np.isfinite(values.imag)))
    if len(bad):
        raise ValueError(f"{spec.name}: non-finite value at ({int(large[bad[0]])},1)")
    if np.iscomplexobj(w) or values.imag.any():
        w = w.astype(np.complex128, copy=False)
    else:
        values = values.real
    keep = values != 1.0
    _cofactor_gather(w, large[keep], values[keep], x, np.multiply)
    return w


def _additive_delta(g: AdditiveSpec, p: int, k: int, v: complex, prev: float) -> float:
    """The jump g(p^k) - g(p^(k-1)), checked as the tables require."""
    if v.imag != 0.0:
        raise ValueError(f"{g.name}: tables require real values, got {v} at ({p},{k})")
    delta = v.real - prev
    if g.integer_valued and delta != 0.0 and delta != int(delta):
        raise ValueError(f"{g.name} declared integer-valued but g({p}^{k}) jumps by {delta}")
    return delta


def additive_value_table(g: AdditiveSpec, x: int) -> np.ndarray:
    """Array of g(n) for 0 <= n <= x; int64 for integer-valued g.

    Built like multiplicative_value_table: sweeps for the primes up to
    sqrt(x), one cofactor gather for the rest.  Raises ValueError for
    x < 1 or x beyond physical memory.
    """
    small, large = _split_at_root(x)
    integer = g.integer_valued
    tab = np.zeros(x + 1, dtype=np.int64 if integer else np.float64)
    for p in small:
        prev = 0.0
        pk = p
        k = 1
        while pk <= x:
            v = complex(g.value_at(p, k))
            delta = _additive_delta(g, p, k, v, prev)
            prev = v.real
            if delta != 0.0:
                tab[pk::pk] += int(delta) if integer else delta
            pk *= p
            k += 1
    if not len(large):
        return tab
    values = _prime_power_values(g.value_at, np.array(large.tolist(), dtype=object), 1)
    deltas = values.real
    suspect = values.imag != 0.0
    if integer:
        suspect |= ~np.isfinite(deltas) | (deltas != np.trunc(deltas))
    first = np.flatnonzero(suspect)
    if len(first):
        i = int(first[0])
        _additive_delta(g, int(large[i]), 1, complex(values[i]), 0.0)  # raises for this prime
    keep = deltas != 0.0
    steps = deltas[keep].astype(np.int64) if integer else deltas[keep]
    _cofactor_gather(tab, large[keep], steps, x, np.add)
    return tab


@dataclass(frozen=True)
class WeightTable:
    """Nonnegative weights w[n] = alpha(n) for n <= x with prefix sums."""

    x: int
    weights: np.ndarray
    cumulative: np.ndarray

    @property
    def total(self) -> float:
        return float(self.cumulative[self.x])


def build_weight_table(alpha: MultiplicativeSpec, x: int, values: Optional[np.ndarray] = None) -> WeightTable:
    """Materialize alpha as a probability weight table on 1..x.

    Raises:
        ValueError: some alpha(n) is complex or negative.
        DegenerateSpecError: all weights vanish.
    """
    w = multiplicative_value_table(alpha, x) if values is None else values[: x + 1]
    if np.iscomplexobj(w):
        raise ValueError(f"{alpha.name}: weight table requires real nonnegative values")
    if w.size != x + 1:
        raise ValueError(f"values array covers {w.size - 1} < x = {x}")
    if float(w.min()) < 0.0:
        n_bad = int(np.argmin(w))
        raise ValueError(f"{alpha.name}: negative weight alpha({n_bad}) = {w[n_bad]:g}")
    cumulative = compensated_cumsum(w)
    if not cumulative[x] > 0.0:
        raise DegenerateSpecError(f"{alpha.name}: total weight is 0 on [1, {x}]")
    return WeightTable(x=int(x), weights=w, cumulative=cumulative)


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution of g(N) for N drawn with weights alpha(n), n <= x."""

    x: int
    values: np.ndarray
    probabilities: np.ndarray
    mean: float
    variance: float

    def as_dict(self) -> Dict[int, float]:
        return {int(m): float(q) for m, q in zip(self.values, self.probabilities)}

    def tail_probability(self, threshold: float) -> float:
        """P(g >= threshold), summing pmf buckets from ceil(threshold) up."""
        cut = math.ceil(threshold)
        mask = self.values >= cut
        return min(1.0, float(math.fsum(self.probabilities[mask].tolist())))


def partial_sum(spec: MultiplicativeSpec, x: int, values: Optional[np.ndarray] = None) -> complex:
    """Exact sum of f(n) over 1 <= n <= x."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    w = multiplicative_value_table(spec, x) if values is None else values
    if w.shape[0] < x + 1:
        raise ValueError(f"values array covers {w.shape[0] - 1} < x = {x}")
    return compensated_complex_sum(w[1 : x + 1])


def _value_tables(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec,
    x: int,
    weights: Optional[np.ndarray],
    g_values: Optional[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray]:
    """alpha(n) and g(n) for 1 <= n <= x, each built unless given."""
    if x < 1:
        raise ValueError(f"x must be >= 1, got {x}")
    w = multiplicative_value_table(alpha, x) if weights is None else weights
    gt = additive_value_table(g, x) if g_values is None else g_values
    if w.shape[0] < x + 1 or gt.shape[0] < x + 1:
        raise ValueError(f"precomputed arrays do not cover x = {x}")
    return w[1 : x + 1], gt[1 : x + 1]


def _twist_base(y) -> complex:
    y = complex(y)
    if y == 0:
        raise ValueError("twist parameter y must be nonzero")
    return y


def _direct_twisted_sum(y: complex, w: np.ndarray, gt: np.ndarray) -> complex:
    """Sum of y^{g(n)} alpha(n) term by term, for non-integer g."""
    if y.imag == 0.0 and y.real <= 0.0:
        raise DomainError(f"y = {y} is on the branch cut for non-integer additive values")
    return compensated_complex_sum(w * np.exp(gt * complex(cmath.log(y))))


def _mean(alpha: MultiplicativeSpec, x: int, num: complex, den: complex) -> complex:
    if den == 0:
        raise DegenerateSpecError(f"{alpha.name}: zero normalizing sum on [1, {x}]")
    return num / den


def _poisson_factor(x: int, z: complex, rho: complex) -> complex:
    """exp(-rho ln ln x (e^z - 1)), the mod-Poisson normalization."""
    if x < 3:
        raise ValueError(f"x must be >= 3 for ln ln x > 0, got {x}")
    return cmath.exp(-(rho * math.log(math.log(x))) * cexpm1(z))


def _compensated_bincount(labels: np.ndarray, weights: np.ndarray, n_buckets: int) -> np.ndarray:
    rows = []
    for start in range(0, labels.size, 4096):
        rows.append(
            np.bincount(labels[start : start + 4096], weights=weights[start : start + 4096], minlength=n_buckets)
        )
    stacked = np.vstack(rows)
    return np.array([math.fsum(stacked[:, j].tolist()) for j in range(n_buckets)])


@dataclass(frozen=True)
class BucketSums:
    """S_m = sum of alpha(n) over n <= x with g(n) = m, for lo <= m <= hi.

    real[i] and imag[i] hold S_{lo+i}, each a compensated sum; imag is
    None for real alpha.  Every exact statistic of an integer-valued
    g(N) reads these few sums.  min_index is the first n of least
    weight (real alpha only), for the pmf's sign check.
    """

    alpha: MultiplicativeSpec
    g: AdditiveSpec
    x: int
    lo: int
    real: np.ndarray
    imag: Optional[np.ndarray]
    min_index: int
    min_weight: float

    def total(self) -> complex:
        """sum of alpha(n) over 1 <= n <= x."""
        imag = 0.0 if self.imag is None else math.fsum(self.imag.tolist())
        return complex(math.fsum(self.real.tolist()), imag)

    def twisted_sum(self, y) -> complex:
        """sum of y^{g(n)} alpha(n) over 1 <= n <= x, as sum_m y^m S_m."""
        y = _twist_base(y)
        sums = self.real.tolist()
        if self.imag is not None:
            sums = [complex(a, b) for a, b in zip(sums, self.imag.tolist())]
        terms = [cpow(y, m) * s for m, s in enumerate(sums, start=self.lo)]
        return complex(math.fsum(t.real for t in terms), math.fsum(t.imag for t in terms))

    def mean(self, y) -> complex:
        """E[y^{g(N)}] for N weighted by alpha on 1..x."""
        return _mean(self.alpha, self.x, self.twisted_sum(y), self.total())

    def residual(self, z, rho=None) -> complex:
        """psi_x(z); see mod_poisson_residual."""
        z = complex(z)
        rho = complex(self.alpha.rho) if rho is None else complex(rho)
        return _poisson_factor(self.x, z, rho) * self.mean(cmath.exp(z))

    def distribution(self) -> DistributionTable:
        """The pmf of g(N); see pmf.

        Raises:
            ValueError: alpha complex or negative somewhere, or g negative.
            DegenerateSpecError: all weights vanish.
        """
        name = self.alpha.name
        if self.imag is not None:
            raise ValueError(f"{name}: weight table requires real nonnegative values")
        if self.min_weight < 0.0:
            raise ValueError(f"{name}: negative weight alpha({self.min_index}) = {self.min_weight:g}")
        total = math.fsum(self.real.tolist())
        if not total > 0.0:
            raise DegenerateSpecError(f"{name}: total weight is 0 on [1, {self.x}]")
        if self.lo < 0:
            raise ValueError(f"{self.g.name} takes negative values; pmf requires nonnegative")
        probabilities = self.real / total
        values = np.arange(self.lo, self.lo + self.real.size, dtype=np.int64)
        keep = probabilities > 0.0
        values = values[keep]
        probabilities = probabilities[keep]
        mean = math.fsum((values * probabilities).tolist())
        variance = math.fsum(((values - mean) ** 2 * probabilities).tolist())
        return DistributionTable(
            x=self.x, values=values, probabilities=probabilities, mean=mean, variance=variance
        )


def bucket_sums(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec,
    x: int,
    weights: Optional[np.ndarray] = None,
    g_values: Optional[np.ndarray] = None,
) -> BucketSums:
    """Bucket the alpha weights on 1..x by the integer value of g.

    One pass over the tables; complex alpha takes one bincount for its
    real part and one for its imaginary part.

    Raises:
        ValueError: g is not integer-valued.
    """
    if not g.integer_valued:
        raise ValueError(f"{g.name} is not integer-valued; pmf buckets are integers")
    w, gt = _value_tables(alpha, g, x, weights, g_values)
    lo = int(gt.min())
    n_buckets = int(gt.max()) - lo + 1
    labels = gt - lo if lo else gt
    if np.iscomplexobj(w):
        real = _compensated_bincount(labels, w.real, n_buckets)
        imag = _compensated_bincount(labels, w.imag, n_buckets)
        min_index, min_weight = 0, 0.0
    else:
        real = _compensated_bincount(labels, w, n_buckets)
        imag = None
        i = int(np.argmin(w))
        min_index, min_weight = i + 1, float(w[i])
    return BucketSums(
        alpha=alpha, g=g, x=int(x), lo=lo, real=real, imag=imag,
        min_index=min_index, min_weight=min_weight,
    )


def twisted_sum(
    alpha: MultiplicativeSpec,
    y,
    g: AdditiveSpec,
    x: int,
    weights: Optional[np.ndarray] = None,
    g_values: Optional[np.ndarray] = None,
) -> complex:
    """Exact sum of y^{g(n)} alpha(n) over 1 <= n <= x."""
    y = _twist_base(y)
    if g.integer_valued:
        return bucket_sums(alpha, g, x, weights, g_values).twisted_sum(y)
    return _direct_twisted_sum(y, *_value_tables(alpha, g, x, weights, g_values))


def twisted_mean(
    alpha: MultiplicativeSpec,
    y,
    g: AdditiveSpec,
    x: int,
    weights: Optional[np.ndarray] = None,
    g_values: Optional[np.ndarray] = None,
) -> complex:
    """E[y^{g(N)}] for N weighted by alpha on 1..x (exact).

    Raises:
        DegenerateSpecError: the weights sum to 0 on [1, x].
    """
    y = _twist_base(y)
    if g.integer_valued:
        return bucket_sums(alpha, g, x, weights, g_values).mean(y)
    w, gt = _value_tables(alpha, g, x, weights, g_values)
    return _mean(alpha, x, _direct_twisted_sum(y, w, gt), compensated_complex_sum(w))


def mgf_exact(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec,
    x: int,
    z,
    weights: Optional[np.ndarray] = None,
    g_values: Optional[np.ndarray] = None,
) -> complex:
    """E[exp(z g(N))] for N weighted by alpha on 1..x (exact)."""
    return twisted_mean(alpha, cmath.exp(complex(z)), g, x, weights, g_values)


def pmf(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec,
    x: int,
    weights: Optional[np.ndarray] = None,
    g_values: Optional[np.ndarray] = None,
) -> DistributionTable:
    """Exact probability mass function of g(N) under the alpha weights.

    Requires g to take nonnegative integer values (omega, Omega, or an
    integer table); weights must be real and nonnegative.
    """
    return bucket_sums(alpha, g, x, weights, g_values).distribution()


def sample(
    alpha: MultiplicativeSpec,
    x: int,
    seed: int,
    count: int,
    stream: int = 0,
    table: Optional[WeightTable] = None,
) -> np.ndarray:
    """Draw `count` iid copies of N (P(N=n) proportional to alpha(n), n <= x).

    Inverse-CDF sampling: uniforms come from the counter-based
    Philox4x64 generator keyed by (seed, stream), so draws are
    reproducible across platforms and independent streams are obtained
    by varying `stream`; each draw binary-searches the cumulative
    weight array, in sorted order of the targets so that successive
    searches stay close in memory.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if table is None:
        table = build_weight_table(alpha, x)
    bits = np.random.Philox(key=[np.uint64(int(seed) & (2**64 - 1)), np.uint64(int(stream))])
    targets = np.random.Generator(bits).random(count)
    targets *= table.total
    order = np.argsort(targets)
    found = np.searchsorted(table.cumulative, targets[order], side="right")
    draws = targets.view(np.int64)  # the targets are spent; their buffer takes the draws
    draws[order] = found
    return draws


def mod_poisson_residual(
    alpha: MultiplicativeSpec,
    g: AdditiveSpec,
    x: int,
    z,
    rho=None,
    weights: Optional[np.ndarray] = None,
    g_values: Optional[np.ndarray] = None,
) -> complex:
    """Normalized MGF psi_x(z) = exp(-rho ln ln x (e^z - 1)) E[e^{z g(N)}].

    As x grows this converges to the limiting function psi(z); the
    difference from psi is the object of the convergence studies.

    Raises:
        ValueError: x < 3 (ln ln x must be positive).
    """
    z = complex(z)
    rho = complex(alpha.rho) if rho is None else complex(rho)
    return _poisson_factor(x, z, rho) * mgf_exact(alpha, g, x, z, weights, g_values)


def distribution_to_csv(dist: DistributionTable) -> str:
    """CSV rendering with header value,probability."""
    lines = ["value,probability"]
    for m, q in zip(dist.values.tolist(), dist.probabilities.tolist()):
        lines.append(f"{m},{q:.15g}")
    return "\n".join(lines) + "\n"


def sums_to_csv(rows: Sequence[Tuple[int, complex]]) -> str:
    """CSV rendering with header x,sum_re,sum_im."""
    lines = ["x,sum_re,sum_im"]
    for x, value in rows:
        value = complex(value)
        lines.append(f"{x},{value.real:.15g},{value.imag:.15g}")
    return "\n".join(lines) + "\n"
