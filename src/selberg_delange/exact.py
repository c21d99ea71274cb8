"""Exact sieve-scale sums, distributions, and sampling.

Value tables.  f(n) and g(n) for 1 <= n <= x are produced in blocks
[lo, hi) of _BLOCK consecutive n, aligned at n = 1, so no consumer holds
more than a block of them.  Each prime p <= sqrt(x) is swept over the
progressions of its powers inside the block, starting at the first
multiple of p^k that is >= lo; this is the vectorized equivalent of
factoring each n and applying its prime powers in increasing order.
The last steps, whose moduli hit few n of a block each, are applied by
one ufunc.at, which keeps their order.  Every n <= x has at most one
prime factor q above sqrt(x), and the sweep would apply it last, so
those primes take one gather per block: for each m, the q with m q in
[lo, hi) form one contiguous run of the primes, found by two
searchsorted calls per chunk of m.  Each n gets the same
multiplications in the same order as a sweep of every prime over the
whole table, so every block is bit-identical to the slice of that
table.  Every exact result reads these blocks, built from the specs, and
none holds more than a block of them.

Values.  Every prime-power value comes from funcs.prime_power_values,
once per power k over the swept primes with p^k <= x and once over the
primes above sqrt(x); the checks then run prime by prime, so an error
names the first (p, k) the sweep would reach.  A spec that states its
value (a one-term series or a k_value) gives one scalar there unless
one of its exceptional primes lies among them, so no array over the
large primes is built, and a value of 1 (0 for g) gathers nothing.  A
pass allocates its working arrays once: the tables, the complex copy of
a promoted one, the tail's positions and the gather's index and
offsets.  It fills the runs of the tail and of the gather in groups of
_TEMP_ITEMS entries, so no temporary grows with x (malloc returns a
larger one to the system after every block, to be faulted in again at
the next).  A yielded block is valid until the next is requested.

Buckets.  For integer-valued g every exact statistic of g(N) is a
function of the sums S_m(x) = sum of alpha(n) over n <= x with
g(n) = m: the twisted sum is sum_m y^m S_m, the normalizing sum is
sum_m S_m, and the pmf is S_m over that total.  bucket_sums_grid makes
one pass over the blocks for a whole x grid; each statistic BucketSums
gives then costs O(#buckets), about 25.
Non-integer g keeps the direct sum of exp(g(n) log y) alpha(n).

All reductions run through fixed chunks aligned at n = 1 (n = 0 for
prefix sums) and finished by fsum, which is exact and so does not
depend on where the blocks cut: a bucket sum takes one bincount row
per 4096 consecutive n, a direct sum one pairwise sum per _CHUNK n,
and a grid x inside a chunk gets a row of its own.  Results are
bit-stable for a given chunk size (changing _CHUNK or the bincount
chunk may perturb outputs at the 1e-13 level).  Direct sums stay near
1e-16 of the terms' L1 norm; a bucket adds up to 4096 weights in
sequence, which for weights with few distinct values costs up to about
1e-14 of it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSpecError, DomainError
from .funcs import AdditiveSpec, MultiplicativeSpec, prime_power_values
from .sieve import _require_memory, _sieve_bytes, prime_array
from .special import cexpm1, cpow

# reduction block size shared by every compensated sum in this module
_CHUNK = 1024

# consecutive n per bincount row of the bucket sums
_BUCKET_CHUNK = 4096

# n per value-table block: a multiple of _BUCKET_CHUNK (and so of _CHUNK)
_BLOCK = 1 << 16

# entries per temporary of the tail and the gather (int64: 64 KiB), so
# that a pass, which allocates its block arrays once, does not hand
# memory back to the system and fault it in again at every block
_TEMP_ITEMS = 8192

# sweep steps of a modulus at least this large hit few n of a block each,
# so one op.at per block applies them cheaper than a slice each
_TAIL_MODULUS = 128

def _fsum(values: List[float]) -> float:
    """math.fsum, or the float sum (inf or nan) where fsum raises because the sum overflows."""
    try:
        return math.fsum(values)
    except (OverflowError, ValueError):
        return float(sum(values))


def _chunk_sums(a: np.ndarray) -> np.ndarray:
    """The pairwise sum of each whole _CHUNK-block of a."""
    m = (a.size // _CHUNK) * _CHUNK
    return a[:m].reshape(-1, _CHUNK).sum(axis=1)


def _finish_sum(chunk_sums: List[np.ndarray], a: np.ndarray, end: int) -> float:
    """The sum of a sequence whose earlier blocks gave chunk_sums and that
    ends with a[:end]: pairwise sums of its _CHUNK-blocks, finished with
    exact fsum."""
    m = (end // _CHUNK) * _CHUNK
    partials = np.concatenate(chunk_sums + [_chunk_sums(a[:m])]).tolist()
    if m < end:
        partials.append(_fsum(a[m:end].tolist()))
    return _fsum(partials)


class _PrefixSums:
    """Prefix sums of a sequence fed in pieces, with the running offset
    compensated once per _CHUNK-block, so cutting the sequence into
    pieces of whole blocks (all but the last) leaves every prefix sum
    unchanged.
    """

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def __call__(self, a: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """The prefix sums of the next piece a, written into out (which may be a)."""
        n = a.size
        out = np.empty(n, dtype=np.float64) if out is None else out
        m = (n // _CHUNK) * _CHUNK
        total, comp = self.total, self.comp
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
        self.total, self.comp = total, comp
        return out


# ---------------------------------------------------------------------------
# value tables in blocks


def _swept_rows(spec, x: int, small: np.ndarray) -> List[List]:
    """[f(p), f(p^2), ...] up to the last p^k <= x, or g's, for each swept
    prime p of small, from one prime_power_values call per power k."""
    columns: List[List] = []
    primes = powers = small.tolist()
    while powers:  # the p^k <= x, a prefix of the primes
        values = prime_power_values(spec, len(columns) + 1, small[: len(powers)])
        columns.append(values.tolist() if values.ndim else [values.item()] * len(powers))
        powers = [q * p for q, p in zip(powers, primes) if q * p <= x]
    return [[column[i] for column in columns if i < len(column)] for i in range(len(primes))]


def _compact(values: np.ndarray):
    """values[0] when there are entries and all have the same bits, else values."""
    if not values.size:
        return values
    raw = np.ascontiguousarray(values).view(np.int64).reshape(values.size, -1)
    return values[0] if (raw == raw[0]).all() else values


class _Work:
    """A recipe's working arrays for one pass of blocks of at most `block`
    n, allocated once: the table, its complex128 copy once promoted, and
    the positions of the tail."""

    def __init__(self, recipe: "_Recipe", block: int):
        self.table = np.empty(block, dtype=recipe.dtype)
        self.complex: Optional[np.ndarray] = None
        self.tail = np.empty(int(((block - 1) // recipe.moduli[recipe.tail :] + 1).sum()), dtype=np.int64)

    def promoted(self, a: np.ndarray) -> np.ndarray:
        if self.complex is None:
            self.complex = np.empty(self.table.size, dtype=np.complex128)
        out = self.complex[: a.size]
        out[...] = a
        return out


@dataclass(frozen=True)
class _Recipe:
    """One value table as steps: a start value, the sweep of the primes
    p <= sqrt(x), then one gather of the primes above sqrt(x).

    A step (pk, nxt, v) applies op(., v) at the multiples of pk, except
    those of nxt when nxt is nonzero.  The table turns complex128 before
    step complex_from (len(steps): before the gather), if that is set.
    The steps from tail on are applied together, by one op.at per block.
    tail_values and gather_values hold one value for all their steps or
    primes, or one per step or gather prime.
    """

    start: float
    dtype: type
    op: Callable
    steps: List[Tuple[int, int, object]]
    moduli: np.ndarray
    complex_from: Optional[int]
    tail: int
    tail_values: object
    gather_primes: np.ndarray
    gather_values: object

    # an overflowing weight is reported by the finite-total checks
    @np.errstate(over="ignore")
    def block(self, lo: int, hi: int, gather: Callable, work: _Work) -> np.ndarray:
        size = hi - lo
        a = work.table[:size]
        a.fill(self.start)
        firsts = -lo % self.moduli
        head = firsts[: self.tail].tolist()
        promote = len(self.steps) + 1 if self.complex_from is None else self.complex_from
        # most steps of the larger prime powers have no multiple in the block
        for i in [i for i, first in enumerate(head) if first < size]:
            if i >= promote and a.dtype != np.complex128:
                a = work.promoted(a)
            pk, nxt, v = self.steps[i]
            if nxt:
                at = np.arange(head[i], size, pk)
                at = at[(at + lo) % nxt != 0]
                a[at] = self.op(a[at], v)
            else:
                view = a[head[i] :: pk]
                if view.size == 1:
                    # numpy multiplies a lone complex in place by a scalar
                    # loop that rounds unlike its vector loop, so a step
                    # hitting one n of a block would round by the block size
                    view[...] = self.op(view, v)
                else:
                    self.op(view, v, out=view)
        if self.tail < len(self.steps):
            # op.at applies its positions in order, so each n still sees the steps in order
            moduli = self.moduli[self.tail :]
            counts = np.maximum((size - 1 - firsts[self.tail :]) // moduli + 1, 0)
            values = self.tail_values if np.ndim(self.tail_values) == 0 else np.repeat(self.tail_values, counts)
            self.op.at(a, _runs(firsts[self.tail :], moduli, counts, work.tail), values)
        if promote <= len(self.steps) and a.dtype != np.complex128:
            a = work.promoted(a)
        if len(self.gather_primes):
            at, index = gather(self.gather_primes, lo, hi)
            values = self.gather_values if np.ndim(self.gather_values) == 0 else self.gather_values[index]
            if a.dtype == np.complex128:
                a[at] = self.op(a[at], values)  # op.at rounds complex products differently
            else:
                self.op.at(a, at, values)
        return a


def _groups(ends: np.ndarray) -> Iterator[Tuple[int, int, int, int]]:
    """(i, j, e, f) for consecutive groups of runs: runs i..j-1 fill
    entries e..f-1, where run i ends at entry ends[i].  A group holds
    about _TEMP_ITEMS entries (a longer run makes a group of its own), so
    the temporaries that fill it do not grow with x or the block."""
    total = int(ends[-1]) if ends.size else 0
    i = e = 0
    for j in np.searchsorted(ends, np.arange(_TEMP_ITEMS, total, _TEMP_ITEMS), side="right").tolist() + [ends.size]:
        if j > i:
            f = int(ends[j - 1])
            yield i, j, e, f
            i, e = j, f


def _runs(starts: np.ndarray, steps: np.ndarray, counts: np.ndarray, out: np.ndarray) -> np.ndarray:
    """starts[i] + j steps[i] for j < counts[i], run after run, written into out."""
    ends = np.cumsum(counts)
    # entry e of run i is e steps[i] + starts[i] - (ends[i] - counts[i]) steps[i]
    bases = starts - (ends - counts) * steps
    for i, j, e, f in _groups(ends):
        group = out[e:f]
        np.multiply(np.arange(e, f), np.repeat(steps[i:j], counts[i:j]), out=group)
        group += np.repeat(bases[i:j], counts[i:j])
    return out[: int(ends[-1]) if ends.size else 0]


def _recipe(start, dtype, op, steps, complex_from, large, values, keep) -> _Recipe:
    """The _Recipe of a sweep and of the gather of the large primes where
    keep holds; values and keep are 0-d for one value at them all."""
    if keep.ndim == 0:
        large, values = large if keep else large[:0], values[()]
    else:
        if not keep.all():
            large, values = large[keep], values[keep]
        values = _compact(values)
    moduli = np.array([pk for pk, _, _ in steps], dtype=np.int64)
    # the tail: the last steps, all of moduli >= _TAIL_MODULUS and none
    # excluding multiples, of a table still real (op.at rounds complex
    # products differently)
    tail = len(steps)
    if complex_from is None or complex_from == len(steps):
        small = np.flatnonzero(moduli < _TAIL_MODULUS)
        exact = [i for i, (_, nxt, _) in enumerate(steps) if nxt]
        tail = max([int(small[-1]) + 1 if small.size else 0] + [i + 1 for i in exact[-1:]])
    tail_values = _compact(np.array([v for _, _, v in steps[tail:]]))
    return _Recipe(start, dtype, op, steps, moduli, complex_from, tail, tail_values, large, values)


def _multiplicative_recipe(spec: MultiplicativeSpec, x: int, small: np.ndarray, large: np.ndarray) -> _Recipe:
    """The steps of f(n) for n <= x, with the checks and the dtype of the whole table."""
    steps: List[Tuple[int, int, object]] = []
    complex_from: Optional[int] = None
    for p, row in zip(small.tolist(), _swept_rows(spec, x, small)):
        values = [complex(v) for v in row]
        for k, v in enumerate(values, start=1):
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{spec.name}: non-finite value at ({p},{k})")
        has_zero = any(v == 0 for v in values)
        if complex_from is None and any(v.imag != 0.0 for v in values):
            complex_from = len(steps)
        # f(p) itself, as the gather of the large primes applies it, then f(p^k)/f(p^(k-1))
        ratios = [] if has_zero else values[:1] + [v / prev for v, prev in zip(values[1:], values)]
        if has_zero or not all(cmath.isfinite(r) for r in ratios):
            # multiply on the exact-exponent classes p^k || n; a ratio
            # after a zero, or past a tiny value, is not finite
            for k, v in enumerate(values, start=1):
                nxt = p ** (k + 1)
                steps.append((p**k, nxt if nxt <= x else 0, v if complex_from is not None else v.real))
            continue
        pk = p
        for ratio in ratios:
            if ratio != 1.0:
                steps.append((pk, 0, ratio if complex_from is not None else ratio.real))
            pk *= p
    # primes above sqrt(x) divide each n <= x at most once, and last
    values = prime_power_values(spec, 1, large)
    bad = np.flatnonzero(~(np.isfinite(values.real) & np.isfinite(values.imag)))
    if len(bad):
        raise ValueError(f"{spec.name}: non-finite value at ({int(large[bad[0]])},1)")
    if complex_from is not None or values.imag.any():
        if complex_from is None:
            complex_from = len(steps)
        values = values.astype(np.complex128, copy=False)
    else:
        values = values.real
    return _recipe(1.0, np.float64, np.multiply, steps, complex_from, large, values, values != 1.0)


def _additive_delta(g: AdditiveSpec, p: int, k: int, v: complex, prev: float) -> float:
    """The jump g(p^k) - g(p^(k-1)), checked as the tables require."""
    if v.imag != 0.0:
        raise ValueError(f"{g.name}: tables require real values, got {v} at ({p},{k})")
    delta = v.real - prev
    if g.integer_valued and delta != 0.0 and delta != int(delta):
        raise ValueError(f"{g.name} declared integer-valued but g({p}^{k}) jumps by {delta}")
    return delta


def _additive_recipe(g: AdditiveSpec, x: int, small: np.ndarray, large: np.ndarray) -> _Recipe:
    """The steps of g(n) for n <= x; int64 for integer-valued g."""
    integer = g.integer_valued
    steps = []
    for p, row in zip(small.tolist(), _swept_rows(g, x, small)):
        prev = 0.0
        pk = p
        for k, v in enumerate(map(complex, row), start=1):
            delta = _additive_delta(g, p, k, v, prev)
            prev = v.real
            if delta != 0.0:
                steps.append((pk, 0, int(delta) if integer else delta))
            pk *= p
    values = prime_power_values(g, 1, large)
    deltas = values.real
    suspect = values.imag != 0.0
    if integer:
        suspect |= ~np.isfinite(deltas) | (deltas != np.trunc(deltas))
    first = np.flatnonzero(suspect)
    if len(first):
        i = int(first[0])
        _additive_delta(g, int(large[i]), 1, complex(values.flat[i]), 0.0)  # raises for this prime
    dtype = np.int64 if integer else np.float64
    return _recipe(0, dtype, np.add, steps, None, large, deltas.astype(dtype, copy=False), deltas != 0.0)


def _gather_index(primes: np.ndarray, lo: int, hi: int, at: np.ndarray, index: np.ndarray,
                  cofactors: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Offsets n - lo and prime indices i of every n = m primes[i] in [lo, hi),
    written into at and index.

    Every listed prime exceeds sqrt(x) >= sqrt(n), so m < primes[i] and
    each n is hit at most once; for each m the primes in
    [ceil(lo / m), (hi - 1) // m] are one contiguous run.  The m go in
    chunks of _TEMP_ITEMS, with the rows of cofactors: the run's first
    index less its first entry, and the run's length and end.
    """
    top = (hi - 1) // int(primes[0])
    size = 0
    for start in range(1, top + 1, _TEMP_ITEMS):
        ms = np.arange(start, min(start + _TEMP_ITEMS, top + 1), dtype=np.int64)
        bases, counts, ends = cofactors[:, : ms.size]
        np.floor_divide(-lo, ms, out=bases)
        np.negative(bases, out=bases)
        bases[...] = np.searchsorted(primes, bases, side="left")
        np.floor_divide(hi - 1, ms, out=counts)
        counts[...] = np.searchsorted(primes, counts, side="right")
        np.maximum(counts - bases, 0, out=counts)
        np.cumsum(counts, out=ends)
        bases -= ends
        bases += counts
        for i, j, e, f in _groups(ends):
            group = index[size + e : size + f]
            np.add(np.arange(e, f), np.repeat(bases[i:j], counts[i:j]), out=group)
            offsets = at[size + e : size + f]
            np.take(primes, group, out=offsets, mode="clip")
            offsets *= np.repeat(ms[i:j], counts[i:j])
        size += int(ends[-1])
    at = at[:size]
    at -= lo
    return at, index[:size]


class _Gather:
    """_gather_index for one pass, in arrays allocated once (np.empty:
    pages are touched only as blocks fill them).  A block's index is kept
    for the other side of the pass while it gathers the same list of
    primes in the same block.
    """

    def __init__(self, block: int):
        self.arrays = (np.empty(block, dtype=np.int64), np.empty(block, dtype=np.int64),
                       np.empty((3, _TEMP_ITEMS), dtype=np.int64))
        self.key: Optional[Tuple[int, int]] = None
        self.last: Tuple[np.ndarray, np.ndarray] = ()

    def __call__(self, primes: np.ndarray, lo: int, hi: int) -> Tuple[np.ndarray, np.ndarray]:
        if self.key != (id(primes), lo):
            self.key = (id(primes), lo)
            self.last = _gather_index(primes, lo, hi, *self.arrays)
        return self.last


class _ValueBlocks:
    """alpha(n) and g(n) for 1 <= n <= x as blocks (lo, alpha[lo:hi], g[lo:hi]).

    A side without a spec yields None.  The constructor makes every
    check of the values, in the order a sweep of the whole table meets
    them, before any block is built; each iteration is one pass, which
    allocates its working arrays once, so a yielded block is valid until
    the next is requested.

    Raises ValueError for x < 1, a prime sieve beyond physical memory, or
    a spec the tables reject.
    """

    def __init__(self, alpha: Optional[MultiplicativeSpec], g: Optional[AdditiveSpec], x: int):
        if x < 1:
            raise ValueError(f"x must be >= 1, got {x}")
        self.x = x
        _require_memory(_sieve_bytes(x), f"value tables to x = {x}")
        primes = prime_array(x)
        split = int(np.searchsorted(primes, math.isqrt(x), side="right"))
        small, large = primes[:split], primes[split:]
        self.alpha = None if alpha is None else _multiplicative_recipe(alpha, x, small, large)
        self.g = None if g is None else _additive_recipe(g, x, small, large)

    def __iter__(self) -> Iterator[Tuple[int, Optional[np.ndarray], Optional[np.ndarray]]]:
        block = min(_BLOCK, self.x)
        sides = [None if recipe is None else (recipe, _Work(recipe, block)) for recipe in (self.alpha, self.g)]
        gather = _Gather(block)
        for lo in range(1, self.x + 1, block):
            hi = min(lo + block, self.x + 1)
            w, gt = (None if side is None else side[0].block(lo, hi, gather, side[1]) for side in sides)
            yield lo, w, gt


# ---------------------------------------------------------------------------
# one pass over the blocks for a grid of x


def _grid(xs: Sequence[int]) -> List[int]:
    grid = sorted({int(x) for x in xs})
    if not grid:
        raise ValueError("empty x grid")
    if grid[0] < 1:
        raise ValueError(f"x must be >= 1, got {grid[0]}")
    return grid


def _ends(grid: List[int], lo: int, size: int) -> List[int]:
    """The lengths x - lo + 1 of the prefixes of block [lo, lo + size) that end at a grid x."""
    return [x - lo + 1 for x in grid if lo <= x < lo + size]


def _grid_sums(blocks: _ValueBlocks, grid: List[int], parts: Callable) -> Dict[int, List[float]]:
    """_finish_sum over 1 <= n <= x of each real sequence parts(w, gt) gives, for every grid x."""
    done: Optional[List[List[np.ndarray]]] = None
    out = {}
    for lo, w, gt in blocks:
        arrays = [np.ascontiguousarray(a, dtype=np.float64) for a in parts(w, gt)]
        if done is None:
            done = [[] for _ in arrays]
        for end in _ends(grid, lo, arrays[0].size):
            out[lo + end - 1] = [_finish_sum(d, a, end) for d, a in zip(done, arrays)]
        for d, a in zip(done, arrays):
            d.append(_chunk_sums(a))
        del w, gt, arrays  # the next block is built without this one
    return out


def _alpha_parts(w: np.ndarray, gt=None) -> Tuple[np.ndarray, ...]:
    return (w.real, w.imag) if np.iscomplexobj(w) else (w,)


def _as_complex(sums: Sequence[float]) -> complex:
    return complex(sums[0], sums[1] if len(sums) > 1 else 0.0)


def partial_sum_grid(spec: MultiplicativeSpec, xs: Sequence[int]) -> List[complex]:
    """Exact sum of f(n) over 1 <= n <= x at every x in xs, from one pass over the blocks."""
    grid = _grid(xs)
    sums = _grid_sums(_ValueBlocks(spec, None, grid[-1]), grid, _alpha_parts)
    for x in grid:
        _check_finite_total(spec, x, _as_complex(sums[x]))
    return [_as_complex(sums[int(x)]) for x in xs]


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution of g(N) for N drawn with weights alpha(n), n <= x."""

    x: int
    values: np.ndarray
    probabilities: np.ndarray
    mean: float
    variance: float

    def tail_probability(self, threshold: float) -> float:
        """P(g >= threshold), summing pmf buckets from ceil(threshold) up."""
        cut = math.ceil(threshold)
        mask = self.values >= cut
        return min(1.0, float(math.fsum(self.probabilities[mask].tolist())))


def _twist_base(y) -> complex:
    y = complex(y)
    if y == 0:
        raise ValueError("twist parameter y must be nonzero")
    return y


def _direct_twisted_sums(alpha: MultiplicativeSpec, y: complex, g: AdditiveSpec, x: int) -> Tuple[complex, complex]:
    """Sums of y^{g(n)} alpha(n), term by term for non-integer g, and of alpha(n)."""
    blocks = _ValueBlocks(alpha, g, x)
    if y.imag == 0.0 and y.real <= 0.0:
        raise DomainError(f"y = {y} is on the branch cut for non-integer additive values")
    log_y = complex(cmath.log(y))

    def parts(w, gt):
        terms = w * np.exp(gt * log_y)
        return (terms.real, terms.imag) + _alpha_parts(w)

    sums = _grid_sums(blocks, [x], parts)[x]
    return complex(sums[0], sums[1]), _as_complex(sums[2:])


def _check_finite_total(alpha: MultiplicativeSpec, x: int, total: complex) -> None:
    if not cmath.isfinite(total):
        raise ValueError(f"{alpha.name}: total weight on [1, {x}] overflows float64")


def _mean(alpha: MultiplicativeSpec, x: int, num: complex, den: complex) -> complex:
    _check_finite_total(alpha, x, den)
    if den == 0:
        raise DegenerateSpecError(f"{alpha.name}: zero normalizing sum on [1, {x}]")
    return num / den


def _poisson_factor(alpha: MultiplicativeSpec, x: int, z: complex) -> complex:
    """exp(-rho ln ln x (e^z - 1)), rho = alpha.rho: the mod-Poisson normalization."""
    if x < 3:
        raise ValueError(f"x must be >= 3 for ln ln x > 0, got {x}")
    return cmath.exp(-(complex(alpha.rho) * math.log(math.log(x))) * cexpm1(z))


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
        """sum of alpha(n) over 1 <= n <= x; not finite when it overflows."""
        imag = 0.0 if self.imag is None else _fsum(self.imag.tolist())
        return complex(_fsum(self.real.tolist()), imag)

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

    def residual(self, z) -> complex:
        """Normalized MGF psi_x(z) = exp(-rho ln ln x (e^z - 1)) E[e^{z g(N)}],
        with rho = alpha.rho.

        As x grows this converges to the limiting function psi(z); the
        difference from psi is the object of the convergence studies.

        Raises:
            ValueError: x < 3 (ln ln x must be positive).
        """
        z = complex(z)
        return _poisson_factor(self.alpha, self.x, z) * self.mean(cmath.exp(z))

    def distribution(self) -> DistributionTable:
        """The pmf of g(N); see pmf.

        Raises:
            ValueError: alpha complex or negative somewhere, its total
                overflows, or g negative.
            DegenerateSpecError: all weights vanish.
        """
        name = self.alpha.name
        if self.imag is not None:
            raise ValueError(f"{name}: weight table requires real nonnegative values")
        if self.min_weight < 0.0:
            raise ValueError(f"{name}: negative weight alpha({self.min_index}) = {self.min_weight:g}")
        total = self.total().real
        _check_finite_total(self.alpha, self.x, total)
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


def _bucket_rows(labels: np.ndarray, weights: np.ndarray, n_buckets: int) -> np.ndarray:
    """One bincount row per _BUCKET_CHUNK consecutive n, each adding its weights in order."""
    return np.vstack([
        np.bincount(labels[s : s + _BUCKET_CHUNK], weights=weights[s : s + _BUCKET_CHUNK], minlength=n_buckets)
        for s in range(0, labels.size, _BUCKET_CHUNK)
    ])


def _fsum_buckets(rows: List[Tuple[int, np.ndarray]], lo: int, n_buckets: int) -> np.ndarray:
    """fsum down buckets lo .. lo + n_buckets - 1.

    rows[i] = (m0, r) holds buckets m0, m0 + 1, ... in its columns; the
    columns outside the range hold no weight.
    """
    stacked = np.zeros((sum(r.shape[0] for _, r in rows), n_buckets))
    i = 0
    for m0, r in rows:
        a, b = max(m0, lo), min(m0 + r.shape[1], lo + n_buckets)
        stacked[i : i + r.shape[0], a - lo : b - lo] = r[:, a - m0 : b - m0]
        i += r.shape[0]
    return np.array([_fsum(stacked[:, j].tolist()) for j in range(n_buckets)])


def _least(w: np.ndarray, lo: int) -> Tuple[float, int]:
    """The least of the weights w of n = lo, lo + 1, ..., and its first n."""
    i = int(np.argmin(w))
    return float(w[i]), lo + i


def bucket_sums_grid(alpha: MultiplicativeSpec, g: AdditiveSpec, xs: Sequence[int]) -> List[BucketSums]:
    """bucket_sums at every x in xs, from one pass over the blocks.

    Each block adds one bincount row per 4096 consecutive n (two for
    complex alpha, real and imaginary part); a grid x inside a row gets
    a row of its own, and fsum down the rows gives every bucket exactly,
    whatever the blocks.

    Raises:
        ValueError: g is not integer-valued.
    """
    if not g.integer_valued:
        raise ValueError(f"{g.name} is not integer-valued; pmf buckets are integers")
    grid = _grid(xs)
    blocks = _ValueBlocks(alpha, g, grid[-1])
    done: List[List[Tuple[int, np.ndarray]]] = []  # per part of alpha, (m0, rows) of the blocks passed
    g_lo, g_hi = math.inf, -math.inf
    least = (math.inf, 0)  # the least weight so far and its first n (real alpha)
    out = {}
    for lo, w, gt in blocks:
        parts = _alpha_parts(w)
        done = done or [[] for _ in parts]
        # bincount labels from 0; only a g with negative values needs an offset
        m0 = min(int(gt.min()), 0)
        labels = gt - m0 if m0 else gt
        n_buckets = int(gt.max()) - m0 + 1
        rows = [_bucket_rows(labels, a, n_buckets) for a in parts]
        for end in _ends(grid, lo, gt.size):
            whole = (end // _BUCKET_CHUNK) * _BUCKET_CHUNK
            m_lo, m_hi = min(g_lo, int(gt[:end].min())), max(g_hi, int(gt[:end].max()))
            sums = []
            for d, r, a in zip(done, rows, parts):
                cut = d + [(m0, r[: whole // _BUCKET_CHUNK])]
                if whole < end:
                    cut.append((m0, _bucket_rows(labels[whole:end], a[whole:end], n_buckets)))
                sums.append(_fsum_buckets(cut, m_lo, m_hi - m_lo + 1))
            min_weight, min_index = min(least, _least(w[:end], lo)) if len(parts) == 1 else (0.0, 0)
            out[lo + end - 1] = BucketSums(
                alpha=alpha, g=g, x=lo + end - 1, lo=m_lo, real=sums[0],
                imag=sums[1] if len(sums) > 1 else None, min_index=min_index, min_weight=min_weight,
            )
        for d, r in zip(done, rows):
            d.append((m0, r))
        g_lo, g_hi = min(g_lo, int(gt.min())), max(g_hi, int(gt.max()))
        if len(parts) == 1:
            least = min(least, _least(w, lo))
        del w, gt, parts, labels  # the next block is built without this one
    return [out[int(x)] for x in xs]


def bucket_sums(alpha: MultiplicativeSpec, g: AdditiveSpec, x: int) -> BucketSums:
    """Bucket the alpha weights on 1..x by the integer value of g.

    One pass over the value-table blocks; see bucket_sums_grid.

    Raises:
        ValueError: g is not integer-valued.
    """
    return bucket_sums_grid(alpha, g, (x,))[0]


def twisted_mean(alpha: MultiplicativeSpec, y, g: AdditiveSpec, x: int) -> complex:
    """E[y^{g(N)}] for N weighted by alpha on 1..x (exact).

    Raises:
        ValueError: the sum of the weights on [1, x] overflows.
        DegenerateSpecError: the weights sum to 0 on [1, x].
        OverflowError: the mean is not finite (y^g(n) overflows).
    """
    y = _twist_base(y)
    if g.integer_valued:
        value = bucket_sums(alpha, g, x).mean(y)
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow raises below
            value = _mean(alpha, x, *_direct_twisted_sums(alpha, y, g, x))
    if not cmath.isfinite(value):
        raise OverflowError(f"{alpha.name}: E[y^g(N)] on [1, {x}] overflows float64 at y = {y}")
    return value


def pmf(alpha: MultiplicativeSpec, g: AdditiveSpec, x: int) -> DistributionTable:
    """Exact probability mass function of g(N) under the alpha weights.

    Requires g to take nonnegative integer values (omega, Omega, or an
    integer table); weights must be real and nonnegative, with a total
    that float64 holds.
    """
    return bucket_sums(alpha, g, x).distribution()


def _cumulative_pieces(blocks) -> Iterator[Tuple[int, np.ndarray]]:
    """(n, cumulative[n : n + len]) piece by piece, cumulative = _PrefixSums()(w[0..x]), w[0] = 0.

    The prefix-sum chunks start at n = 0 and the blocks at n = 1, so each
    piece carries the weights past its last whole chunk over to the next.
    The pieces are summed in place in one array allocated at the first
    block, so, like a block, a piece is valid until the next is requested.
    """
    prefix = _PrefixSums()
    run = np.zeros(1)
    carry = 1  # run[:carry] holds the weights carried over; w[0] = 0 first
    n = 0
    for _, w, _ in blocks:
        if run.size < carry + w.size:
            run = np.concatenate((run[:carry], np.empty(w.size + _CHUNK)))
        piece = run[: carry + w.size]
        piece[carry:] = w
        m = (piece.size // _CHUNK) * _CHUNK
        if m:
            yield n, prefix(piece[:m], out=piece[:m])
            n += m
            run[: piece.size - m] = piece[m:]
        carry = piece.size - m
    if carry:
        yield n, prefix(run[:carry], out=run[:carry])


def sample(alpha: MultiplicativeSpec, x: int, seed: int, count: int, stream: int = 0) -> np.ndarray:
    """Draw `count` iid copies of N (P(N=n) proportional to alpha(n), n <= x).

    Inverse-CDF sampling: uniforms come from the counter-based
    Philox4x64 generator keyed by (seed, stream), so draws are
    reproducible across platforms and independent streams are obtained
    by varying `stream`.  Two passes over the weight blocks replace the
    cumulative weight array: the first checks the weights as
    BucketSums.distribution does and carries the compensated prefix sum
    to the total; the second recomputes the prefix sums a block at a
    time and binary-searches the targets, in sorted order, that fall in
    it.  Each draw is the one a search of the whole cumulative array
    gives.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= stream < 2**64:
        raise ValueError(f"stream must lie in [0, 2**64), got {stream}")
    # the uniforms, their argsort order and the sorted copy
    _require_memory(24 * count, f"{count} draws")
    blocks = _ValueBlocks(alpha, None, x)
    lows = [(0.0, 0)]  # the least weight of each block, and its first n

    def checked():
        for lo, w, gt in blocks:
            if np.iscomplexobj(w):
                raise ValueError(f"{alpha.name}: weight table requires real nonnegative values")
            lows.append(_least(w, lo))
            yield lo, w, gt

    total = 0.0
    for _, cumulative in _cumulative_pieces(checked()):
        total = float(cumulative[-1])
    weight, n_bad = min(lows)
    if weight < 0.0:
        raise ValueError(f"{alpha.name}: negative weight alpha({n_bad}) = {weight:g}")
    _check_finite_total(alpha, x, total)
    if not total > 0.0:
        raise DegenerateSpecError(f"{alpha.name}: total weight is 0 on [1, {x}]")
    bits = np.random.Philox(key=[np.uint64(int(seed) & (2**64 - 1)), np.uint64(int(stream))])
    targets = np.random.Generator(bits).random(count)
    targets *= total
    order = np.argsort(targets)
    ordered = targets[order]
    found = ordered.view(np.int64)  # each sorted target's slot takes its draw once searched
    j = 0
    for n, cumulative in _cumulative_pieces(blocks):
        if j == count:
            break
        k = j + int(np.searchsorted(ordered[j:], cumulative[-1], side="left"))
        found[j:k] = n + np.searchsorted(cumulative, ordered[j:k], side="right")
        j = k
    found[j:] = x + 1  # targets at the total, as a search of the whole array places them
    draws = targets.view(np.int64)  # the targets are spent; their buffer takes the draws
    draws[order] = found
    return draws
