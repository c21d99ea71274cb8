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
names the first (p, k) the sweep would reach.  Both tables hold real
values, float64 (int64 for integer-valued g): a value with a nonzero
imaginary part is an error, and complex twists of alpha come from the
real bucket sums below.  A spec's series (k_value for g) gives every
value but the entries its exceptions list, and of the built-ins only
`perturbed` has none.  A one-term series gives one scalar unless an
entry at that power lies among the primes, so no array over the large
primes is built, and a value of 1 (0 for g) gathers nothing.  A pass
allocates its working arrays once: the tables, the tail's positions
and the gather's index and offsets.  It fills the runs of the tail and
of the gather in groups of _TEMP_ITEMS entries, so no temporary grows
with x (malloc returns a larger one to the system after every block,
to be faulted in again at the next).  A yielded block is valid until
the next is requested.

Buckets.  Every exact statistic of g(N) is a function of the sums
S_v(x) = sum of alpha(n) over n <= x with g(n) = v, one for each value
v that g takes: the twisted sum is sum_v y^v S_v, the normalizing sum is
sum_v S_v, and the pmf is S_v over that total.  Each run (below) labels
its n by the offset g(n) - min g when g is integer-valued and its span
on the run is at most _DENSE_SPAN, and by np.unique otherwise, whose
sort costs about six times as much; the offsets key every integer of the
span, taken or not.  bucket_sums_grid makes one pass over the blocks for
a whole x grid; each statistic BucketSums gives then costs O(#values),
about 25 for omega.

Every bucket sum and partial sum is correctly rounded: a pass sums each
run of at most _TEMP_ITEMS n by value in exact level sums (_extract),
and fsum of each value's level sums rounds S_v once.  No sum depends on
the order of its terms, so every exact result has the same bits at any
_BLOCK, but for which untaken integers BucketSums.values lists.  A run
with a weight that is not finite or about 2^1008 or more is summed as
it stands, in one level: its sum overflows or comes close to it.
sample's prefix sums alone read the blocks through _pieces, in whole
_CHUNKs from n = 0, so its compensated cumulative weights are the same
at any block length.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .errors import DegenerateSpecError, DomainError
from .funcs import AdditiveSpec, MultiplicativeSpec, _listed, prime_power_values
from .sieve import _require_memory, _sieve_bytes, prime_array
from .special import cexpm1, cpow

# n per chunk of sample's prefix sums, whose running offset is compensated once a chunk
_CHUNK = 1024

# widest span of an integer g on a run that is labelled by offsets.
# omega and Omega span at most 33 up to x = 1e10, so they never sort; a
# wider g is keyed by the values it takes, because the offsets keep a
# column per integer of the span in every level sum, taken or not: a
# table value of 60000 would keep 60001 columns per run of n
_DENSE_SPAN = 64

# n per value-table block
_BLOCK = 1 << 16

# entries per temporary of the tail and the gather (int64: 64 KiB), and
# n per run of the sums, so that a pass, which allocates its block
# arrays once, does not hand memory back to the system and fault it in
# again at every block
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
        columns.append(_listed(spec, len(columns) + 1, small[: len(powers)]))
        powers = [q * p for q, p in zip(powers, primes) if q * p <= x]
    return [[column[i] for column in columns if i < len(column)] for i in range(len(primes))]


def _compact(values: np.ndarray):
    """values[0] when there are entries and all have the same bits, else values."""
    if not values.size:
        return values
    raw = np.ascontiguousarray(values).view(np.int64).reshape(values.size, -1)
    return values[0] if (raw == raw[0]).all() else values


@dataclass(frozen=True)
class _Recipe:
    """One value table as steps: a start value, the sweep of the primes
    p <= sqrt(x), then one gather of the primes above sqrt(x).

    A step (pk, nxt, v) applies op(., v) at the multiples of pk, except
    those of nxt when nxt is nonzero.  The steps from tail on are applied
    together, by one op.at per block.  tail_values and gather_values hold
    one value for all their steps or primes, or one per step or gather
    prime.
    """

    start: float
    dtype: type
    op: Callable
    steps: List[Tuple[int, int, object]]
    moduli: np.ndarray
    tail: int
    tail_values: object
    gather_primes: np.ndarray
    gather_values: object

    def work(self, block: int) -> Tuple[np.ndarray, np.ndarray]:
        """The working arrays of one pass of blocks of at most `block` n,
        allocated once: the table and the positions of the tail."""
        tail = int(((block - 1) // self.moduli[self.tail :] + 1).sum())
        return np.empty(block, dtype=self.dtype), np.empty(tail, dtype=np.int64)

    # an overflowing weight is reported by the finite-total checks
    @np.errstate(over="ignore")
    def block(self, lo: int, hi: int, gather: Callable, work: Tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        size = hi - lo
        a = work[0][:size]
        a.fill(self.start)
        firsts = -lo % self.moduli
        head = firsts[: self.tail].tolist()
        # most steps of the larger prime powers have no multiple in the block
        for i in [i for i, first in enumerate(head) if first < size]:
            pk, nxt, v = self.steps[i]
            if nxt:
                at = np.arange(head[i], size, pk)
                at = at[(at + lo) % nxt != 0]
                a[at] = self.op(a[at], v)
            else:
                view = a[head[i] :: pk]
                self.op(view, v, out=view)
        if self.tail < len(self.steps):
            # op.at applies its positions in order, so each n still sees the steps in order
            moduli = self.moduli[self.tail :]
            counts = np.maximum((size - 1 - firsts[self.tail :]) // moduli + 1, 0)
            values = self.tail_values if np.ndim(self.tail_values) == 0 else np.repeat(self.tail_values, counts)
            self.op.at(a, _runs(firsts[self.tail :], moduli, counts, work[1]), values)
        if len(self.gather_primes):
            at, index = gather(self.gather_primes, lo, hi)
            values = self.gather_values if np.ndim(self.gather_values) == 0 else self.gather_values[index]
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


def _recipe(start, dtype, op, steps, large, values, keep) -> _Recipe:
    """The _Recipe of a sweep and of the gather of the large primes where
    keep holds; values and keep are 0-d for one value at them all."""
    if keep.ndim == 0:
        large, values = large if keep else large[:0], values[()]
    else:
        if not keep.all():
            large, values = large[keep], values[keep]
        values = _compact(values)
    moduli = np.array([pk for pk, _, _ in steps], dtype=np.int64)
    # the tail: the last steps, all of moduli >= _TAIL_MODULUS and none excluding multiples
    small = np.flatnonzero(moduli < _TAIL_MODULUS)
    exact = [i for i, (_, nxt, _) in enumerate(steps) if nxt]
    tail = max([int(small[-1]) + 1 if small.size else 0] + [i + 1 for i in exact[-1:]])
    tail_values = _compact(np.array([v for _, _, v in steps[tail:]]))
    return _Recipe(start, dtype, op, steps, moduli, tail, tail_values, large, values)


def _multiplicative_value(spec: MultiplicativeSpec, p: int, k: int, v: complex) -> float:
    """f(p^k), checked as the tables require."""
    if not cmath.isfinite(v):
        raise ValueError(f"{spec.name}: non-finite value at ({p},{k})")
    if v.imag != 0.0:
        raise ValueError(f"{spec.name}: tables require real values, got {v} at ({p},{k})")
    return v.real


def _multiplicative_recipe(spec: MultiplicativeSpec, x: int, small: np.ndarray, large: np.ndarray) -> _Recipe:
    """The steps of f(n) for n <= x, with the checks of the whole table."""
    steps: List[Tuple[int, int, float]] = []
    for p, row in zip(small.tolist(), _swept_rows(spec, x, small)):
        values = [_multiplicative_value(spec, p, k, complex(v)) for k, v in enumerate(row, start=1)]
        has_zero = 0.0 in values
        # f(p) itself, as the gather of the large primes applies it, then f(p^k)/f(p^(k-1))
        ratios = [] if has_zero else values[:1] + [v / prev for v, prev in zip(values[1:], values)]
        if has_zero or not all(math.isfinite(r) for r in ratios):
            # multiply on the exact-exponent classes p^k || n; a ratio
            # after a zero, or past a tiny value, is not finite
            for k, v in enumerate(values, start=1):
                nxt = p ** (k + 1)
                steps.append((p**k, nxt if nxt <= x else 0, v))
            continue
        pk = p
        for ratio in ratios:
            if ratio != 1.0:
                steps.append((pk, 0, ratio))
            pk *= p
    # primes above sqrt(x) divide each n <= x at most once, and last
    values = prime_power_values(spec, 1, large)
    first = np.flatnonzero(~np.isfinite(values) | (values.imag != 0.0))
    if len(first):
        i = int(first[0])
        _multiplicative_value(spec, int(large[i]), 1, complex(values.flat[i]))  # raises for this prime
    values = values.real
    return _recipe(1.0, np.float64, np.multiply, steps, large, values, values != 1.0)


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
    return _recipe(0, dtype, np.add, steps, large, deltas.astype(dtype, copy=False), deltas != 0.0)


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
    """alpha(n) and g(n) for 1 <= n <= x as blocks (lo, alpha[lo:hi], g[lo:hi])
    of _BLOCK n, the last shorter.

    A side without a spec yields None.  The constructor makes every
    check of the values, in the order a sweep of the whole table meets
    them, before any block is built; each iteration is one pass, which
    allocates its working arrays once, so a yielded block is valid until
    the next is requested.  The sums do not depend on the order of their
    terms, and sample reads the blocks through _pieces, so the block
    length changes no bit of any result.

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
        sides = [None if recipe is None else (recipe, recipe.work(block)) for recipe in (self.alpha, self.g)]
        gather = _Gather(block)
        for lo in range(1, self.x + 1, block):
            hi = min(lo + block, self.x + 1)
            w, gt = (None if side is None else side[0].block(lo, hi, gather, side[1]) for side in sides)
            yield lo, w, gt


def _pieces(blocks, chunk: int, lead: int) -> Iterator[Tuple[int, np.ndarray]]:
    """sample's weights: the blocks (lo, w, ...) of a pass cut again into
    pieces (n, w) of whole `chunk`-blocks aligned at n = 1 - lead, after
    `lead` zeros; only the last piece may end inside a chunk.

    A block's entries past its last whole chunk are carried into the next
    piece.  A block of whole chunks, with nothing carried, is yielded as
    its own view; other pieces are assembled in one array.  A piece is
    valid until the next is requested, and its consumer may overwrite it.
    """
    carried = None  # the entries carried over, at its head
    carry, n = lead, 1 - lead
    for _, a, *_ in blocks:
        size = carry + a.size
        if carried is None and (carry or size % chunk):
            carried = np.zeros(chunk, a.dtype)  # the lead zeros first
        if carry:
            if carried.size < size:
                carried = np.concatenate((carried[:carry], np.empty(size - carry + chunk, carried.dtype)))
            carried[carry:size] = a
            a = carried[:size]
        m = size - size % chunk
        if m:
            yield n, a[:m]
            n += m
        carry = size - m
        if carry:
            carried[:carry] = a[m:]
    if carry:
        yield n, carried[:carry]


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


# a sum that overflows is reported by the finite-total checks
@np.errstate(over="ignore", invalid="ignore")
def _extract(w: np.ndarray, add: Callable[[np.ndarray], np.ndarray]) -> List[np.ndarray]:
    """Level sums add(q) of parts q that add up to the weights w exactly,
    by error-free extraction (Rump, Ogita and Oishi, Accurate
    floating-point summation part I, SIAM J. Sci. Comput. 31, 2008).

    With |w| < 2^t and w.size < 2^b, sigma = 1.5 * 2^e, e = t + b + 1,
    rounds each w to q = (w + sigma) - sigma, a multiple of ulp(sigma),
    and any sum of w.size such q is a multiple of it below 2^(e - 1), so
    add sums them exactly in any order.  The remainder w - q, exact and at
    most ulp(sigma) / 2, is extracted in turn until it is 0, as it is once
    ulp(sigma) is the least subnormal.  Where w is not finite or e passes
    1023 (sigma would overflow), add sums w as it stands.
    """
    levels = []
    while True:
        top = max(float(w.max(initial=0.0)), -float(w.min(initial=0.0)))
        e = math.frexp(top)[1] + w.size.bit_length() + 1
        if not math.isfinite(top) or e > 1023:
            return levels + [add(w)]
        sigma = math.ldexp(1.5, e)
        q = w + sigma
        q -= sigma
        levels.append(add(q))
        w = w - q
        if not w.any():
            return levels


def _run_sums(w: np.ndarray, gt: Optional[np.ndarray]) -> Tuple[np.ndarray, np.ndarray]:
    """The values of g on a run of n, in increasing order (0 alone where g
    is None), and a row of exact sums of the weights w by them per level
    of _extract.  An integer g whose span on the run is at most
    _DENSE_SPAN is labelled by the offset from its least value, and every
    integer of the span is a value; any other g by np.unique, a sort.
    """
    if gt is None:
        return np.zeros(1, dtype=np.int64), np.array(_extract(w, partial(np.sum, keepdims=True)))
    least, most = gt.min(), gt.max()
    if gt.dtype.kind == "i" and most - least <= _DENSE_SPAN:
        values, labels = np.arange(least, most + 1), gt - least
    else:
        values, labels = np.unique(gt, return_inverse=True)
    return values, np.array(_extract(w, partial(np.bincount, labels)))


def _merge(runs: List[Tuple[np.ndarray, np.ndarray]]) -> Tuple[np.ndarray, np.ndarray]:
    """The values of the runs, in increasing order, and the fsum of each
    one's level sums in every run: its correctly rounded sum."""
    keys = np.concatenate([np.broadcast_to(v, rows.shape).ravel() for v, rows in runs])
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
    entries = np.concatenate([rows.ravel() for _, rows in runs])[order]
    return keys[starts], np.array([_fsum(part.tolist()) for part in np.split(entries, starts[1:])])


def _least(w: np.ndarray, lo: int) -> Tuple[float, int]:
    """The least of the weights w of n = lo, lo + 1, ..., and its first n."""
    i = int(np.argmin(w))
    return float(w[i]), lo + i


def _sum_pass(alpha: MultiplicativeSpec, g: Optional[AdditiveSpec], grid: List[int]) -> Iterator[Tuple]:
    """(x, values, sums, least) at each x of grid, in order, from one pass
    over the blocks cut at the grid x inside them: the values g takes on
    [1, x] (0 alone where g is None), the correctly rounded sum of
    alpha(n) over the n of each, and the least weight with its first n.

    Raises:
        ValueError: the level sums for the values of g exceed physical memory.
    """
    runs: List[Tuple[np.ndarray, np.ndarray]] = []  # (values, level sums) of the runs passed
    held = 0  # entries of their level sums
    least = (math.inf, 0)  # the least weight so far and its first n
    for lo, w, gt in _ValueBlocks(alpha, g, grid[-1]):
        ends = _ends(grid, lo, w.size)
        cuts = sorted({*ends, w.size})
        for start, end in zip([0] + cuts, cuts):
            for s in range(start, end, _TEMP_ITEMS):
                run = slice(s, min(s + _TEMP_ITEMS, end))
                runs.append(_run_sums(w[run], None if gt is None else gt[run]))
                held += runs[-1][1].size
            if g is not None:
                # 8 bytes an entry for the level sums, and 40 for the merge's keys, order and sorted copies
                _require_memory(48 * held, f"bucket sums of {g.name} by its values to x = {grid[-1]}")
            least = min(least, _least(w[start:end], lo + start))
            if end in ends:
                yield (lo + end - 1, *_merge(runs), least)


def partial_sum_grid(spec: MultiplicativeSpec, xs: Sequence[int]) -> List[complex]:
    """Exact sum of f(n) over 1 <= n <= x at every x in xs, correctly
    rounded, from one pass over the blocks; complex, with imaginary part
    0, as the twisted sums are."""
    sums = {x: complex(real[0]) for x, _, real, _ in _sum_pass(spec, None, _grid(xs))}
    for x, total in sums.items():  # in grid order
        _check_finite_total(spec, x, total)
    return [sums[int(x)] for x in xs]


@dataclass(frozen=True)
class DistributionTable:
    """Exact distribution of g(N) for N drawn with weights alpha(n), n <= x:
    int64 values for integer-valued g, float64 otherwise."""

    x: int
    values: np.ndarray
    probabilities: np.ndarray
    mean: float
    variance: float

    def tail_probability(self, threshold: float) -> float:
        """P(g >= threshold), summing the pmf over the values >= threshold."""
        return min(1.0, float(math.fsum(self.probabilities[self.values >= threshold].tolist())))


def _twist_base(y) -> complex:
    y = complex(y)
    if y == 0:
        raise ValueError("twist parameter y must be nonzero")
    return y


def _check_finite_total(alpha: MultiplicativeSpec, x: int, total: complex) -> None:
    if not cmath.isfinite(total):
        raise ValueError(f"{alpha.name}: total weight on [1, {x}] overflows float64")


def _mean(alpha: MultiplicativeSpec, x: int, num: complex, den: complex) -> complex:
    _check_finite_total(alpha, x, den)
    if den == 0:
        raise DegenerateSpecError(f"{alpha.name}: zero normalizing sum on [1, {x}]")
    return num / den


def _finite(alpha: MultiplicativeSpec, x: int, y: complex, value: complex) -> complex:
    """value, a sum or mean of y^g(n) alpha(n) on [1, x], once it is finite.

    Raises:
        OverflowError: it is not (y^g(n) overflows).
    """
    if not cmath.isfinite(value):
        raise OverflowError(f"{alpha.name}: E[y^g(N)] on [1, {x}] overflows float64 at y = {y}")
    return value


def _poisson_factor(alpha: MultiplicativeSpec, g: AdditiveSpec, x: int, z: complex) -> complex:
    """exp(-c rho ln ln x (e^z - 1)), rho = alpha.rho and c = g.k_value(1),
    g's generic prime value: the mod-Poisson normalization."""
    if x < 3:
        raise ValueError(f"x must be >= 3 for ln ln x > 0, got {x}")
    if g.k_value is None:
        raise ValueError(f"additive spec {g.name!r} has no generic prime value; the residual needs one")
    return cmath.exp(-(complex(alpha.rho) * (g.k_value(1) * math.log(math.log(x)))) * cexpm1(z))


@dataclass(frozen=True)
class BucketSums:
    """S_v = sum of alpha(n) over n <= x with g(n) = v, for the values v of g.

    values holds the v in increasing order (int64 for integer-valued g,
    where it may hold integers between them that g does not take, whose
    S_v is 0, and which ones follows the runs of the sums; float64
    otherwise), and real[i] holds S_{values[i]}, correctly rounded.
    Every exact statistic of g(N) reads these sums, complex twists too.
    min_index is the first n of least weight, for the pmf's sign check.
    """

    alpha: MultiplicativeSpec
    g: AdditiveSpec
    x: int
    values: np.ndarray
    real: np.ndarray
    min_index: int
    min_weight: float

    def total(self) -> complex:
        """sum of alpha(n) over 1 <= n <= x, as the fsum of the rounded
        S_v (partial_sum_grid rounds it once); not finite when it overflows."""
        return complex(_fsum(self.real.tolist()))

    def _sum(self, y: complex) -> complex:
        """sum_v y^v S_v, finite or not.

        Raises:
            DomainError: y lies on (-inf, 0) and some value is not an integer.
        """
        if y.imag == 0.0 and y.real < 0.0 and (self.values != np.floor(self.values)).any():
            raise DomainError(f"y = {y} is on the branch cut for non-integer additive values")
        try:
            terms = [cpow(y, v) * s for v, s in zip(self.values.tolist(), self.real.tolist())]
        except OverflowError:  # cmath.exp in a non-integer power; integer powers give inf
            return complex(math.inf)
        return complex(_fsum([t.real for t in terms]), _fsum([t.imag for t in terms]))

    def twisted_sum(self, y) -> complex:
        """sum of y^{g(n)} alpha(n) over 1 <= n <= x, as sum_v y^v S_v,
        with y^v on the principal branch.

        Raises:
            DomainError: y lies on (-inf, 0) and g takes a non-integer value.
            OverflowError: the sum is not finite (y^g(n) overflows).
        """
        y = _twist_base(y)
        return _finite(self.alpha, self.x, y, self._sum(y))

    def mean(self, y) -> complex:
        """E[y^{g(N)}] for N weighted by alpha on 1..x.

        Raises:
            DomainError: y lies on (-inf, 0) and g takes a non-integer value.
            ValueError: the sum of the weights on [1, x] overflows.
            DegenerateSpecError: the weights sum to 0 on [1, x].
            OverflowError: the mean is not finite (y^g(n) overflows).
        """
        y = _twist_base(y)
        return _finite(self.alpha, self.x, y, _mean(self.alpha, self.x, self._sum(y), self.total()))

    def residual(self, z) -> complex:
        """Normalized MGF psi_x(z) = exp(-c rho ln ln x (e^z - 1)) E[e^{z g(N)}],
        with rho = alpha.rho and c = g.k_value(1), g's generic prime value.

        As x grows this converges to the limiting function psi(z); the
        difference from psi is the object of the convergence studies.

        Raises:
            ValueError: x < 3 (ln ln x must be positive), g states no
                k_value, or mean's.
            OverflowError: the residual is not finite, or mean's.
        """
        z = complex(z)
        y = cmath.exp(z)
        return _finite(self.alpha, self.x, y, _poisson_factor(self.alpha, self.g, self.x, z) * self.mean(y))

    def distribution(self) -> DistributionTable:
        """The pmf of g(N); see pmf.

        Raises:
            ValueError: alpha negative somewhere, its total overflows,
                or g negative.
            DegenerateSpecError: all weights vanish.
        """
        name = self.alpha.name
        if self.min_weight < 0.0:
            raise ValueError(f"{name}: negative weight alpha({self.min_index}) = {self.min_weight:g}")
        total = self.total().real
        _check_finite_total(self.alpha, self.x, total)
        if not total > 0.0:
            raise DegenerateSpecError(f"{name}: total weight is 0 on [1, {self.x}]")
        if self.values[0] < 0:
            raise ValueError(f"{self.g.name} takes negative values; pmf requires nonnegative")
        probabilities = self.real / total
        keep = probabilities > 0.0
        values = self.values[keep]
        probabilities = probabilities[keep]
        mean = math.fsum((values * probabilities).tolist())
        variance = math.fsum(((values - mean) ** 2 * probabilities).tolist())
        return DistributionTable(
            x=self.x, values=values, probabilities=probabilities, mean=mean, variance=variance
        )


def bucket_sums_grid(alpha: MultiplicativeSpec, g: AdditiveSpec, xs: Sequence[int]) -> List[BucketSums]:
    """bucket_sums at every x in xs, from one pass over the blocks: each
    S_v correctly rounded, with the same bits at any block length.

    Raises:
        ValueError: the level sums for the values of g exceed physical memory.
    """
    out = {
        x: BucketSums(alpha=alpha, g=g, x=x, values=values, real=real, min_index=n, min_weight=weight)
        for x, values, real, (weight, n) in _sum_pass(alpha, g, _grid(xs))
    }
    return [out[int(x)] for x in xs]


def bucket_sums(alpha: MultiplicativeSpec, g: AdditiveSpec, x: int) -> BucketSums:
    """Bucket the alpha weights on 1..x by the value of g.

    One pass over the value-table blocks; see bucket_sums_grid.
    """
    return bucket_sums_grid(alpha, g, (x,))[0]


def pmf(alpha: MultiplicativeSpec, g: AdditiveSpec, x: int) -> DistributionTable:
    """Exact probability mass function of g(N) under the alpha weights.

    Requires g to take nonnegative values; weights must be real and
    nonnegative, with a total that float64 holds.
    """
    return bucket_sums(alpha, g, x).distribution()


def sample(alpha: MultiplicativeSpec, x: int, seed: int, count: int, stream: int = 0) -> np.ndarray:
    """Draw `count` iid copies of N (P(N=n) proportional to alpha(n), n <= x).

    Inverse-CDF sampling: uniforms come from the counter-based
    Philox4x64 generator keyed by (seed, stream), so draws are
    reproducible across platforms and independent streams are obtained
    by varying `stream`.  Two passes over the weights, in pieces of whole
    _CHUNKs from n = 0 (w[0] = 0), replace the cumulative weight array:
    the first checks the weights as BucketSums.distribution does and
    carries the compensated prefix sum to the total; the second
    recomputes the prefix sums a piece at a time and binary-searches the
    targets, in sorted order, that fall in it.  Each draw is the one a
    search of the whole cumulative array gives, at any block length.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if not 0 <= stream < 2**64:
        raise ValueError(f"stream must lie in [0, 2**64), got {stream}")
    # the uniforms, their argsort order and the sorted copy
    _require_memory(24 * count, f"{count} draws")
    blocks = _ValueBlocks(alpha, None, x)
    lows = []  # the least weight of each piece, and its first n
    prefix = _PrefixSums()
    for n, w in _pieces(blocks, _CHUNK, lead=1):  # w[0] = 0
        lows.append(_least(w, n))
        total = float(prefix(w, out=w)[-1])
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
    prefix = _PrefixSums()
    for n, w in _pieces(blocks, _CHUNK, lead=1):  # w[0] = 0
        if j == count:
            break
        cumulative = prefix(w, out=w)
        k = j + int(np.searchsorted(ordered[j:], cumulative[-1], side="left"))
        found[j:k] = n + np.searchsorted(cumulative, ordered[j:k], side="right")
        j = k
    found[j:] = x + 1  # targets at the total, as a search of the whole array places them
    draws = targets.view(np.int64)  # the targets are spent; their buffer takes the draws
    draws[order] = found
    return draws
