"""Smallest-prime-factor sieve and integer factorization.

A SieveTable holds spf[n] (the least prime factor of n) for every
n <= x_max, which turns factorization of any sieved integer into a
walk of length O(log n).  Tables can be persisted to a small binary
cache file so repeated CLI runs skip reconstruction.

Entries are 32-bit, so the dtype supports x_max up to 2**32 - 1; the
practical ceiling is memory (4 bytes per integer, so 4 GB at 1e9).
Construction at x_max = 1e8 takes a few seconds.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

import numpy as np

CACHE_MAGIC = b"SDSIEVE1"

# dtype bound for 32-bit spf entries
MAX_SIEVE_X = 2**32 - 1


@dataclass(frozen=True)
class SieveTable:
    """Least-prime-factor table for 2 <= n <= x_max.

    spf[n] is the smallest prime dividing n; spf[p] == p exactly when p
    is prime.  spf[0] and spf[1] are padding and never consulted.
    """

    x_max: int
    spf: np.ndarray


@dataclass(frozen=True)
class Factorization:
    """n = prod p**k over the (p, k) pairs, p strictly ascending."""

    n: int
    factors: Tuple[Tuple[int, int], ...]


def build_sieve(x_max: int) -> SieveTable:
    """Construct the least-prime-factor table for 2..x_max.

    Args:
        x_max: inclusive upper bound, 2 <= x_max <= MAX_SIEVE_X.

    Returns:
        SieveTable with a uint32 spf array of length x_max + 1.
    """
    if not isinstance(x_max, (int, np.integer)):
        raise ValueError(f"x_max must be an integer, got {x_max!r}")
    if x_max < 2 or x_max > MAX_SIEVE_X:
        raise ValueError(f"x_max must be in [2, {MAX_SIEVE_X}], got {x_max}")
    spf = np.zeros(x_max + 1, dtype=np.uint32)
    for p in range(2, math.isqrt(x_max) + 1):
        if spf[p] == 0:
            block = spf[p * p :: p]
            block[block == 0] = p
    # untouched entries >= 2 are prime
    tail = spf[2:]
    unmarked = tail == 0
    tail[unmarked] = np.arange(2, x_max + 1, dtype=np.uint32)[unmarked]
    spf[1] = 1
    spf.flags.writeable = False
    return SieveTable(x_max=int(x_max), spf=spf)


def _check_range(n: int, sieve: SieveTable) -> None:
    if n < 1 or n > sieve.x_max:
        raise ValueError(f"n must be in [1, {sieve.x_max}], got {n}")


def factor(n: int, sieve: SieveTable) -> Factorization:
    """Factor n using the sieve; factor(1) has an empty factor list."""
    _check_range(n, sieve)
    spf = sieve.spf
    m = int(n)
    factors: List[Tuple[int, int]] = []
    while m > 1:
        p = int(spf[m])
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        factors.append((p, k))
    return Factorization(n=int(n), factors=tuple(factors))


def omega(n: int, sieve: SieveTable) -> int:
    """Number of distinct prime divisors of n; omega(1) == 0."""
    _check_range(n, sieve)
    spf = sieve.spf
    m = int(n)
    count = 0
    while m > 1:
        p = int(spf[m])
        count += 1
        while m % p == 0:
            m //= p
    return count


def big_omega(n: int, sieve: SieveTable) -> int:
    """Number of prime divisors of n counted with multiplicity."""
    _check_range(n, sieve)
    spf = sieve.spf
    m = int(n)
    count = 0
    while m > 1:
        m //= int(spf[m])
        count += 1
    return count


def _primes_from_table(sieve: SieveTable, limit: int) -> np.ndarray:
    values = np.arange(2, limit + 1, dtype=np.uint32)
    return values[sieve.spf[2 : limit + 1] == values]


def _simple_prime_array(limit: int) -> np.ndarray:
    """Boolean-sieve primes up to limit, without an spf table."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


def primes_up_to(P: int, sieve: Optional[SieveTable] = None) -> Iterator[int]:
    """Yield the primes <= P in increasing order.

    Reads the spf table when it covers P, and prime_array otherwise, so
    P may exceed sieve.x_max (or sieve may be None).
    """
    if sieve is not None and 2 <= P <= sieve.x_max:
        yield from _primes_from_table(sieve, P).tolist()
    else:
        yield from prime_array(P).tolist()


@lru_cache(maxsize=16)
def prime_array(P: int) -> np.ndarray:
    """Primes <= P as an int64 array from a boolean sieve (cached across callers)."""
    arr = _simple_prime_array(P)
    arr.flags.writeable = False
    return arr


def save_sieve(sieve: SieveTable, path: str) -> None:
    """Write the table as magic, x_max (u64 LE), then spf entries (u32 LE)."""
    with open(path, "wb") as fh:
        fh.write(CACHE_MAGIC)
        fh.write(np.uint64(sieve.x_max).astype("<u8").tobytes())
        fh.write(sieve.spf.astype("<u4", copy=False).tobytes())


def load_sieve(path: str) -> SieveTable:
    """Read a table written by save_sieve, validating magic and length."""
    with open(path, "rb") as fh:
        magic = fh.read(len(CACHE_MAGIC))
        if magic != CACHE_MAGIC:
            raise ValueError(f"not a sieve cache file: {path}")
        header = fh.read(8)
        if len(header) != 8:
            raise ValueError(f"truncated sieve cache header: {path}")
        x_max = int(np.frombuffer(header, dtype="<u8")[0])
        body = fh.read()
    expected = 4 * (x_max + 1)
    if len(body) != expected:
        raise ValueError(
            f"sieve cache length mismatch: expected {expected} bytes of "
            f"entries for x_max={x_max}, found {len(body)}"
        )
    spf = np.frombuffer(body, dtype="<u4").copy()
    spf.flags.writeable = False
    return SieveTable(x_max=x_max, spf=spf)


def cached_sieve(x_max: int, cache_dir: Optional[str], use_cache: bool = True) -> SieveTable:
    """Build a sieve, reusing or creating a cache file when possible.

    Cache files are keyed by x_max inside cache_dir; a corrupt file is
    rebuilt and overwritten rather than raised to the caller.
    """
    if not use_cache or cache_dir is None:
        return build_sieve(x_max)
    path = os.path.join(cache_dir, f"spf_{x_max}.sdsieve")
    if os.path.exists(path):
        try:
            table = load_sieve(path)
            if table.x_max == x_max:
                return table
        except (ValueError, OSError):
            pass
    table = build_sieve(x_max)
    os.makedirs(cache_dir, exist_ok=True)
    save_sieve(table, path)
    return table
