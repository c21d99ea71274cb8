"""Prime listing for both engines.

prime_array(P) lists the primes <= P from a boolean sieve of
Eratosthenes over the odd numbers (one byte per odd integer, 32 ms at
P = 1e7) and memoises the result, so the Euler products and the value tables of one run share it.
The exact engine reads the primes up to sqrt(x) for its sweep and the
primes above sqrt(x) for its cofactor gather; nothing needs a
least-prime-factor table.

_require_memory is the guard on the size of x: prime_array and the
value tables estimate their bytes before allocating anything and raise
ValueError when the estimate exceeds physical memory.  The value
tables hold a block at a time, so they are charged for the sieve alone;
the bucket sums also charge the rows they keep for the values of g.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np


def _physical_memory() -> int:
    """Bytes of physical memory on this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def _require_memory(nbytes: int, what: str) -> None:
    """Raise ValueError when nbytes exceeds the machine's physical memory."""
    total = _physical_memory()
    if nbytes > total:
        raise ValueError(
            f"{what}: need about {nbytes / 2**30:.3g} GiB, "
            f"more than the {total / 2**30:.3g} GiB of physical memory"
        )


def _sieve_bytes(P: int) -> int:
    """Bytes prime_array(P) allocates: a bool per odd integer, an int64 per prime.

    pi(P) < 1.25506 P / ln P for P > 1 (Rosser and Schoenfeld, 1962).
    """
    if P < 2:
        return 0
    return (P + 1) // 2 + 8 * int(1.25506 * P / math.log(P))


def _simple_prime_array(limit: int) -> np.ndarray:
    """Primes up to limit from a boolean sieve of the odd numbers.

    Index i stands for 2i + 1.  Index 0 (the number 1) is left set, so
    that the index array maps in place onto 1, 3, 5, 7, ...; its first
    entry then becomes the prime 2.
    """
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (math.isqrt(limit) - 1) // 2 + 1):
        if is_prime[i]:
            p = 2 * i + 1
            is_prime[p * p // 2 :: p] = False
    primes = np.flatnonzero(is_prime).astype(np.int64, copy=False)
    primes *= 2
    primes += 1
    primes[0] = 2
    return primes


@lru_cache(maxsize=16)
def prime_array(P: int) -> np.ndarray:
    """Primes <= P as an int64 array from a boolean sieve (cached across callers)."""
    _require_memory(_sieve_bytes(P), f"the prime sieve to {P}")
    arr = _simple_prime_array(P)
    arr.flags.writeable = False
    return arr
