"""Prime listing for both engines.

prime_array(P) lists the primes <= P from a boolean sieve of
Eratosthenes (one byte per integer, 54 ms at P = 1e7) and memoises the
result, so the Euler products and the value tables of one run share it.
The exact engine reads the primes up to sqrt(x) for its sweep and the
primes above sqrt(x) for its cofactor gather; nothing needs a
least-prime-factor table.

_require_memory is the guard on the size of x: prime_array and the
value tables estimate their bytes before allocating anything and raise
ValueError when the estimate exceeds physical memory.
"""

from __future__ import annotations

import math
import os
from functools import lru_cache

import numpy as np


def _require_memory(nbytes: int, what: str) -> None:
    """Raise ValueError when nbytes exceeds the machine's physical memory."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if nbytes > total:
        raise ValueError(
            f"{what}: need about {nbytes / 2**30:.3g} GiB, "
            f"more than the {total / 2**30:.3g} GiB of physical memory"
        )


def _sieve_bytes(P: int) -> int:
    """Bytes prime_array(P) allocates: a bool per integer, an int64 per prime.

    pi(P) < 1.25506 P / ln P for P > 1 (Rosser and Schoenfeld, 1962).
    """
    if P < 2:
        return 0
    return P + 1 + 8 * int(1.25506 * P / math.log(P))


def _simple_prime_array(limit: int) -> np.ndarray:
    """Boolean-sieve primes up to limit."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).astype(np.int64, copy=False)


@lru_cache(maxsize=16)
def prime_array(P: int) -> np.ndarray:
    """Primes <= P as an int64 array from a boolean sieve (cached across callers)."""
    _require_memory(_sieve_bytes(P), f"the prime sieve to {P}")
    arr = _simple_prime_array(P)
    arr.flags.writeable = False
    return arr
