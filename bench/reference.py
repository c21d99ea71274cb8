"""Fixed reference work that measures how fast the machine runs right now.

    python3 bench/reference.py

run.py runs this before every untraced pass and divides each run's
times by the median time of this file, which cancels the drift in CPU
speed that a shared VM shows over minutes.  The work has the shape of
an `sd` invocation: an interpreter start and a numpy import, a per-prime
Python loop over complex power series (like a truncated Euler product)
and strided sweeps over an array (like a value table).  It takes about
1 s.  Never change it: that would rescale every time the benchmark
reports.
"""

import cmath
import math

import numpy as np


def primes_up_to(n):
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime).tolist()


def product_like(primes, y):
    value_at = lambda p, k: 2.0 * y  # noqa: E731
    logs = []
    for p in primes:
        t = 1.0 / p
        acc, cur = 0j, t
        for k in range(1, max(2, int(48 / math.log2(p))) + 1):
            acc += value_at(p, k) * cur
            cur *= t
        logs.append((2.0 * math.log1p(-t) + cmath.log(1.0 + acc)).real)
    return math.fsum(logs)


def table_like(n, primes):
    w = np.ones(n + 1)
    for p in primes:
        pk = p
        while pk <= n:
            w[pk::pk] *= 1.5
            pk *= p
    return float(w.sum())


if __name__ == "__main__":
    primes = primes_up_to(1_000_000)
    for j in range(30):
        product_like(primes[:20_000], cmath.exp(0.4j * j))
    table_like(1_000_000, primes[:20_000])
