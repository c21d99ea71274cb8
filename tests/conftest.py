"""Shared brute-force oracles: everything here but whole_table uses
trial division and direct summation only, independent of the package's
sieve, table machinery and prime_power_values.  whole_table writes the
package's streamed value tables into one array; checked against these
oracles, it is the tests' reference for the tables.  counted counts a
spec's value_at calls.  Also the rows_per_pass fixture, which counts the
Euler kernel's passes, and block_length, which sets the length of the
value-table blocks."""

import contextlib
import dataclasses
import math
from typing import Dict, Tuple

import numpy as np
import pytest

from selberg_delange import euler, exact
from selberg_delange.funcs import AdditiveSpec


@pytest.fixture
def rows_per_pass(monkeypatch):
    """The number of rows of each pass of the Euler kernel, in call order."""
    rows_per_pass = []
    local_factors = euler._local_factors

    def counted(rows, *args):
        rows_per_pass.append(len(rows))
        return local_factors(rows, *args)

    monkeypatch.setattr(euler, "_local_factors", counted)
    return rows_per_pass


@contextlib.contextmanager
def block_length(block: int):
    """Value-table blocks of `block` n inside the with-statement."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_BLOCK", block)
        yield


def trial_factorize(n: int) -> Tuple[Tuple[int, int], ...]:
    """Prime factorization by trial division; oracle for the sieve."""
    assert n >= 1
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            k = 0
            while n % d == 0:
                n //= d
                k += 1
            out.append((d, k))
        d += 1 if d == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def trial_omega(n: int) -> int:
    return len(trial_factorize(n))


def trial_big_omega(n: int) -> int:
    return sum(k for _, k in trial_factorize(n))


def value_of(spec, p: int, k: int):
    """f(p^k), or g(p^k), at the one prime p, as the spec states it and
    without funcs.prime_power_values: the listed value where its
    exceptions list (p, k), else the series' coefficients (k_value for
    g) summed in Python in that function's order, Horner's rule in
    u = 1/p from 0 and the last coefficient on the real and imaginary
    parts apart, else value_at."""
    if isinstance(spec, AdditiveSpec):
        coeffs = None if spec.k_value is None else (spec.k_value(k),)
        exceptions = spec.exceptions
    else:
        coeffs = None if spec.series is None else spec.series.coeffs(k)
        exceptions = {} if spec.series is None else spec.series.exceptions
    if (p, k) in exceptions:
        return exceptions[(p, k)]
    if coeffs is None:
        return spec.value_at(p, k)
    if len(coeffs) == 1:
        return coeffs[0]
    u = 1.0 / p
    c = [complex(a) for a in coeffs]
    re = im = 0.0
    for a in reversed(c):
        re, im = re * u + a.real, im * u + a.imag
    return complex(re, im)


def counted(spec):
    """spec with a value_at that counts its calls, as bench/trace_child.py
    builds one; it wraps None for a spec that gives no value_at."""
    calls = []
    value_at = spec.value_at

    def counting(p, k):
        calls.append((p, k))
        return value_at(p, k)

    return dataclasses.replace(spec, value_at=counting), calls


def without_series(spec):
    """spec with its series dropped, whose value_at gives value_of's
    values one prime at a time (int() raises TypeError on an array)."""
    return dataclasses.replace(spec, series=None, value_at=lambda p, k: value_of(spec, int(p), k))


def spec_eval_brute(spec, n: int) -> complex:
    """Evaluate a multiplicative spec at n through trial division."""
    acc = complex(1.0)
    for p, k in trial_factorize(n):
        acc *= complex(value_of(spec, p, k))
    return acc


def additive_eval_brute(g, n: int) -> complex:
    acc = complex(0.0)
    for p, k in trial_factorize(n):
        acc += complex(value_of(g, p, k))
    return acc


def brute_law(alpha, g, x: int) -> Dict[float, float]:
    """The weight of each value of g(n) over n <= x, by trial division: for
    every value g takes, in increasing order, the fsum of alpha(n) over the
    n that take it, for any g: omega, or a fractional or sparse table."""
    law: Dict[float, list] = {}
    for n in range(1, x + 1):
        law.setdefault(additive_eval_brute(g, n).real, []).append(spec_eval_brute(alpha, n).real)
    return {v: math.fsum(weights) for v, weights in sorted(law.items())}


def small_primes(limit: int):
    return [p for p in range(2, limit) if trial_factorize(p) == ((p, 1),)]


def prime_zeta_tail(j, split=200):
    """sum over primes p >= split of p^-j, from mpmath.primezeta."""
    import mpmath

    return mpmath.primezeta(j) - mpmath.fsum(mpmath.mpf(p) ** (-j) for p in small_primes(split))


def geometric_b_lambda0(B, split=200):
    """lambda0 of geometric_B:B from mpmath, written like bench/oracle.py.

        log lambda0 = -log Gamma(B) + sum_p [B log(1 - 1/p) - log(1 - B/p)].

    Primes p < split are summed directly.  For the rest, expanding both
    logs in powers of 1/p gives sum_{j>=2} (B^j - B)/j P_{>=split}(j).
    Needs mpmath.dps set by the caller.
    """
    import mpmath

    B = mpmath.mpf(B)
    head = mpmath.fsum(B * mpmath.log(1 - mpmath.mpf(1) / p) - mpmath.log(1 - B / p) for p in small_primes(split))
    tail = mpmath.nsum(lambda j: (B**j - B) / j * prime_zeta_tail(j, split), [2, mpmath.inf])
    return mpmath.exp(head + tail) / mpmath.gamma(B)


def whole_table(alpha, g, x: int) -> np.ndarray:
    """Entries 0..x of the value table of alpha, or of g when alpha is
    None, from the blocks of exact._ValueBlocks; entry 0 is 0."""
    blocks = [(gt if w is None else w).copy() for _, w, gt in exact._ValueBlocks(alpha, g, x)]
    return np.concatenate([np.zeros(1, dtype=blocks[0].dtype)] + blocks)
