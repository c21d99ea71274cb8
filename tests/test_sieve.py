import tracemalloc

import numpy as np
import pytest

from conftest import trial_big_omega, trial_factorize, trial_omega, whole_table
from selberg_delange.funcs import BIG_OMEGA, OMEGA, unit
from selberg_delange.sieve import _sieve_bytes, prime_array

PRIMES_BELOW_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_array_small():
    assert prime_array(30).tolist() == PRIMES_BELOW_30
    assert prime_array(1).tolist() == []
    assert prime_array(2).tolist() == [2]


@pytest.mark.parametrize("P", [0, 1, 2, 3, 4, 25, 10**4])
def test_prime_array_matches_trial_division(P):
    want = [n for n in range(2, P + 1) if trial_factorize(n) == ((n, 1),)]
    got = prime_array(P)
    assert got.dtype == np.int64
    assert not got.flags.writeable
    assert got.tolist() == want


@pytest.mark.parametrize("P", [10**4, 10**6, 10**7])
def test_sieve_bytes_cover_the_traced_peak(P):
    # the memory guard charges prime_array for what it really allocates
    tracemalloc.start()
    try:
        prime_array.__wrapped__(P)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _sieve_bytes(P) >= peak


def test_omega_and_big_omega():
    # omega and Omega of n, read off the additive value tables
    om = whole_table(None, OMEGA, 3000)
    big = whole_table(None, BIG_OMEGA, 3000)
    assert om[12] == 2
    assert big[12] == 3
    assert om[1] == 0
    assert big[1] == 0
    assert om[1024] == 1
    assert big[1024] == 10
    for n in range(1, 3001):
        assert om[n] == trial_omega(n)
        assert big[n] == trial_big_omega(n)


def test_minimal_sieve():
    # x = 1 has no primes at all; x = 2 has one above sqrt(x)
    assert whole_table(unit(), None, 1).tolist() == [0.0, 1.0]
    assert whole_table(None, OMEGA, 1).tolist() == [0, 0]
    assert whole_table(None, OMEGA, 2).tolist() == [0, 0, 1]


def test_prime_array_rejects_sieve_beyond_memory():
    # the estimate is checked before anything is allocated
    with pytest.raises(ValueError, match="the prime sieve to 10000000000000: need about"):
        prime_array(10**13)
