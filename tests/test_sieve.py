import numpy as np
import pytest

from conftest import trial_big_omega, trial_factorize, trial_omega
from selberg_delange.sieve import (
    MAX_SIEVE_X,
    Factorization,
    big_omega,
    build_sieve,
    cached_sieve,
    factor,
    load_sieve,
    omega,
    prime_array,
    primes_up_to,
    save_sieve,
)

PRIMES_BELOW_30 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_factor_examples():
    table = build_sieve(100)
    assert factor(60, table) == Factorization(60, ((2, 2), (3, 1), (5, 1)))
    assert factor(1, table) == Factorization(1, ())
    assert factor(97, table) == Factorization(97, ((97, 1),))
    assert factor(64, table) == Factorization(64, ((2, 6),))


def test_factor_matches_trial_division_exhaustively():
    limit = 20000
    table = build_sieve(limit)
    for n in range(1, limit + 1):
        assert factor(n, table).factors == trial_factorize(n)


def test_factor_matches_trial_division_sampled_high():
    table = build_sieve(10**6)
    rng = np.random.default_rng(20240817)
    for n in rng.integers(20000, 10**6, size=500).tolist():
        assert factor(n, table).factors == trial_factorize(n)


def test_omega_and_big_omega():
    table = build_sieve(3000)
    assert omega(12, table) == 2
    assert big_omega(12, table) == 3
    assert omega(1, table) == 0
    assert big_omega(1, table) == 0
    assert omega(1024, table) == 1
    assert big_omega(1024, table) == 10
    for n in range(1, 3001):
        assert omega(n, table) == trial_omega(n)
        assert big_omega(n, table) == trial_big_omega(n)


def test_factor_rejects_out_of_range():
    table = build_sieve(50)
    for bad in (0, -7, 51):
        with pytest.raises(ValueError):
            factor(bad, table)


def test_build_sieve_rejects_bad_sizes():
    with pytest.raises(ValueError):
        build_sieve(1)
    with pytest.raises(ValueError):
        build_sieve(MAX_SIEVE_X + 1)


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
    assert list(primes_up_to(P)) == want
    assert list(primes_up_to(P, build_sieve(max(P, 2)))) == want
    assert list(primes_up_to(-P, build_sieve(max(P, 2)))) == []


def test_primes_up_to_with_and_without_table():
    direct = list(primes_up_to(10000))
    assert direct == prime_array(10000).tolist()
    # a tiny table does not cover P, so the primes come from prime_array
    small = build_sieve(100)
    assert list(primes_up_to(10000, small)) == direct


def test_minimal_sieve():
    table = build_sieve(2)
    assert factor(1, table).factors == ()
    assert factor(2, table).factors == ((2, 1),)
    assert list(primes_up_to(2, table)) == [2]


def test_save_load_roundtrip(tmp_path):
    table = build_sieve(1234)
    path = str(tmp_path / "t.sdsieve")
    save_sieve(table, path)
    loaded = load_sieve(path)
    assert loaded.x_max == table.x_max
    assert np.array_equal(loaded.spf, table.spf)


def test_load_rejects_corruption(tmp_path):
    table = build_sieve(500)
    path = tmp_path / "t.sdsieve"
    save_sieve(table, str(path))
    blob = path.read_bytes()

    bad_magic = tmp_path / "m.sdsieve"
    bad_magic.write_bytes(b"XXXXXXXX" + blob[8:])
    with pytest.raises(ValueError):
        load_sieve(str(bad_magic))

    truncated = tmp_path / "s.sdsieve"
    truncated.write_bytes(blob[:-10])
    with pytest.raises(ValueError):
        load_sieve(str(truncated))


def test_cached_sieve_creates_and_repairs(tmp_path):
    cache = str(tmp_path / "cache")
    first = cached_sieve(300, cache)
    files = list((tmp_path / "cache").iterdir())
    assert len(files) == 1
    second = cached_sieve(300, cache)
    assert np.array_equal(first.spf, second.spf)
    # corrupt the cache file: the table is rebuilt, not an error
    files[0].write_bytes(b"garbage")
    repaired = cached_sieve(300, cache)
    assert np.array_equal(repaired.spf, first.spf)
    assert load_sieve(str(files[0])).x_max == 300


def test_cached_sieve_bypass(tmp_path):
    cache = str(tmp_path / "cache")
    cached_sieve(300, cache, use_cache=False)
    assert not (tmp_path / "cache").exists()
