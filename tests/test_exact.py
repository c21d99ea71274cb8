import cmath
import math
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    additive_eval_brute,
    block_length,
    brute_law,
    counted,
    spec_eval_brute,
    trial_big_omega,
    trial_factorize,
    trial_omega,
    value_of,
    whole_table,
)
from selberg_delange import exact, funcs, sieve
from selberg_delange.errors import DegenerateSpecError, DomainError
from selberg_delange.euler import psi
from selberg_delange.exact import (
    BucketSums,
    DistributionTable,
    bucket_sums,
    bucket_sums_grid,
    partial_sum_grid,
    pmf,
    sample,
)
from selberg_delange.funcs import (
    BIG_OMEGA,
    OMEGA,
    AdditiveSpec,
    GrowthBound,
    LocalSeries,
    MultiplicativeSpec,
    euler_phi_over_n,
    geometric_B,
    parse_multiplicative,
    perturbed,
    tabulated_additive,
    tabulated_multiplicative,
    tau_rho,
    theta_omega,
    unit,
)
from selberg_delange.sieve import _sieve_bytes, prime_array
from selberg_delange.special import cpow
from selberg_delange.stats import clt_report


# ---------------------------------------------------------------------------
# correctly rounded sums by error-free extraction


def fsum(a):
    """math.fsum of an array: the correctly rounded sum, the reference of every exact sum."""
    return math.fsum(np.asarray(a, dtype=np.float64).tolist())


def extracted_sums(w, labels, buckets):
    """The fsum of each bucket's level sums from exact._extract, and the levels."""
    levels = exact._extract(w, partial(np.bincount, labels, minlength=buckets))
    return np.array([math.fsum(column) for column in np.array(levels).T.tolist()]), levels


def fsum_by_label(w, labels, buckets):
    return np.array([fsum(w[labels == j]) for j in range(buckets)])


def test_compensated_sum_same_sign_is_fsum_accurate():
    # nonnegative data over 12 decades (the weight-table case): the level
    # sums of each bucket add up to fsum's bits
    rng = np.random.default_rng(1)
    data = rng.random(50000) * 10.0 ** rng.integers(-6, 6, size=50000)
    labels = rng.integers(0, 5, size=50000)
    assert extracted_sums(data, labels, 5)[0].tobytes() == fsum_by_label(data, labels, 5).tobytes()


@pytest.mark.parametrize("size", [0, 1, 1023, 1024, 1025, 4096 + 17])
def test_compensated_sum_error_scales_with_l1_norm(size):
    # signed data over 16 decades: each bucket sum and the one-bucket sum
    # have fsum's bits, so the error is half an ulp of the sum at most,
    # whatever the L1 norm
    rng = np.random.default_rng(size + 1)
    data = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size=size)
    labels = rng.integers(0, 5, size=size)
    assert extracted_sums(data, labels, 5)[0].tobytes() == fsum_by_label(data, labels, 5).tobytes()
    total = exact._extract(data, partial(np.sum, keepdims=True))
    assert math.fsum(np.concatenate(total).tolist()) == math.fsum(data.tolist())


def test_extracted_sums_of_the_weight_tables_take_one_level_or_two():
    # integer and dyadic weights are taken whole at the first level; omega
    # takes the values 0..5 on n <= 8192
    labels = whole_table(None, OMEGA, 8192)[1:]
    for spec, count in [(unit(), 1), (geometric_B(1.5), 1), (theta_omega(1.8168), 2), (tau_rho(0.5), 2),
                        (euler_phi_over_n(), 2)]:
        w = whole_table(spec, None, 8192)[1:]
        got, levels = extracted_sums(w, labels, 6)
        assert len(levels) == count
        assert got.tobytes() == fsum_by_label(w, labels, 6).tobytes()


def test_extracted_sums_of_subnormal_and_zero_weights():
    # f(2) subnormal, so alpha(n) is subnormal at n = 2 mod 4
    w = whole_table(tabulated_multiplicative({(2, 1): 2.2250738585e-313}), None, 10)[1:]
    labels = whole_table(None, OMEGA, 10)[1:]
    got, _ = extracted_sums(w, labels, 3)
    assert got.tobytes() == fsum_by_label(w, labels, 3).tobytes() and got[1] != 0.0
    tiny = np.array([2.2250738585e-313, -5e-324, 1e-310, 5e-324])
    got, levels = extracted_sums(tiny, np.zeros(4, dtype=np.int64), 1)
    assert len(levels) == 1 and got.tolist() == [math.fsum(tiny.tolist())]
    got, levels = extracted_sums(np.zeros(100), np.arange(100) % 3, 3)
    assert len(levels) == 1 and got.tobytes() == np.zeros(3).tobytes()


def test_a_run_beyond_the_extraction_range_keeps_one_bincount():
    # 2048 of these 8192 weights are 1e305: sigma = 1.5 * 2^e would pass
    # the float range, so the run is summed as it stands, and its total
    # overflows
    spec = tabulated_multiplicative({(2, 1): 1e305})
    w = whole_table(spec, None, 8192)[1:]
    labels = whole_table(None, OMEGA, 8192)[1:]
    levels = exact._extract(w, partial(np.bincount, labels))
    assert len(levels) == 1
    assert levels[0].tobytes() == np.bincount(labels, weights=w).tobytes()
    assert exact._fsum(levels[0].tolist()) == math.inf
    # the one-bucket sum overflows too, without a RuntimeWarning
    levels = exact._extract(w, partial(np.sum, keepdims=True))
    assert len(levels) == 1 and levels[0].tolist() == [math.inf]
    with pytest.raises(ValueError, match=r"^tabulated: total weight on \[1, 8192\] overflows float64$"):
        partial_sum_grid(spec, [8192])


def test_compensated_cumsum_prefixes():
    rng = np.random.default_rng(7)
    data = rng.standard_normal(3000) * 10.0 ** rng.integers(-6, 10, size=3000)
    cum = exact._PrefixSums()(data)
    assert cum.shape == data.shape
    for idx in (0, 1, 511, 1024, 2047, 2999):
        assert cum[idx] == pytest.approx(math.fsum(data[: idx + 1].tolist()), rel=1e-14, abs=1e-8)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(0, 5 * exact._CHUNK),
    cuts=st.lists(st.integers(0, 5 * exact._CHUNK), max_size=12),
    seed=st.integers(0, 2**32 - 1),
)
@example(size=3 * exact._CHUNK + 7, cuts=[0, 0, 1, 1, 1024, 1025, 2048, 2500, 2500], seed=0)
def test_prefix_sums_of_any_pieces_have_the_bits_of_one_call(size, cuts, seed):
    # pieces may be empty, shorter than a chunk, or end inside one: the
    # open chunk carries over, so the cut moves no bit of any prefix sum
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size=size)
    want = exact._PrefixSums()(data)
    prefix = exact._PrefixSums()
    bounds = [0] + sorted(min(c, size) for c in cuts) + [size]
    got = [prefix(data[i:j]) for i, j in zip(bounds, bounds[1:])]
    assert np.concatenate(got).tobytes() == want.tobytes()
    # written in place, as sample writes each block
    prefix = exact._PrefixSums()
    pieces = [data[i:j].copy() for i, j in zip(bounds, bounds[1:])]
    assert np.concatenate([prefix(w, out=w) for w in pieces]).tobytes() == want.tobytes()


@pytest.mark.parametrize("lead", [0, 1])
@pytest.mark.parametrize("block", [100, 4096, 5000, 8192], ids=lambda b: f"block{b}")
def test_pieces_are_whole_chunks_carried_across_blocks(block, lead):
    # blocks of a value table fed one by one, after the lead zero at n = 0
    # when there is one, sum in the chunks of one call: the open chunk is
    # carried from block to block, and each block gets its own prefix sums
    x = 20000
    rng = np.random.default_rng(block + lead)
    table = rng.standard_normal(x) * 10.0 ** rng.integers(-8, 8, size=x)
    blocks = [table[lo - 1 : lo - 1 + block] for lo in range(1, x + 1, block)]
    want = exact._PrefixSums()(np.concatenate([np.zeros(lead), table]))
    prefix = exact._PrefixSums()
    pieces = [prefix(np.zeros(lead))] + [prefix(w) for w in blocks]
    assert [p.size for p in pieces] == [lead] + [w.size for w in blocks]
    assert np.concatenate(pieces).tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# value tables


@pytest.mark.parametrize(
    "spec",
    [
        unit(),
        theta_omega(2.5),
        theta_omega(-1.5),
        geometric_B(1.5),
        tau_rho(0.5),
        euler_phi_over_n(),
        tabulated_multiplicative({(2, 1): 0.0, (3, 1): 2.0}, default=1.0),
    ],
    ids=lambda s: s.name,
)
def test_multiplicative_value_table_matches_brute(spec):
    table = whole_table(spec, None, 1000)
    assert table[0] == 0
    assert table[1] == 1
    for n in range(1, 1001):
        want = spec_eval_brute(spec, n)
        assert table[n] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_multiplicative_value_table_dtypes():
    # the tables are real: an imaginary part of -0.0 counts as real, any
    # other is rejected at its prime power
    assert whole_table(unit(), None, 100).dtype == np.float64
    negative_zero = MultiplicativeSpec(
        "negative_zero", lambda p, k: complex(1.5, -0.0), rho=1.5, c0=0.25, growth=GrowthBound(1.5, 1.0)
    )
    assert whole_table(negative_zero, None, 100).tobytes() == whole_table(theta_omega(1.5), None, 100).tobytes()
    with pytest.raises(ValueError, match=r"^theta_omega:0\+1j: tables require real values, got 1j at \(2,1\)$"):
        whole_table(theta_omega(1j), None, 100)
    # the sweep meets the primes in order, each with its powers in order
    late = tabulated_multiplicative({(3, 2): 0.5 + 2j, (5, 1): 1j})
    with pytest.raises(ValueError, match=r"^tabulated: tables require real values, got \(0.5\+2j\) at \(3,2\)$"):
        whole_table(late, None, 100)


def test_multiplicative_value_table_rejects_non_finite():
    bad = MultiplicativeSpec(
        "bad", lambda p, k: math.inf, rho=1.0, c0=0.25, growth=GrowthBound(1.0, 1.0)
    )
    with pytest.raises(ValueError):
        whole_table(bad, None, 100)


def test_value_tables_reject_x_beyond_memory():
    # the estimate is checked before anything is allocated
    for alpha, g in ((unit(), None), (None, OMEGA)):
        with pytest.raises(ValueError, match="value tables to x = 10000000000000: need about"):
            whole_table(alpha, g, 10**13)
    with pytest.raises(ValueError, match="value tables to x = 10000000000000"):
        pmf(unit(), OMEGA, 10**13)


def test_additive_value_table_matches_trial_division():
    om = whole_table(None, OMEGA, 2000)
    big = whole_table(None, BIG_OMEGA, 2000)
    assert om.dtype == np.int64
    assert big.dtype == np.int64
    for n in range(1, 2001):
        assert om[n] == trial_omega(n)
        assert big[n] == trial_big_omega(n)


def test_additive_value_table_fractional_values():
    g = tabulated_additive({(2, 1): 0.5, (3, 2): 1.25})
    table = whole_table(None, g, 100)
    assert table.dtype == np.float64
    for n in range(1, 101):
        assert table[n] == pytest.approx(additive_eval_brute(g, n), abs=1e-15)


def test_additive_value_table_rejects_bad_specs():
    complex_g = AdditiveSpec("cplx", lambda p, k: 1j, integer_valued=False)
    with pytest.raises(ValueError):
        whole_table(None, complex_g, 50)
    lying = AdditiveSpec("lying", lambda p, k: 0.5, integer_valued=True)
    with pytest.raises(ValueError):
        whole_table(None, lying, 50)


# every built-in family, and a table with a zero and a prime above sqrt(1e4)
BUILT_INS = [
    unit(), theta_omega(2.5), theta_omega(-1), geometric_B(1.5), tau_rho(0.5), euler_phi_over_n(),
    perturbed(1.0, 0.5), tabulated_multiplicative({(2, 1): 0.0, (3, 1): 2.0, (101, 1): 0.5}, default=1.5),
    OMEGA, BIG_OMEGA, tabulated_additive({(2, 1): 1.0, (3, 2): 2.0, (101, 1): 3.0}),
]
# a sweep multiplies by f(p), then by f(p^k)/f(p^(k-1)); where that ratio
# rounds, n with p^2 | n differ from trial division in the last bit
ROUNDED_RATIOS = {tau_rho(0.5).name, perturbed(1.0, 0.5).name}


@pytest.mark.parametrize("spec", BUILT_INS, ids=lambda s: s.name)
def test_whole_table_matches_trial_division(spec):
    # whole_table is the tests' reference for the streamed tables
    x = 10**4
    additive = isinstance(spec, AdditiveSpec)
    brute = additive_eval_brute if additive else spec_eval_brute
    want = np.array([0j] + [brute(spec, n) for n in range(1, x + 1)])
    for block in (exact._BLOCK, 1000):
        with block_length(block):
            got = whole_table(None, spec, x) if additive else whole_table(spec, None, x)
        if spec.name in ROUNDED_RATIOS:
            assert got == pytest.approx(want.real, rel=1e-15, abs=0.0)
        else:
            assert got.tobytes() == want.real.astype(got.dtype).tobytes()


# ---------------------------------------------------------------------------
# weights of a distribution


def zeroed_weights(monkeypatch):
    """Every value-table block yields alpha(n) = 0: a law of total 0,
    which no multiplicative spec gives, as alpha(1) = 1."""
    blocks = exact._ValueBlocks.__iter__

    def zeroed(self):
        for lo, w, gt in blocks(self):
            if w is not None:
                w[:] = 0.0
            yield lo, w, gt

    monkeypatch.setattr(exact._ValueBlocks, "__iter__", zeroed)


@pytest.mark.parametrize(
    "spec, x, zeroed, error, message",
    [
        (theta_omega(-1), 50, False, ValueError, "theta_omega:-1: negative weight alpha(2) = -1"),
        # alpha(6) = 1e400 overflows to inf
        (tabulated_multiplicative({(2, 1): 1e200, (3, 1): 1e200}), 10, False, ValueError,
         "tabulated: total weight on [1, 10] overflows float64"),
        (theta_omega(2), 50, True, DegenerateSpecError, "theta_omega:2: total weight is 0 on [1, 50]"),
    ],
    ids=["negative-weight", "overflowing-total", "zero-total"],
)
def test_sample_and_pmf_refuse_the_same_weights_alike(monkeypatch, spec, x, zeroed, error, message):
    # the law checks of sample and pmf are one: a negative weight at its
    # first n, then a total that overflows, then a zero total
    if zeroed:
        zeroed_weights(monkeypatch)
    for run in (lambda: sample(spec, x, 1, 10), lambda: pmf(spec, OMEGA, x)):
        with pytest.raises(error) as info:
            run()
        assert str(info.value) == message


def test_sample_and_pmf_reject_complex_weights():
    for run in (lambda: sample(theta_omega(1j), 50, 1, 10), lambda: pmf(theta_omega(1j), OMEGA, 50)):
        with pytest.raises(ValueError, match=r"^theta_omega:0\+1j: tables require real values, got 1j at \(2,1\)$"):
            run()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "spec, x",
    [
        # alpha(6) = 1e400 overflows to inf
        (tabulated_multiplicative({(2, 1): 1e200, (3, 1): 1e200}), 10),
        # every weight is finite, but 25,000 of them are 1e305
        (tabulated_multiplicative({(2, 1): 1e305}), 10**5),
    ],
    ids=["inf-weight", "finite-weights"],
)
@pytest.mark.parametrize(
    "run",
    [
        lambda spec, x: sample(spec, x, 1, 5),
        lambda spec, x: pmf(spec, OMEGA, x),
        lambda spec, x: bucket_sums(spec, OMEGA, x).mean(2.0),
        lambda spec, x: bucket_sums(spec, tabulated_additive({(2, 1): 0.5}), x).mean(cmath.exp(0.1)),
    ],
    ids=["sample", "pmf", "mean", "direct-mean"],
)
def test_overflowing_total_weight_is_rejected(run, spec, x):
    with pytest.raises(ValueError, match=r"^tabulated: total weight on \[1, \d+\] overflows float64$"):
        run(spec, x)


# ---------------------------------------------------------------------------
# exact sums


def test_partial_sum_enumeration_examples():
    # sum over n <= 10 of 2^omega(n): 1+2+2+2+2+4+2+2+2+4
    assert partial_sum_grid(theta_omega(2), [10])[0] == pytest.approx(23.0, rel=1e-14)
    assert partial_sum_grid(unit(), [50])[0] == pytest.approx(50.0, rel=1e-14)


@pytest.mark.parametrize(
    "spec",
    [theta_omega(2), geometric_B(1.5), euler_phi_over_n(), theta_omega(-1.5)],
    ids=lambda s: s.name,
)
def test_partial_sum_matches_brute_force(spec):
    for x in (1, 7, 30, 50):
        want = math.fsum(spec_eval_brute(spec, n).real for n in range(1, x + 1))
        got = partial_sum_grid(spec, [x])[0]
        assert got.imag == 0.0 and got.real == pytest.approx(want, rel=1e-13, abs=1e-13)


def test_partial_sum_validation():
    with pytest.raises(ValueError):
        partial_sum_grid(unit(), [0])


def test_twisted_sum_enumeration_example():
    # sum over n <= 4 of 0.5^Omega(n) = 1 + 0.5 + 0.5 + 0.25
    got = bucket_sums(unit(), BIG_OMEGA, 4).twisted_sum(0.5)
    assert got == pytest.approx(2.25, rel=1e-14)


def test_twisted_sum_matches_brute_force():
    buckets = bucket_sums(theta_omega(1.5), OMEGA, 40)
    for y in (2.0, 0.5, -1.0, complex(0.3, 0.8)):
        want = 0j
        for n in range(1, 41):
            want += y ** trial_omega(n) * spec_eval_brute(theta_omega(1.5), n)
        got = buckets.twisted_sum(y)
        assert got == pytest.approx(want, rel=1e-12)


def test_twisted_sum_negative_base_integer_g():
    # (-1)^Omega(n) is the Liouville function; its partial sums are exact
    got = bucket_sums(unit(), BIG_OMEGA, 20).twisted_sum(-1.0)
    want = sum((-1) ** trial_big_omega(n) for n in range(1, 21))
    assert got == pytest.approx(want, rel=1e-14)


def test_twisted_sum_branch_cut_for_fractional_g():
    g = tabulated_additive({(2, 1): 0.5})
    with pytest.raises(DomainError):
        bucket_sums(unit(), g, 20).mean(-2.0)
    # positive base is fine
    got = bucket_sums(unit(), g, 4).mean(2.0)
    want = (1.0 + 2.0**0.5 + 1.0 + 1.0) / 4
    assert got == pytest.approx(want, rel=1e-13)


def test_twisted_sum_rejects_zero_y():
    with pytest.raises(ValueError):
        bucket_sums(unit(), OMEGA, 10).twisted_sum(0.0)
    with pytest.raises(ValueError):
        bucket_sums(unit(), tabulated_additive({(2, 1): 0.5}), 10).mean(0.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize(
    "y, g",
    [(1e200, OMEGA), (cmath.exp(700), OMEGA), (1e200, tabulated_additive({(2, 1): 2.5}))],
    ids=["omega-1e200", "omega-e700", "fractional-1e200"],
)
def test_twisted_mean_raises_where_y_to_the_g_overflows(y, g):
    # y^2 or y^2.5 at n = 6 or 2 is beyond float64: an error, not nan
    with pytest.raises(OverflowError, match=r"E\[y\^g\(N\)\] on \[1, 10\] overflows float64"):
        bucket_sums(unit(), g, 10).mean(y)
    # a y whose powers stay finite is unchanged
    assert bucket_sums(unit(), OMEGA, 10).mean(1e100) == pytest.approx((1 + 7e100 + 2e200) / 10, rel=1e-15)
    assert bucket_sums(unit(), OMEGA, 10).twisted_sum(1e100) == pytest.approx(1 + 7e100 + 2e200, rel=1e-15)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_bucket_sums_methods_raise_where_y_to_the_g_overflows():
    # twisted_sum(1e200), mean(1e200) and residual(700) returned nan+nanj;
    # each now raises one OverflowError, naming alpha, x and y
    buckets = bucket_sums(unit(), OMEGA, 10)
    for method, arg, y in [
        (buckets.twisted_sum, 1e200, 1e200),
        (buckets.mean, 1e200, 1e200),
        (buckets.residual, 700, cmath.exp(700)),
    ]:
        with pytest.raises(OverflowError) as got:
            method(arg)
        assert str(got.value) == f"unit: E[y^g(N)] on [1, 10] overflows float64 at y = {complex(y)}"


def test_mgf_exact_examples():
    # E[e^{z omega(N)}] at z = ln 2 and z = 0
    assert bucket_sums(unit(), OMEGA, 10).mean(cmath.exp(math.log(2.0))) == pytest.approx(2.3, rel=1e-14)
    assert bucket_sums(unit(), OMEGA, 100).mean(cmath.exp(0.0)) == pytest.approx(1.0, rel=1e-14)


# ---------------------------------------------------------------------------
# pmf


def test_pmf_small_example():
    dist = pmf(unit(), OMEGA, 10)
    assert dist.values.tolist() == [0, 1, 2]
    assert dist.probabilities.tolist() == pytest.approx([0.1, 0.7, 0.2], abs=1e-15)
    assert dist.mean == pytest.approx(1.1, abs=1e-14)
    assert dist.variance == pytest.approx(0.29, abs=1e-14)


def test_pmf_tail_probability():
    dist = pmf(unit(), OMEGA, 10)
    assert dist.tail_probability(2) == pytest.approx(0.2, abs=1e-15)
    assert dist.tail_probability(1.5) == pytest.approx(0.2, abs=1e-15)
    assert dist.tail_probability(0) == pytest.approx(1.0, abs=1e-15)
    assert dist.tail_probability(5) == 0.0
    assert dist.tail_probability(-3) == 1.0


def test_pmf_invariants_at_scale():
    x = 10**5
    for spec, g in ((unit(), OMEGA), (theta_omega(2.5), BIG_OMEGA)):
        dist = pmf(spec, g, x)
        assert math.fsum(dist.probabilities.tolist()) == pytest.approx(1.0, abs=1e-12)
        assert (dist.probabilities > 0).all()
        assert np.all(np.diff(dist.values) > 0)
        mean = math.fsum((dist.values * dist.probabilities).tolist())
        assert dist.mean == pytest.approx(mean, rel=1e-13)


def test_pmf_rejects_negative_g_and_takes_fractional_g():
    signed = tabulated_additive({(2, 1): -1.0})
    with pytest.raises(ValueError, match="takes negative values"):
        pmf(unit(), signed, 100)
    # g(n) is 0.5 at n = 2 mod 4 and 0 elsewhere
    dist = pmf(unit(), tabulated_additive({(2, 1): 0.5}), 100)
    assert dist.values.dtype == np.float64
    assert (dist.values.tolist(), dist.probabilities.tolist()) == ([0.0, 0.5], [0.75, 0.25])


def test_mgf_pmf_duality():
    # E[e^{z g}] as a term-by-term sum over whole tables, through the pmf,
    # and from the bucket sums agree to near machine precision
    x = 10**4
    om = whole_table(None, OMEGA, x)[1:]
    for spec in (unit(), theta_omega(2.5)):
        w = whole_table(spec, None, x)[1:]
        dist = pmf(spec, OMEGA, x)
        for z in (math.log(0.5), math.log(2.0), complex(0.3, 1.0)):
            terms = w * np.exp(complex(z) * om)
            direct = complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist())) / math.fsum(w.tolist())
            via_pmf = sum(
                cmath.exp(z * m) * q
                for m, q in zip(dist.values.tolist(), dist.probabilities.tolist())
            )
            assert abs(direct - via_pmf) < 1e-12
            assert abs(direct - bucket_sums(spec, OMEGA, x).mean(cmath.exp(z))) < 1e-12


# ---------------------------------------------------------------------------
# sampling


def test_sample_deterministic_golden():
    draws = sample(unit(), 10, seed=7, count=5)
    assert draws.tolist() == [9, 3, 5, 5, 1]


def test_sample_reproducible_and_stream_independent():
    a = sample(unit(), 10**4, seed=123, count=1000)
    b = sample(unit(), 10**4, seed=123, count=1000)
    c = sample(unit(), 10**4, seed=123, count=1000, stream=1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert a.min() >= 1 and a.max() <= 10**4


def test_sample_equals_unsorted_search():
    # sample searches the targets in sorted order; each draw must be the
    # one a plain searchsorted over the targets as drawn gives
    cumulative = exact._PrefixSums()(whole_table(geometric_B(1.5), None, 10**5))
    for seed, stream in ((0, 0), (1, 0), (7, 3), (2**63 + 5, 1)):
        bits = np.random.Philox(key=[np.uint64(seed & (2**64 - 1)), np.uint64(stream)])
        targets = np.random.Generator(bits).random(5000) * cumulative[-1]
        want = np.searchsorted(cumulative, targets, side="right")
        got = sample(geometric_B(1.5), 10**5, seed, 5000, stream)
        assert got.dtype == np.int64
        assert np.array_equal(got, want)


def test_sample_degenerate_support():
    assert sample(unit(), 1, seed=99, count=5).tolist() == [1, 1, 1, 1, 1]
    assert sample(unit(), 10, seed=1, count=0).size == 0
    with pytest.raises(ValueError):
        sample(unit(), 10, seed=1, count=-1)


def test_sample_empirical_frequencies():
    # theta_omega(2) doubles the weight per distinct prime; compare the
    # empirical mean of omega(N) to the exact pmf mean within 4 sigma
    x = 10**4
    spec = theta_omega(2)
    dist = pmf(spec, OMEGA, x)
    draws = sample(spec, x, seed=2024, count=200000)
    om = whole_table(None, OMEGA, x)
    empirical = float(np.mean(om[draws]))
    sigma = math.sqrt(dist.variance / draws.size)
    assert abs(empirical - dist.mean) < 4.0 * sigma


# ---------------------------------------------------------------------------
# normalized residual


def test_mod_poisson_residual_at_zero_is_one():
    assert bucket_sums(unit(), OMEGA, 1000).residual(0.0) == 1.0
    assert bucket_sums(unit(), OMEGA, 3).residual(0.0) == 1.0


def test_mod_poisson_residual_rejects_tiny_x():
    with pytest.raises(ValueError, match=r"x must be >= 3 for ln ln x > 0, got 2"):
        bucket_sums(unit(), OMEGA, 2).residual(0.5)


def test_mod_poisson_residual_needs_a_generic_prime_value():
    bare = AdditiveSpec("bare", lambda p, k: 1.0, integer_valued=True)
    with pytest.raises(ValueError, match=r"^additive spec 'bare' has no generic prime value; the residual needs one$"):
        bucket_sums(unit(), bare, 10).residual(0.5)


def test_mod_poisson_residual_manual_composition():
    x, z = 5000, complex(0.2, 0.4)
    got = bucket_sums(unit(), OMEGA, x).residual(z)
    t_x = math.log(math.log(x))
    want = cmath.exp(-t_x * (cmath.exp(z) - 1.0)) * bucket_sums(unit(), OMEGA, x).mean(cmath.exp(z))
    assert got == pytest.approx(want, rel=1e-12)


def test_table_g_residual_falls_as_x_grows():
    # a table's generic prime value is 0, so the residual is its mgf, with
    # no rho ln ln x to pull it from psi (omega's normalization, applied to
    # every g, made it 0.29 at x = 1e6, against psi = 1.61)
    g = tabulated_additive({(2, 1): 1.0, (3, 1): 2.0})
    limit = psi(unit(), 0.5, g)
    gaps = [abs(sums.residual(0.5) - limit) for sums in bucket_sums_grid(unit(), g, [10**3, 10**4, 10**5])]
    assert 1e-4 < gaps[0] < 1e-2 and gaps[1] < gaps[0] / 5 and gaps[2] < gaps[1] / 5


def test_mod_poisson_residual_normalizes_by_the_spec_rho():
    # theta_omega(2) declares rho = 2, so its residual scales ln ln x by 2
    x, z = 5000, 0.3
    got = bucket_sums(theta_omega(2), OMEGA, x).residual(z)
    mean = bucket_sums(theta_omega(2), OMEGA, x).mean(cmath.exp(z))
    want = cmath.exp(-2.0 * math.log(math.log(x)) * (cmath.exp(z) - 1.0)) * mean
    assert got == pytest.approx(want, rel=1e-13)


# ---------------------------------------------------------------------------
# two-part value tables against the per-prime sweep


def reference_multiplicative_table(spec, x):
    """f(n) for n <= x by sweeping the prime-power progressions of every
    prime p <= x in increasing order, one conftest.value_of per (p, k)."""
    w = np.ones(x + 1, dtype=np.float64)
    w[0] = 0.0
    for p in prime_array(x).tolist():
        values = []
        pk = p
        while pk <= x:
            v = complex(value_of(spec, p, len(values) + 1))
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
                raise ValueError(f"{spec.name}: non-finite value at ({p},{len(values) + 1})")
            if v.imag != 0.0:
                raise ValueError(f"{spec.name}: tables require real values, got {v} at ({p},{len(values) + 1})")
            values.append(v.real)
            pk *= p
        # a ratio after a zero, or past a tiny value, is not finite
        if any(v == 0 for v in values) or not all(math.isfinite(v / prev) for v, prev in zip(values[1:], values)):
            for k, v in enumerate(values, start=1):
                idx = np.arange(p**k, x + 1, p**k)
                if p ** (k + 1) <= x:
                    idx = idx[idx % p ** (k + 1) != 0]
                w[idx] *= v
            continue
        # f(p) itself, then the ratios f(p^k)/f(p^(k-1))
        prev = None
        pk = p
        for v in values:
            ratio = v if prev is None else v / prev
            if ratio != 1.0:
                w[pk::pk] *= ratio
            prev = v
            pk *= p
    return w


def reference_additive_table(g, x):
    """g(n) for n <= x by the per-prime sweep, as reference_multiplicative_table."""
    tab = np.zeros(x + 1, dtype=np.int64 if g.integer_valued else np.float64)
    for p in prime_array(x).tolist():
        prev = 0.0
        pk, k = p, 1
        while pk <= x:
            v = complex(value_of(g, p, k))
            if v.imag != 0.0:
                raise ValueError(f"{g.name}: tables require real values, got {v} at ({p},{k})")
            delta = v.real - prev
            prev = v.real
            if delta != 0.0:
                if g.integer_valued:
                    if delta != int(delta):
                        raise ValueError(
                            f"{g.name} declared integer-valued but g({p}^{k}) jumps by {delta}"
                        )
                    tab[pk::pk] += int(delta)
                else:
                    tab[pk::pk] += delta
            pk *= p
            k += 1
    return tab


def raised(fn):
    """fn()'s exception as (type, message), or None when it returns."""
    try:
        fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)
    return None


def outcome(fn):
    """fn()'s value, or its exception as raised gives it."""
    try:
        return fn()
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


PRIMES_1E4 = prime_array(10**4).tolist()
PRIME_POWER_KEYS = st.tuples(st.sampled_from(PRIMES_1E4), st.integers(1, 3))
MULTIPLICATIVE = st.one_of(
    st.just(unit()),
    st.just(euler_phi_over_n()),
    st.floats(0.1, 3.0).map(theta_omega),
    st.floats(-2.0, -0.1).map(theta_omega),
    st.floats(0.1, 1.9).map(geometric_B),
    st.floats(0.1, 4.0).map(tau_rho),
    st.tuples(st.floats(0.5, 2.0), st.floats(0.2, 2.0)).map(lambda t: perturbed(*t)),
    st.dictionaries(PRIME_POWER_KEYS, st.floats(0.0, 3.0), max_size=8).map(tabulated_multiplicative),
)
NONNEGATIVE = st.one_of(
    st.just(unit()),
    st.just(euler_phi_over_n()),
    st.floats(0.1, 3.0).map(theta_omega),
    st.floats(0.1, 1.9).map(geometric_B),
    st.floats(0.1, 4.0).map(tau_rho),
    st.dictionaries(PRIME_POWER_KEYS, st.floats(0.0, 3.0), max_size=8).map(tabulated_multiplicative),
)
INTEGER_TABLES = st.dictionaries(PRIME_POWER_KEYS, st.integers(0, 4).map(float), max_size=8)
ADDITIVE = st.one_of(
    st.just(OMEGA),
    st.just(BIG_OMEGA),
    INTEGER_TABLES.map(tabulated_additive),
    st.dictionaries(PRIME_POWER_KEYS, st.floats(-2.0, 2.0), max_size=8).map(tabulated_additive),
)
INTEGER_ADDITIVE = st.one_of(st.just(OMEGA), st.just(BIG_OMEGA), INTEGER_TABLES.map(tabulated_additive))
# x = p^2 puts p on the swept side, x = p^2 - 1 on the gathered side
SQUARE_EDGES = [p * p - d for p in PRIMES_1E4 if p * p <= 10**4 for d in (0, 1)]
XS = st.one_of(st.integers(1, 10**4), st.sampled_from(SQUARE_EDGES))


def oracle_sample(x):
    """Every n <= 60, the primes' squares near x, and x itself."""
    return sorted({n for n in range(1, min(x, 60) + 1)} | {n for n in SQUARE_EDGES if n <= x} | {x})


@settings(max_examples=60, deadline=None)
@given(spec=MULTIPLICATIVE, g=ADDITIVE, x=XS)
def test_two_part_tables_match_per_prime_sweep(spec, g, x):
    w = whole_table(spec, None, x)
    want = reference_multiplicative_table(spec, x)
    assert w.dtype == want.dtype
    assert w.tobytes() == want.tobytes()
    gt = whole_table(None, g, x)
    want = reference_additive_table(g, x)
    assert gt.dtype == want.dtype
    assert gt.tobytes() == want.tobytes()
    for n in oracle_sample(x):
        assert w[n] == pytest.approx(spec_eval_brute(spec, n), rel=1e-12, abs=1e-15)
        assert gt[n] == pytest.approx(additive_eval_brute(g, n).real, abs=1e-12)


def direct_twisted_sum(w, gt, y, x):
    """The term-by-term compensated sum of y^{g(n)} alpha(n), and its L1 norm."""
    g_slice = gt[1 : x + 1]
    lo = int(g_slice.min())
    ladder = np.array([cpow(y, m) for m in range(lo, int(g_slice.max()) + 1)], dtype=np.complex128)
    terms = w[1 : x + 1] * ladder[g_slice - lo]
    return complex(fsum(terms.real), fsum(terms.imag)), float(np.abs(terms).sum())


CIRCLE_16 = [cmath.exp(2j * math.pi * j / 16) for j in range(16)]
REAL_Y = st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 3.0))
# each S_v is correctly rounded, so the twisted sum's terms y^v S_v and
# the direct sum's terms y^g(n) alpha(n) round apart by a few ulps of the
# terms' L1 norm, as do the powers taken by cpow and by exp
BUCKET_TOL = 16 * 2.0**-53


@settings(max_examples=40, deadline=None)
@given(spec=MULTIPLICATIVE, g=INTEGER_ADDITIVE, x=XS, real_y=REAL_Y)
def test_bucketed_sums_match_direct_sums(spec, g, x, real_y):
    w = whole_table(spec, None, x)
    gt = whole_table(None, g, x)
    buckets = bucket_sums(spec, g, x)
    den, den_l1 = direct_twisted_sum(w, gt, 1.0, x)
    assert abs(buckets.total() - den) <= BUCKET_TOL * den_l1
    for y in CIRCLE_16 + [real_y]:
        num, num_l1 = direct_twisted_sum(w, gt, y, x)
        got = buckets.twisted_sum(y)
        assert abs(got - num) <= BUCKET_TOL * num_l1
        if den == 0:
            continue
        mgf = num / den
        got = buckets.mean(y)
        bound = BUCKET_TOL * (num_l1 + abs(mgf) * den_l1) / abs(den) + 1e-15 * abs(mgf)
        assert abs(got - mgf) <= bound


@settings(max_examples=40, deadline=None)
@given(spec=NONNEGATIVE, g=INTEGER_ADDITIVE, x=XS)
# f(2) subnormal: the ratio f(4)/f(2) overflows
@example(spec=tabulated_multiplicative({(2, 1): 2.2250738585e-313}), g=OMEGA, x=10)
def test_bucketed_pmf_matches_direct_sums(spec, g, x):
    w = whole_table(spec, None, x)
    gt = whole_table(None, g, x)
    total = fsum(w[1:])
    dist = pmf(spec, g, x)
    for m, q in zip(dist.values.tolist(), dist.probabilities.tolist()):
        bucket = fsum(w[1:][gt[1:] == m])
        assert abs(q - bucket / total) <= BUCKET_TOL * q + 1e-16
    # every bucket of positive weight is listed, and nothing else
    support = [m for m in np.unique(gt[1:]).tolist() if w[1:][gt[1:] == m].sum() > 0]
    assert dist.values.tolist() == support


def test_bucket_sums_api():
    x = 1000
    buckets = bucket_sums(theta_omega(2), OMEGA, x)
    assert isinstance(buckets, BucketSums)
    assert buckets.x == x and buckets.values.tolist() == [0, 1, 2, 3, 4]
    assert buckets.values.dtype == np.int64
    assert buckets.total() == partial_sum_grid(theta_omega(2), [x])[0]
    assert buckets.twisted_sum(1.0) == buckets.total()
    assert buckets.mean(2.0) == buckets.twisted_sum(2.0) / buckets.total()
    poisson = exact._poisson_factor(theta_omega(2), OMEGA, x, 0.3)
    assert buckets.residual(0.3) == poisson * buckets.mean(cmath.exp(0.3))
    got, want = buckets.distribution(), pmf(theta_omega(2), OMEGA, x)
    assert (got.values.tolist(), got.probabilities.tolist()) == (want.values.tolist(), want.probabilities.tolist())
    with pytest.raises(ValueError, match=r"^theta_omega:0\+1j: tables require real values, got 1j at \(2,1\)$"):
        bucket_sums(theta_omega(1j), OMEGA, 100)
    # a fractional g has a bucket for each value it takes: 0.5 at n = 2 mod 4
    fractional = bucket_sums(unit(), tabulated_additive({(2, 1): 0.5}), 100)
    assert (fractional.values.tolist(), fractional.real.tolist()) == ([0.0, 0.5], [75.0, 25.0])


def test_signed_integer_g_buckets_below_zero():
    g = tabulated_additive({(2, 1): -1.0, (3, 1): 2.0})
    buckets = bucket_sums(unit(), g, 12)
    # g(2) = g(10) = -1; unlisted g(2^k), k >= 2, are 0
    assert buckets.values.tolist() == [-1, 0, 1, 2]
    got = buckets.twisted_sum(2.0)
    want = sum(2.0 ** additive_eval_brute(g, n).real for n in range(1, 13))
    assert got == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError, match="negative values"):
        buckets.distribution()


# a fractional table and a sparse one, whose dense span 0..1e6 once took
# a bincount column per integer
ORACLE_TABLES = {"fractional": {(2, 1): 0.5, (3, 1): 1.5}, "sparse": {(2, 1): 1e6}}
# two x inside a block of 65536, and inside blocks of 1000
ORACLE_GRID = [1000, 4101, 5000]


def assert_agrees(got, want):
    """got() equals want() to 1e-12 relative, or both overflow."""
    try:
        expected = want()
    except OverflowError:
        with pytest.raises(OverflowError, match="overflows float64"):
            got()
    else:
        assert got() == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("block", [65536, 1000], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("table", ORACLE_TABLES.values(), ids=ORACLE_TABLES.keys())
@pytest.mark.parametrize("spec", [unit(), geometric_B(1.5)], ids=lambda s: s.name)
def test_fractional_and_sparse_tables_match_the_trial_division_oracle(block, table, spec):
    g = tabulated_additive(table)
    with block_length(block):
        grid = bucket_sums_grid(spec, g, ORACLE_GRID)
    for sums in grid:
        law = brute_law(spec, g, sums.x)
        total = math.fsum(law.values())

        def brute_mean(y):
            return sum(cmath.exp(v * cmath.log(y)) * w for v, w in law.items()) / total

        dist = sums.distribution()
        assert dist.values.tolist() == [v for v, w in law.items() if w > 0]
        assert dist.probabilities.tolist() == pytest.approx([w / total for w in law.values() if w > 0], rel=1e-12)
        for y in (2.0, cmath.exp(0.1)):
            assert_agrees(lambda: sums.mean(y), lambda: brute_mean(y))
        # a table's generic prime value is 0, so its residual is its mgf
        for z in (0.5, complex(0.3, 1.0), -0.5):
            assert_agrees(lambda: sums.residual(z), lambda: brute_mean(cmath.exp(z)))
        t_x = spec.rho * math.log(math.log(sums.x))
        for y, tail, _ in clt_report(sums, [-1.0, 0.0, 0.5, 2.0]).tail_pairs:
            want = math.fsum(w for v, w in law.items() if v >= t_x + y * math.sqrt(t_x)) / total
            assert tail == pytest.approx(want, rel=1e-12)


def test_a_sparse_table_buckets_in_small_memory():
    # g = 1e6 at n = 2 mod 4 and 0 elsewhere: two values, where a dense
    # row over the span 0..1e6 took 8 MB per 4096 n
    x = 10**5
    prime_array.cache_clear()
    tracemalloc.start()
    try:
        sums = bucket_sums(unit(), tabulated_additive({(2, 1): 1e6}), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sums.values.tolist(), sums.real.tolist()) == ([0, 10**6], [75000.0, 25000.0])
    assert peak < 2**23


@pytest.mark.parametrize("v", [4000, 60000, 70000])
def test_one_large_table_value_keeps_two_buckets(v):
    # g = v at n = 2 mod 4: a span of v on every piece, which the offsets
    # once keyed by v + 1 columns per 4096 n (597 MB at v = 60000) while
    # it stayed within the block's 65536; every v now takes np.unique
    x = 10**6
    prime_array.cache_clear()
    tracemalloc.start()
    try:
        sums = bucket_sums(unit(), tabulated_additive({(2, 1): v}), x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sums.values.tolist(), sums.real.tolist()) == ([0, v], [750000.0, 250000.0])
    assert peak < 2**23


def test_omega_and_big_omega_buckets_take_no_sort(monkeypatch):
    # their span is at most 33 up to x = 1e10, within exact._DENSE_SPAN, so
    # the offsets label them; a fractional table labels through np.unique
    calls = []
    unique = np.unique

    def counted(*args, **kwargs):
        calls.append(args[0].size)
        return unique(*args, **kwargs)

    monkeypatch.setattr(np, "unique", counted)
    for spec in (unit(), theta_omega(2), geometric_B(1.5)):
        for g in (OMEGA, BIG_OMEGA):
            with block_length(4096):
                bucket_sums_grid(spec, g, [10, 5000, 10**4])
            bucket_sums_grid(spec, g, [10, 5000, 10**5])
    assert calls == []
    bucket_sums(unit(), tabulated_additive({(2, 1): 0.5}), 10)
    assert calls == [10]


def test_too_many_values_for_memory_is_a_named_error(monkeypatch):
    # g(p) = p (+ 0.5) on the first 500 primes takes thousands of values
    # per block; memory for the sieve alone holds the rows of a few hundred
    x = 10**5
    monkeypatch.setattr(sieve, "_physical_memory", lambda: _sieve_bytes(x))
    for shift in (0.0, 0.5):
        g = tabulated_additive({(p, 1): p + shift for p in PRIMES_1E4[:500]}, name="wide")
        with pytest.raises(ValueError, match=f"^bucket sums of wide by its values to x = {x}: need about"):
            bucket_sums(unit(), g, x)


def test_twisted_mean_zero_normalizing_sum():
    signed = tabulated_multiplicative({(2, 1): -1.0}, default=1.0)
    # weights 1, -1 on n = 1, 2 cancel exactly
    with pytest.raises(DegenerateSpecError, match=r"zero normalizing sum on \[1, 2\]"):
        bucket_sums(signed, OMEGA, 2).mean(2.0)
    with pytest.raises(DegenerateSpecError, match=r"zero normalizing sum on \[1, 2\]"):
        bucket_sums(signed, tabulated_additive({(2, 1): 0.5}), 2).mean(cmath.exp(0.1))


# ---------------------------------------------------------------------------
# the large-prime gather: primes above sqrt(x) take one prime_power_values call


def test_gather_non_finite_value_at_large_prime():
    bad = MultiplicativeSpec(
        "bad", lambda p, k: np.where(p == 97, math.inf, 1.0), rho=1.0, c0=0.25,
        growth=GrowthBound(1.0, 1.0),
    )
    with pytest.raises(ValueError, match=r"^bad: non-finite value at \(97,1\)$"):
        whole_table(bad, None, 200)
    assert raised(lambda: whole_table(bad, None, 200)) == raised(
        lambda: reference_multiplicative_table(bad, 200)
    )


def test_gather_rejects_a_complex_value_at_large_prime():
    spec = MultiplicativeSpec(
        "late_complex", lambda p, k: np.where(p == 101, 2j, 1.5), rho=1.0, c0=0.25,
        growth=GrowthBound(2.0, 1.0),
    )
    want = (ValueError, "late_complex: tables require real values, got 2j at (101,1)")
    assert raised(lambda: whole_table(spec, None, 1000)) == raised(lambda: reference_multiplicative_table(spec, 1000)) == want


def test_gather_falls_back_per_prime_for_dict_lookups():
    entries = {(2, 1): 0.5, (101, 1): 3.0, (997, 1): 0.0}
    spec = tabulated_multiplicative(entries, default=1.25)
    seen = []

    def value_at(p, k):
        seen.append(type(p))
        return entries.get((p, k), 1.25)

    counted = MultiplicativeSpec("counted", value_at, rho=1.25, c0=0.25, growth=spec.growth)
    x = 2000
    table = whole_table(counted, None, x)
    assert table.tobytes() == reference_multiplicative_table(spec, x).tobytes()
    assert table[997] == 0.0 and table[101] == 3.0 and table[202] == 1.5
    # per power k of the sweep, and for the primes above sqrt(x), one
    # array call that raised, then one scalar call per prime
    small = prime_array(math.isqrt(x)).tolist()
    n_large = len(prime_array(x)) - len(small)
    n_powers = x.bit_length() - 1  # 2^10 <= 2000 < 2^11
    assert seen.count(np.ndarray) == n_powers + 1
    assert seen.count(int) == sum(1 for p in small for k in range(1, n_powers + 1) if p**k <= x) + n_large
    assert seen[-n_large:] == [int] * n_large


def test_gather_non_integer_delta_at_large_prime():
    lying = AdditiveSpec(
        "lying", lambda p, k: np.where(p == 101, 0.5, 1.0), integer_valued=True
    )
    with pytest.raises(ValueError, match=r"^lying declared integer-valued but g\(101\^1\) jumps by 0.5$"):
        whole_table(None, lying, 1000)
    assert raised(lambda: whole_table(None, lying, 1000)) == raised(
        lambda: reference_additive_table(lying, 1000)
    )
    complex_late = AdditiveSpec("cplx", lambda p, k: np.where(p == 103, 1j, 1.0))
    assert raised(lambda: whole_table(None, complex_late, 1000)) == raised(
        lambda: reference_additive_table(complex_late, 1000)
    )


# ---------------------------------------------------------------------------
# stated values: where a spec states its value at every prime of a range,
# the tables read it and call no value_at


# 101^2 = 10201: at x = 10200 the table prime 101 is gathered, at 10201 swept
@pytest.mark.parametrize("x", [1000, 10200, 10201, 30000])
@pytest.mark.parametrize("prime", [7, 101])
def test_table_primes_on_either_side_of_sqrt_x(prime, x):
    spec = tabulated_multiplicative({(prime, 1): 3.0, (prime, 2): 0.5, (2, 3): 0.25}, default=1.5)
    table = whole_table(spec, None, x)
    assert table.tobytes() == reference_multiplicative_table(spec, x).tobytes()
    g = tabulated_additive({(prime, 1): 2.0, (prime, 2): -1.0, (3, 1): 1.0})
    gt = whole_table(None, g, x)
    assert gt.tobytes() == reference_additive_table(g, x).tobytes()
    assert gt[1:].tolist() == [int(additive_eval_brute(g, n).real) for n in range(1, x + 1)]
    # f and g are their series and their listed entries, below sqrt(x)
    # or above it alike, and no value_at is called
    spy, calls = counted(spec)
    assert whole_table(spy, None, x).tobytes() == table.tobytes()
    g_spy, g_calls = counted(g)
    assert whole_table(None, g_spy, x).tobytes() == gt.tobytes()
    assert calls == g_calls == []


def stated_everywhere_but_small(name, value, x, **kwargs):
    """A spec whose series states `value` at the primes above sqrt(x) and
    whose exceptions list 1.0 at every power p^k <= x of the rest."""
    small = prime_array(math.isqrt(x)).tolist()
    exceptions = {(p, k): 1.0 for p in small for k in range(1, x.bit_length()) if p**k <= x}
    if kwargs:
        return AdditiveSpec(name, exceptions=exceptions, k_value=lambda k: value, **kwargs)
    series = LocalSeries(lambda k: (value,), exceptions)
    return MultiplicativeSpec(name, rho=1.0, c0=0.25, growth=GrowthBound(2.0, 1.0), series=series)


@pytest.mark.parametrize(
    "spec, message",
    [
        (stated_everywhere_but_small("inf", math.inf, 1000), "inf: non-finite value at (37,1)"),
        (stated_everywhere_but_small("nan", complex(1.0, math.nan), 1000), "nan: non-finite value at (37,1)"),
        (stated_everywhere_but_small("late", 2j, 1000), "late: tables require real values, got 2j at (37,1)"),
        (stated_everywhere_but_small("cplx", 1j, 1000, integer_valued=False), "cplx: tables require real values, got 1j at (37,1)"),
        (stated_everywhere_but_small("half", 0.5, 1000, integer_valued=True),
         "half declared integer-valued but g(37^1) jumps by 0.5"),
    ],
    ids=["non-finite", "non-finite-imag", "complex-alpha", "complex", "non-integer"],
)
def test_a_bad_stated_value_names_the_first_large_prime(spec, message):
    if isinstance(spec, MultiplicativeSpec):
        build, reference = partial(whole_table, spec, None), reference_multiplicative_table
    else:
        build, reference = partial(whole_table, None, spec), reference_additive_table
    assert raised(lambda: build(1000)) == (ValueError, message)
    assert raised(lambda: reference(spec, 1000)) == (ValueError, message)


def test_stated_values_gather_as_value_at_does():
    # a stated 1 (0 for g) gathers nothing
    for value in (1.0, 0.5):
        spec = stated_everywhere_but_small("late", value, 1000)
        assert whole_table(spec, None, 1000).tobytes() == reference_multiplicative_table(spec, 1000).tobytes()
    g = stated_everywhere_but_small("zero", 0.0, 1000, integer_valued=True)
    assert whole_table(None, g, 1000).tobytes() == reference_additive_table(g, 1000).tobytes()


STATING_SPECS = [unit(), theta_omega(2), theta_omega(0.5 + 1.5j), theta_omega(-1), geometric_B(1.5), tau_rho(0.5),
                 tabulated_multiplicative({(10007, 1): 2.0}, default=1.5)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("spec", STATING_SPECS, ids=lambda s: s.name)
def test_exact_sums_make_no_value_at_call_for_a_stated_spec(spec):
    x = 5000
    alpha, calls = counted(spec)
    for g in (OMEGA, BIG_OMEGA):
        g_spy, g_calls = counted(g)
        assert outcome(lambda: bucket_sums(alpha, g_spy, x).real.tobytes()) == outcome(
            lambda: bucket_sums(spec, g, x).real.tobytes()
        )
        assert raised(lambda: pmf(alpha, g_spy, x)) == raised(lambda: pmf(spec, g, x))
        assert g_calls == []
    assert raised(lambda: sample(alpha, x, 1, 100)) == raised(lambda: sample(spec, x, 1, 100))
    assert calls == []


def test_a_table_prime_above_sqrt_x_takes_its_listed_value():
    # every other prime takes the stated default, swept or gathered, and
    # no value_at is called
    spec = tabulated_multiplicative({(1009, 1): 0.5})
    alpha, calls = counted(spec)
    x = 10**6
    sums = bucket_sums(alpha, OMEGA, x)
    assert sums.real.tobytes() == bucket_sums(spec, OMEGA, x).real.tobytes()
    assert calls == []
    # n = 1009 m with m <= x / 1009 weighs half: it moves the sums off unit's
    unit_sums = bucket_sums(unit(), OMEGA, x)
    assert sums.total() == pytest.approx(unit_sums.total() - 0.5 * (x // 1009), abs=1e-6)


def test_a_two_term_series_is_read_without_value_at():
    # phi(n)/n has f(p^k) = 1 - 1/p: its series (1, -1) is evaluated in
    # numpy as 1 + (-1)(1/p), which is 1 - 1/p bit for bit
    x = 5000
    alpha, calls = counted(euler_phi_over_n())
    table = whole_table(alpha, None, x)
    assert table.tobytes() == reference_multiplicative_table(euler_phi_over_n(), x).tobytes()
    assert table[1:].tolist() == [math.prod(1.0 - 1.0 / p for p, _ in trial_factorize(n)) for n in range(1, x + 1)]
    bucket_sums(alpha, OMEGA, x)
    assert calls == []


def test_tiny_prime_power_value_takes_exact_exponent_steps():
    # f(2) is subnormal, so the ratio f(4)/f(2) overflows; the sweep then
    # multiplies by f(2^k) on the n with 2^k || n instead
    spec = tabulated_multiplicative({(2, 1): 2.2250738585e-313})
    x = 10
    table = whole_table(spec, None, x)
    assert table[1:].tolist() == [spec_eval_brute(spec, n).real for n in range(1, x + 1)]
    assert table.tobytes() == reference_multiplicative_table(spec, x).tobytes()
    dist = pmf(spec, OMEGA, x)
    assert dist.values.tolist() == [0, 1, 2]
    assert dist.probabilities.tolist() == pytest.approx([1 / 7, 6 / 7, 0.0], abs=1e-15)


# ---------------------------------------------------------------------------
# streamed blocks: cutting the tables into blocks changes no bit


def fsum_by_value(w, gt, x):
    """The values g takes on n <= x and the fsum of alpha(n) over the n of
    each, from whole tables."""
    w, gt = w[1 : x + 1], gt[1 : x + 1]
    values = np.unique(gt)
    return values, np.array([fsum(w[gt == v]) for v in values.tolist()])


def assert_fsum_by_value(got, w, gt):
    """got has fsum_by_value's bits at every value g takes, and 0 at the
    integers between them that an integer g keys too."""
    values, sums = fsum_by_value(w, gt, got.x)
    taken = np.isin(got.values, values)
    assert got.values.dtype == gt.dtype and got.values[taken].tobytes() == values.tobytes()
    assert got.real[taken].tobytes() == sums.tobytes() and not got.real[~taken].any()


def bits(z):
    return np.complex128(z).tobytes()


PRIMES_5E4 = prime_array(5 * 10**4).tolist()
# primes above 8192 are first met after the first block at either length
LATE_PRIMES = [p for p in PRIMES_5E4 if p > 8192]
STREAM_KEYS = st.tuples(st.sampled_from(PRIMES_1E4[:40] + LATE_PRIMES[::50]), st.integers(1, 3))
STREAM_MULTIPLICATIVE = st.one_of(
    MULTIPLICATIVE,
    # a zero value, a value at a late prime, and a default that makes every large prime gather
    st.dictionaries(STREAM_KEYS, st.sampled_from([0.0, 0.5, 3.0]), min_size=1, max_size=6).map(
        lambda t: tabulated_multiplicative(t, default=1.5)
    ),
)
SIGNED_INTEGER_TABLES = st.dictionaries(STREAM_KEYS, st.integers(-3, 3).map(float), min_size=1, max_size=8)
STREAM_INTEGER_ADDITIVE = st.one_of(INTEGER_ADDITIVE, SIGNED_INTEGER_TABLES.map(tabulated_additive))
FRACTIONAL_ADDITIVE = st.dictionaries(STREAM_KEYS, st.floats(-2.0, 2.0), min_size=1, max_size=8).map(
    lambda t: tabulated_additive({**t, (2, 1): 0.5})
)
BLOCK_EDGES = [k * 4096 + d for k in range(1, 13) for d in (-1, 0, 1)]
STREAM_XS = st.one_of(
    st.integers(1, 5 * 10**4),
    st.sampled_from(BLOCK_EDGES),
    st.sampled_from([p * p - d for p in PRIMES_5E4 if p * p <= 5 * 10**4 for d in (0, 1)]),
)


def stream_grid(x):
    """x with a few smaller x: block edges, a chunk edge and a midpoint."""
    return sorted({x, (x + 1) // 2, min(x, 4095), min(x, 4097), min(x, 8192), min(x, 1024 * 9 + 5)})


# whole chunks of sample's prefix sums, and lengths that cut them (100 < _CHUNK)
BLOCKS = pytest.mark.parametrize("block", [4096, 8192, 100, 1000, 5000], ids=lambda b: f"block{b}")


@BLOCKS
@settings(max_examples=20, deadline=None)
@given(spec=STREAM_MULTIPLICATIVE, g=st.one_of(ADDITIVE, SIGNED_INTEGER_TABLES.map(tabulated_additive)), x=STREAM_XS)
def test_streamed_tables_match_per_prime_sweep(block, spec, g, x):
    with block_length(block):
        w = whole_table(spec, None, x)
        gt = whole_table(None, g, x)
    want = reference_multiplicative_table(spec, x)
    assert w.dtype == want.dtype and w.tobytes() == want.tobytes()
    want = reference_additive_table(g, x)
    assert gt.dtype == want.dtype and gt.tobytes() == want.tobytes()


@BLOCKS
@settings(max_examples=20, deadline=None)
@given(spec=STREAM_MULTIPLICATIVE, g=STREAM_INTEGER_ADDITIVE, x=STREAM_XS)
def test_streamed_bucket_and_partial_sums_match_whole_tables(block, spec, g, x):
    grid = stream_grid(x)
    w = reference_multiplicative_table(spec, x)
    gt = reference_additive_table(g, x)
    with block_length(block):
        streamed = bucket_sums_grid(spec, g, grid)
        partials = partial_sum_grid(spec, grid)
    for xi, got, s in zip(grid, streamed, partials):
        assert got.x == xi
        assert_fsum_by_value(got, w, gt)
        i = int(np.argmin(w[1 : xi + 1]))
        assert (got.min_index, got.min_weight) == (i + 1, float(w[i + 1]))
        want = complex(fsum(w[1 : xi + 1]))
        assert bits(s) == bits(want)
        assert bits(partial_sum_grid(spec, [xi])[0]) == bits(want)


@BLOCKS
@settings(max_examples=15, deadline=None)
@given(spec=STREAM_MULTIPLICATIVE, g=FRACTIONAL_ADDITIVE, x=STREAM_XS, y=st.floats(0.1, 3.0))
def test_streamed_fractional_bucket_sums_match_whole_tables(block, spec, g, x, y):
    # the values of a fractional g label each block through np.unique;
    # the bucket sums at every grid x have the whole tables' bits, and the
    # twisted sum agrees with the term-by-term sum of w exp(g log y)
    grid = stream_grid(x)
    w = reference_multiplicative_table(spec, x)
    gt = reference_additive_table(g, x)
    with block_length(block):
        streamed = bucket_sums_grid(spec, g, grid)
    for xi, got in zip(grid, streamed):
        assert got.x == xi
        assert_fsum_by_value(got, w, gt)
    terms = w[1:] * np.exp(gt[1:] * complex(cmath.log(y)))
    assert abs(streamed[-1].twisted_sum(y) - complex(fsum(terms.real), fsum(terms.imag))) <= BUCKET_TOL * float(np.abs(terms).sum())


@BLOCKS
@settings(max_examples=15, deadline=None)
@given(spec=st.one_of(NONNEGATIVE, STREAM_MULTIPLICATIVE.filter(lambda s: s.name == "tabulated")), x=STREAM_XS)
def test_streamed_sample_matches_whole_search(block, spec, x):
    w = reference_multiplicative_table(spec, x)
    cumulative = exact._PrefixSums()(w)
    with block_length(block):
        prefix = exact._PrefixSums()
        pieces = [prefix(np.zeros(1))]  # w[0] = 0, as sample reads it
        for lo, piece, _ in exact._ValueBlocks(spec, None, x):
            assert lo == sum(p.size for p in pieces)
            pieces.append(prefix(piece))
        assert np.concatenate(pieces).tobytes() == cumulative.tobytes()
        for seed in (0, 1, 7, 2**63 + 5):
            bits_ = np.random.Philox(key=[np.uint64(seed & (2**64 - 1)), np.uint64(0)])
            targets = np.random.Generator(bits_).random(3000) * cumulative[x]
            want = np.searchsorted(cumulative, targets, side="right")
            assert np.array_equal(sample(spec, x, seed, 3000), want)


@BLOCKS
@pytest.mark.parametrize("spec", [perturbed(1.0, 0.5), euler_phi_over_n()], ids=lambda s: s.name)
def test_streamed_tables_keep_the_order_of_the_steps(block, spec):
    # n = p q with 128 < p < q < sqrt(x) takes two different ratios from
    # the steps of one op.at, and rounding shows their order
    x = 5 * 10**4
    with block_length(block):
        table = whole_table(spec, None, x)
    assert table.tobytes() == reference_multiplicative_table(spec, x).tobytes()


@BLOCKS
def test_streamed_errors_match_reference(block):
    x = 5 * 10**4
    late = LATE_PRIMES[-1]
    bad = MultiplicativeSpec(
        "bad", lambda p, k: np.where(p == late, math.inf, 1.5), rho=1.5, c0=0.25,
        growth=GrowthBound(1.5, 1.0),
    )
    want = raised(lambda: reference_multiplicative_table(bad, x))
    assert want == (ValueError, f"bad: non-finite value at ({late},1)")
    with block_length(block):
        for run in (
            lambda: whole_table(bad, None, x),
            lambda: partial_sum_grid(bad, [x])[0],
            lambda: pmf(bad, OMEGA, x),
            lambda: sample(bad, x, 1, 10),
        ):
            assert raised(run) == want
        late_complex = MultiplicativeSpec(
            "late_complex", lambda p, k: np.where(p == late, 2j, 1.5), rho=1.5, c0=0.25,
            growth=GrowthBound(2.0, 1.0),
        )
        want = raised(lambda: reference_multiplicative_table(late_complex, x))
        assert want == (ValueError, f"late_complex: tables require real values, got 2j at ({late},1)")
        for run in (
            lambda: whole_table(late_complex, None, x),
            lambda: partial_sum_grid(late_complex, [x]),
            lambda: bucket_sums(late_complex, OMEGA, x),
            lambda: bucket_sums(late_complex, OMEGA, x).mean(2.0),
            lambda: bucket_sums(late_complex, tabulated_additive({(2, 1): 0.5}), x).mean(2.0),
            lambda: pmf(late_complex, OMEGA, x),
            lambda: sample(late_complex, x, 1, 10),
        ):
            assert raised(run) == want
        lying = AdditiveSpec("lying", lambda p, k: np.where(p == late, 0.5, 1.0), integer_valued=True)
        assert raised(lambda: pmf(unit(), lying, x)) == raised(lambda: reference_additive_table(lying, x))


def exact_results(alpha, g, grid):
    """The bytes of every exact result of alpha and g on the grid."""
    results = []
    for sums in bucket_sums_grid(alpha, g, grid):
        dist = sums.distribution()
        results += [sums.values, sums.real, dist.values, dist.probabilities, np.array([sums.mean(2.0), sums.residual(0.5j)])]
        results.append(np.array([sums.min_index, sums.min_weight, dist.mean, dist.variance]))
    results += [np.array(partial_sum_grid(alpha, grid)), sample(alpha, grid[-1], seed=7, count=1000)]
    return [r.tobytes() for r in results]


@pytest.mark.parametrize(
    "grid, block",
    [([2 * 10**5], block) for block in (12288, 5000, 1000)] + [([4095, 4097, 65537], block) for block in (12288, 5000, 1000, 100)],
    ids=lambda v: f"block{v}" if isinstance(v, int) else f"x{v[-1]}",
)
@pytest.mark.parametrize("alpha, g", [(theta_omega(1.8168), OMEGA), (tau_rho(0.5), BIG_OMEGA)], ids=["theta_omega-omega", "tau_rho-Omega"])
def test_every_exact_result_has_the_default_blocks_bits(alpha, g, grid, block):
    # the sums are correctly rounded and sample's prefix sums run on chunks
    # aligned at n = 0, whatever the block length; a block of 5000 once
    # summed f to 27521.51 at 2e5, not 33389.39
    want = exact_results(alpha, g, grid)
    with block_length(block):
        assert exact_results(alpha, g, grid) == want


FSUM_X = 10**5
# 31337 and 65537 lie inside a block at every length below; 65537 opens
# the second block of 2^16
FSUM_GRID = [31337, 65537, FSUM_X]
FSUM_ALPHAS = [parse_multiplicative(row[-1]) for row in funcs._GRAMMAR.values()] + [
    tabulated_multiplicative({(2, 1): 0.0, (3, 2): 2.5, (99991, 1): 0.3}, default=1.5),
    tabulated_multiplicative({(2, 1): -0.5, (5, 1): 1e-3, (7, 3): 7.0}),
    tabulated_multiplicative({(3, 1): 1.0 / 3.0, (313, 1): 2.0**-40}, default=0.7),
]
FSUM_GS = [OMEGA, BIG_OMEGA, tabulated_additive({(2, 1): 0.5, (3, 1): 1.25, (7, 2): -0.75})]


@pytest.mark.parametrize("block", [65536, 5000, 100], ids=lambda b: f"block{b}")
@pytest.mark.parametrize("alpha", FSUM_ALPHAS, ids=lambda a: a.name)
def test_every_bucket_and_partial_sum_is_the_fsum_of_its_whole_table_bucket(alpha, block):
    w = whole_table(alpha, None, FSUM_X)
    with block_length(block):
        partials = partial_sum_grid(alpha, FSUM_GRID)
        grids = [bucket_sums_grid(alpha, g, FSUM_GRID) for g in FSUM_GS]
    for x, total in zip(FSUM_GRID, partials):
        assert bits(total) == bits(math.fsum(w[1 : x + 1].tolist()))
    for g, grid in zip(FSUM_GS, grids):
        gt = whole_table(None, g, FSUM_X)
        for x, sums in zip(FSUM_GRID, grid):
            assert sums.x == x
            assert_fsum_by_value(sums, w, gt)


def test_pmf_streams_in_bounded_memory():
    # numpy allocations are traced by tracemalloc; the prime sieve (a byte
    # per n, and the primes) is the only part that grows with x
    x = 2**20
    prime_array.cache_clear()
    tracemalloc.start()
    try:
        pmf(geometric_B(1.5), BIG_OMEGA, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * x / 4


def test_sample_streams_in_bounded_memory():
    # a pass holds the sieve, one block of weights and its work arrays
    # (the tail's positions, the gather's index and offsets, and their
    # temporaries), a few block-lengths of 8-byte entries in all; the
    # cumulative weights of the whole table alone would take 8 bytes per n
    x = 2**20
    prime_array.cache_clear()
    tracemalloc.start()
    try:
        draws = sample(geometric_B(1.5), x, seed=1, count=1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert draws.size == 1000
    assert peak < _sieve_bytes(x) + 8 * 8 * exact._BLOCK < 8 * x


def test_streamed_commands_are_charged_for_the_sieve_alone(monkeypatch):
    # a pass holds a block at a time, so memory for the prime sieve is
    # enough for every exact result, and a byte less is not
    x = 10**5
    want = pmf(unit(), OMEGA, x)
    monkeypatch.setattr(sieve, "_physical_memory", lambda: _sieve_bytes(x))
    got = pmf(unit(), OMEGA, x)
    assert (got.values.tolist(), got.probabilities.tolist()) == (want.values.tolist(), want.probabilities.tolist())
    assert partial_sum_grid(unit(), [x]) == [float(x)]
    assert sample(unit(), x, 1, 10).size == 10
    monkeypatch.setattr(sieve, "_physical_memory", lambda: _sieve_bytes(x) - 1)
    for run in (lambda: pmf(unit(), OMEGA, x), lambda: partial_sum_grid(unit(), [x]), lambda: sample(unit(), x, 1, 10)):
        with pytest.raises(ValueError, match=f"value tables to x = {x}: need about"):
            run()
