import logging
import math
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from selberg_delange import euler, exact, stats
from selberg_delange.errors import (
    DegenerateSpecError,
    DivergentLocalFactorError,
    DomainError,
    PoleError,
)
from selberg_delange.euler import psi
from selberg_delange.exact import bucket_sums, bucket_sums_grid
from selberg_delange.funcs import (
    BIG_OMEGA,
    OMEGA,
    AdditiveSpec,
    GrowthBound,
    MultiplicativeSpec,
    geometric_B,
    tabulated_additive,
    tabulated_multiplicative,
    tau_rho,
    theta_omega,
    unit,
)
from selberg_delange.stats import (
    CltReport,
    LdpPrediction,
    clt_report,
    eta,
    eta_star,
    ldp_predict,
    normal_cdf,
    psi_prime_at_zero,
)

mpmath.mp.dps = 30


# ---------------------------------------------------------------------------
# eta and its Legendre transform


def test_eta_basics():
    assert eta(0.0) == 0.0
    assert eta(math.log(2.0)) == pytest.approx(1.0, rel=1e-14)
    for z in (0.5, -1.0, complex(0.2, 0.3)):
        assert eta(z) == pytest.approx(np.exp(z) - 1.0, rel=1e-13)


def test_eta_star_closed_form_matches_numeric_supremum():
    # eta*(s) = sup_t (t s - eta(t)); the supremum sits at t = ln s
    for s in (0.25, 0.5, 1.0, 2.0, math.e, 10.0):
        result = optimize.minimize_scalar(
            lambda t: -(t * s - (math.exp(t) - 1.0)),
            bounds=(-40.0, 10.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        assert eta_star(s) == pytest.approx(-result.fun, abs=1e-10)


def test_eta_star_special_values():
    assert eta_star(1.0) == 0.0
    assert eta_star(math.e) == pytest.approx(1.0, rel=1e-14)
    for s in (0.5, 2.0, 7.3):
        ident = s * math.log(s) - eta(math.log(s)).real
        assert eta_star(s) == pytest.approx(ident, abs=1e-12)


def test_eta_star_domain():
    for s in (0.0, -1.0, -0.001):
        with pytest.raises(DomainError):
            eta_star(s)


def test_eta_star_convex():
    grid = np.linspace(0.05, 6.0, 200)
    values = [eta_star(s) for s in grid]
    for i in range(1, len(grid) - 1):
        midpoint = 0.5 * (values[i - 1] + values[i + 1])
        assert values[i] <= midpoint + 1e-12
    assert min(values) >= 0.0


# ---------------------------------------------------------------------------
# normal cdf


def test_normal_cdf_basics():
    assert normal_cdf(0.0) == 0.5
    assert normal_cdf(1.959963984540054) == pytest.approx(0.975, abs=1e-9)
    for t in (0.3, 1.0, 2.5, 7.0):
        assert normal_cdf(-t) == pytest.approx(1.0 - normal_cdf(t), abs=1e-15)


def test_normal_cdf_matches_mpmath():
    rng = np.random.default_rng(11)
    for t in rng.uniform(-6.0, 6.0, size=40).tolist():
        assert normal_cdf(t) == pytest.approx(float(mpmath.ncdf(t)), rel=1e-12, abs=1e-14)


# ---------------------------------------------------------------------------
# psi'(0)


def test_psi_prime_at_zero_against_independent_stencil():
    for spec in (unit(), theta_omega(2)):
        got = psi_prime_at_zero(spec, OMEGA)
        h = 2e-3
        stencil = (
            -psi(spec, 2 * h) + 8 * psi(spec, h) - 8 * psi(spec, -h) + psi(spec, -2 * h)
        ) / (12 * h)
        assert got == pytest.approx(stencil, abs=1e-6)


def richardson_psi_prime(alpha, g, P):
    """psi'(0) by Richardson-extrapolated central differences of psi.

    The method psi_prime_at_zero used before its closed form, kept as a
    reference: five Euler products, with an extrapolation error near 1e-9.
    """
    h = 1e-4

    def central(step):
        return (psi(alpha, step, g, prime_cutoff=P) - psi(alpha, -step, g, prime_cutoff=P)) / (2.0 * step)

    return (4.0 * central(h / 2.0) - central(h)) / 3.0


@pytest.mark.parametrize(
    "alpha, g",
    [(unit(), OMEGA), (theta_omega(2), OMEGA), (geometric_B(1.5), OMEGA), (geometric_B(1.5), BIG_OMEGA)],
    ids=lambda v: v.name,
)
def test_psi_prime_at_zero_matches_richardson_reference(alpha, g):
    P = 2 * 10**5
    assert psi_prime_at_zero(alpha, g, P) == pytest.approx(richardson_psi_prime(alpha, g, P), abs=1e-8)


@settings(max_examples=15, deadline=None)
@given(
    alpha=st.one_of(st.floats(0.1, 3.0).map(theta_omega), st.floats(0.1, 1.9).map(geometric_B)),
    g=st.sampled_from([OMEGA, BIG_OMEGA]),
    P=st.integers(100, 3000),
)
def test_psi_prime_at_zero_matches_richardson_on_random_specs(alpha, g, P):
    want = richardson_psi_prime(alpha, g, P)
    assert abs(psi_prime_at_zero(alpha, g, P) - want) <= 1e-8 * max(1.0, abs(want))


def test_psi_prime_at_zero_closed_forms():
    # unit and omega: Mertens' constant, up to the primes above 10^6
    mertens = 0.2614972128476427837554268386
    assert psi_prime_at_zero(unit(), OMEGA).real == pytest.approx(mertens, abs=1e-7)
    # geometric_B(B) and Omega: B (-digamma(B) + sum_p [log(1 - 1/p) + 1/(p - B)]),
    # the local series of the head p <= P truncated within 1e-14 over all
    # its primes, the primes above P closed by the prime-zeta tail
    want = PSI_PRIME_B15
    assert psi_prime_at_zero(geometric_B(1.5), BIG_OMEGA, 5000) == pytest.approx(want, abs=1e-11)
    # F_p and G_p each stop where their tails are <= tol/n over the n
    # primes p <= P, and here 1/|1 + F_p| + |G_p|/|1 + F_p|^2 <= 1, so each
    # prime is off by <= tol/n and the sum by <= tol; G_p needs its
    # envelope k (r/p)^k for that, not (r/p)^k.  The kernel reads the
    # tolerance when it runs
    P = 100
    for tol in (1e-6, 1e-8, 1e-10):
        with mock.patch.object(euler, "DEFAULT_FACTOR_TOL", tol):
            got = euler._log_derivative(geometric_B(1.5), BIG_OMEGA, P).real
        assert abs(got - want) <= tol
    # a table g = 1 at p = 2 only: G_2 / (1 + F_2) = (1/2) / 2 is the whole sum
    g = tabulated_additive({(2, 1): 1.0})
    assert psi_prime_at_zero(unit(), g, 1000) == pytest.approx(0.25, abs=1e-14)


# psi'(0) of geometric_B:1.5 with g = Omega, to 19 digits: the mpmath
# oracle bench/oracle.py prints it
PSI_PRIME_B15 = 2.484700133266037647


def test_psi_prime_at_zero_against_oracle():
    got = psi_prime_at_zero(geometric_B(1.5), BIG_OMEGA, 2 * 10**5)
    assert got.imag == 0.0
    assert abs(got.real - PSI_PRIME_B15) <= 1e-6


def test_psi_prime_at_zero_errors():
    # lambda0(alpha) = 0: rho a nonpositive integer, or a vanishing factor
    vanishing = tabulated_multiplicative({(2, 1): -2.0, **{(2, k): 0.0 for k in range(2, 60)}})
    for alpha in (theta_omega(0), tau_rho(-1), vanishing):
        with pytest.raises(DegenerateSpecError):
            psi_prime_at_zero(alpha, OMEGA, 1000)
    with pytest.raises(DivergentLocalFactorError) as exc_info:
        heavy = MultiplicativeSpec("heavy", lambda p, k: 1.0, rho=1.0, c0=0.25, growth=GrowthBound(1.0, 2.0))
        psi_prime_at_zero(heavy, OMEGA, 1000)
    assert exc_info.value.prime == 2
    with pytest.raises(PoleError) as exc_info:
        psi_prime_at_zero(tabulated_multiplicative({(3, 1): -4.0}), OMEGA, 1000)
    assert exc_info.value.prime == 3
    no_k_value = AdditiveSpec(name="custom", value_at=lambda p, k: 1)
    with pytest.raises(ValueError, match="generic prime value"):
        psi_prime_at_zero(unit(), no_k_value, 1000)
    with pytest.raises(ValueError):
        psi_prime_at_zero(unit(), OMEGA, 50)


def test_ldp_predict_computes_psi_prime_once_per_grid():
    # psi'(0) does not depend on x: one closed form serves every x at s = 1
    spec = theta_omega(0.75)
    grid = bucket_sums_grid(spec, OMEGA, [10**3, 10**4])
    with mock.patch.object(stats, "_log_derivative", wraps=euler._log_derivative) as computed:
        preds = ldp_predict(grid, 1.0, prime_cutoff=4000)
    assert computed.call_count == 1
    # at s = 1 the decay exp(-rho ln ln x eta*(1)) is 1
    want = euler._log_derivative(spec, OMEGA, 4000).real
    assert [pred.predicted_tail for pred in preds] == [want, want]


def test_psi_prime_at_zero_is_one_kernel_pass(products):
    # F_p and G_p are two products, one call of the kernel each
    got = euler._log_derivative(geometric_B(1.5), BIG_OMEGA, 20000)
    assert len(products) == 2
    assert got == psi_prime_at_zero(geometric_B(1.5), BIG_OMEGA, 20000)


# ---------------------------------------------------------------------------
# large deviations


def test_ldp_predict_fields_and_exact_tail():
    x = 10**4
    sums = bucket_sums(unit(), OMEGA, x)
    dist = sums.distribution()
    [pred] = ldp_predict([sums], 2.0)
    assert isinstance(pred, LdpPrediction)
    assert pred.s == 2.0
    assert pred.h == pytest.approx(math.log(2.0), rel=1e-15)
    assert pred.rate == pytest.approx(eta_star(2.0), rel=1e-15)
    # exact tail re-derived by hand from the pmf buckets
    threshold = math.ceil(2.0 * math.log(math.log(x)))
    manual = math.fsum(
        q for m, q in zip(dist.values.tolist(), dist.probabilities.tolist()) if m >= threshold
    )
    assert pred.exact_tail == pytest.approx(manual, rel=1e-14)
    assert pred.ratio == pytest.approx(pred.exact_tail / pred.predicted_tail, rel=1e-14)
    assert pred.predicted_tail > 0.0


def test_ldp_predict_prefactor_composition():
    x, s = 10**4, 2.0
    [pred] = ldp_predict([bucket_sums(unit(), OMEGA, x)], s)
    t_x = math.log(math.log(x))
    want = math.exp(-t_x * eta_star(s)) * psi(unit(), math.log(s)).real / (1.0 - 1.0 / s)
    assert pred.predicted_tail == pytest.approx(want, rel=1e-12)


def test_ldp_predict_substitution_at_one(caplog):
    x = 10**4
    with caplog.at_level(logging.WARNING, logger="selberg_delange.stats"):
        [pred] = ldp_predict([bucket_sums(unit(), OMEGA, x)], 1.0)
    assert any("s = 1" in record.message for record in caplog.records)
    assert pred.rate == 0.0
    # with eta*(1) = 0 the prediction collapses to the slope of psi at 0
    want = psi_prime_at_zero(unit(), OMEGA).real
    assert pred.predicted_tail == pytest.approx(want, rel=1e-9)


def test_ldp_predict_domain_errors():
    # the prefactor psi(ln s)/(1 - 1/s) belongs to the upper tail: a slope
    # below 1 is refused before any product, whatever the x
    sums = bucket_sums(unit(), OMEGA, 10**4)
    for s in (0.0, -2.0, 0.5, 0.999, math.nan):
        with no_euler_product(), pytest.raises(DomainError, match=re.escape(f"needs s >= 1, got {s:g}")):
            ldp_predict([sums], s)


def test_ldp_predict_big_omega_strip():
    # Omega twists only control slopes s < sqrt(2)
    sums = bucket_sums(unit(), BIG_OMEGA, 10**4)
    [pred] = ldp_predict([sums], 1.3)
    assert pred.predicted_tail > 0.0
    with pytest.raises(DomainError) as exc_info:
        ldp_predict([sums], 1.5)
    assert "need 1 <= s < 1.41421" in str(exc_info.value)
    with pytest.raises(DomainError):
        ldp_predict([sums], math.sqrt(2.0))


def test_ldp_predict_validation():
    with pytest.raises(ValueError):
        ldp_predict([bucket_sums(unit(), OMEGA, 10)], 2.0)
    with pytest.raises(DomainError, match=r"need a real rho with rho ln ln x finite, got rho = \(1\+0.5j\)"):
        stats._checked_decay(theta_omega(complex(1.0, 0.5)), OMEGA, 10**4, 2.0)


def test_ldp_predict_rejects_a_grid_that_mixes_specs():
    # one alpha and one g per grid, or its one prefactor would be wrong
    first = bucket_sums(unit(), OMEGA, 1000)
    for other in (bucket_sums(theta_omega(2), OMEGA, 10**4), bucket_sums(unit(), BIG_OMEGA, 10**4)):
        with no_euler_product(), pytest.raises(ValueError, match="one alpha and one g"):
            ldp_predict([first, other], 2.0)
    assert ldp_predict([], 2.0) == []


def no_euler_product():
    """Patch the Euler kernel's entry points so that any product fails."""
    fail = AssertionError("an Euler product was computed")
    return mock.patch.multiple(euler, _factors_at_one=mock.Mock(side_effect=fail),
                               _local_factors=mock.Mock(side_effect=fail))


def test_ldp_predict_rejects_a_nonpositive_rho_before_any_product():
    # rho = 0 puts the threshold s rho ln ln x at 0, so every n would count
    sums = bucket_sums(tabulated_multiplicative({}, default=0.0), OMEGA, 1000)
    with no_euler_product(), pytest.raises(DomainError, match=re.escape("need rho > 0, got rho = 0.0 at x = 1000")):
        ldp_predict([sums], 2.0)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [200.0, 1000.0, 1e300])
def test_ldp_predict_rejects_an_underflowing_slope_before_any_product(s):
    # exp(-ln ln 1000 eta*(s)) is 0 in float64 for these s
    sums = bucket_sums(unit(), OMEGA, 1000)
    with no_euler_product(), pytest.raises(DomainError, match=re.escape(f"s = {s:g} underflows")):
        ldp_predict([sums], s, prime_cutoff=100)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("s", [171.9, 173.5, 175.0])
def test_ldp_predict_rejects_an_overflowing_gamma_before_any_product(s):
    # at x = 16 exp(-ln ln x eta*(s)) is positive up to s = 175.16, but
    # Gamma(s), the rho of the omega twist of unit in psi(ln s), is not
    sums = bucket_sums(unit(), OMEGA, 16)
    with no_euler_product(), pytest.raises(DomainError, match=re.escape(f"s = {s:g} overflows Gamma")):
        ldp_predict([sums], s, prime_cutoff=100)


# ---------------------------------------------------------------------------
# central limit report


def test_clt_report_fields_and_extreme_y():
    x = 10**4
    report = clt_report(bucket_sums(unit(), OMEGA, x), [-10.0, 0.0, 10.0])
    assert isinstance(report, CltReport)
    assert report.x == x
    assert 0.0 <= report.kolmogorov_distance <= 1.0
    pairs = {y: (exact, gauss) for y, exact, gauss in report.tail_pairs}
    assert pairs[-10.0][0] == 1.0
    assert pairs[-10.0][1] == pytest.approx(1.0, abs=1e-15)
    assert pairs[10.0][0] == 0.0
    assert pairs[10.0][1] == pytest.approx(0.0, abs=1e-15)
    assert 0.0 < pairs[0.0][0] < 1.0
    assert pairs[0.0][1] == 0.5


def test_clt_report_matches_brute_force_distance():
    x = 2000
    sums = bucket_sums(unit(), OMEGA, x)
    dist = sums.distribution()
    report = clt_report(sums, [0.0])
    t_x = math.log(math.log(x))
    sigma = math.sqrt(t_x)
    # plain-python two-sided sup over the jump points of the step CDF
    acc = 0.0
    worst = 0.0
    for m, q in zip(dist.values.tolist(), dist.probabilities.tolist()):
        y = (m - t_x) / sigma
        gauss = 0.5 * math.erfc(-y / math.sqrt(2.0))
        worst = max(worst, abs(acc - gauss))
        acc = min(1.0, acc + q)
        worst = max(worst, abs(acc - gauss))
    assert report.kolmogorov_distance == pytest.approx(worst, abs=1e-12)


def test_clt_report_distance_shrinks_with_x():
    grid = bucket_sums_grid(unit(), OMEGA, [10**3, 10**4])
    d1, d2 = (clt_report(sums, [0.0]).kolmogorov_distance for sums in grid)
    assert d2 < d1


def test_clt_report_domain_errors():
    with pytest.raises(DomainError):
        clt_report(bucket_sums(theta_omega(0.0), OMEGA, 10**4), [0.0])
    with pytest.raises(DomainError):
        clt_report(bucket_sums(theta_omega(-1.0), OMEGA, 10**4), [0.0])
    with pytest.raises(ValueError):
        clt_report(bucket_sums(unit(), OMEGA, 10), [0.0])


def test_tail_comparisons_read_the_sums_they_are_given():
    # alpha, g and x come from the bucket sums: no value table is built,
    # and the report is labelled with the x of its law
    grid = bucket_sums_grid(theta_omega(2), BIG_OMEGA, [1000, 5000])
    fail = mock.Mock(side_effect=AssertionError("a value table was built"))
    with mock.patch.object(exact, "_ValueBlocks", fail):
        reports = [clt_report(sums, [0.0, 1.0]) for sums in grid]
        preds = ldp_predict(grid, 1.3, prime_cutoff=1000)
    assert [report.x for report in reports] == [1000, 5000]
    for sums, report, pred in zip(grid, reports, preds):
        dist = sums.distribution()
        t_x = 2.0 * math.log(math.log(sums.x))
        assert report.tail_pairs[0][1] == dist.tail_probability(t_x)
        assert pred.exact_tail == dist.tail_probability(1.3 * t_x)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan, 1e308], ids=["inf", "-inf", "nan", "1e308"])
def test_tail_comparisons_reject_a_rho_without_a_finite_scale(rho):
    # rho ln ln x must be finite: no numpy warning, no nan threshold.  rho
    # is the spec's, and a spec already refuses a rho that is not finite
    if not math.isfinite(rho):
        with pytest.raises(ValueError, match="rho must be finite"):
            MultiplicativeSpec("bad", lambda p, k: rho, rho=rho, c0=0.25, growth=GrowthBound(1.0, 1.0))
        return
    sums = bucket_sums(tabulated_multiplicative({}, default=rho), OMEGA, 1000)
    for call in (
        lambda: clt_report(sums, [0.0]),
        lambda: ldp_predict([sums], 2.0, prime_cutoff=100),
    ):
        with pytest.raises(DomainError, match=re.escape(f"got rho = {rho} at x = 1000")):
            call()
