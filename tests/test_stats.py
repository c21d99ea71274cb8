import logging
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from selberg_delange import euler
from selberg_delange.errors import (
    DegenerateSpecError,
    DivergentLocalFactorError,
    DomainError,
    PoleError,
)
from selberg_delange.euler import psi
from selberg_delange.exact import pmf
from selberg_delange.funcs import (
    BIG_OMEGA,
    OMEGA,
    AdditiveSpec,
    GrowthBound,
    geometric_B,
    tabulated_additive,
    tabulated_multiplicative,
    tau_rho,
    theta_omega,
    unit,
)
from selberg_delange.sieve import prime_array
from selberg_delange.stats import (
    CltReport,
    LdpPrediction,
    clt_report,
    clt_report_to_dict,
    eta,
    eta_star,
    ldp_predict,
    ldp_prediction_to_dict,
    normal_cdf,
    psi_prime_at_zero,
    tail_pairs_to_csv,
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
    # each local series of the head p <= P truncated at 1e-14, the primes
    # above P closed by the prime-zeta tail
    want = PSI_PRIME_B15
    assert psi_prime_at_zero(geometric_B(1.5), BIG_OMEGA, 5000) == pytest.approx(want, abs=1e-11)
    # F_p and G_p each stop where their tails are <= tol, and here
    # 1/|1 + F_p| + |G_p|/|1 + F_p|^2 <= 1, so each prime is off by <= tol;
    # G_p needs its envelope k (r/p)^k for that, not (r/p)^k
    P = 100
    for tol in (1e-6, 1e-8, 1e-10):
        got = psi_prime_at_zero(geometric_B(1.5), BIG_OMEGA, P, tol).real
        assert abs(got - want) <= tol * len(prime_array(P))
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
        psi_prime_at_zero(tabulated_multiplicative({}, growth=GrowthBound(1.0, 2.0)), OMEGA, 1000)
    assert exc_info.value.prime == 2
    with pytest.raises(PoleError) as exc_info:
        psi_prime_at_zero(tabulated_multiplicative({(3, 1): -4.0}), OMEGA, 1000)
    assert exc_info.value.prime == 3
    no_prime_value = AdditiveSpec(name="custom", value_at=lambda p, k: 1)
    with pytest.raises(ValueError, match="generic prime value"):
        psi_prime_at_zero(unit(), no_prime_value, 1000)
    with pytest.raises(ValueError):
        psi_prime_at_zero(unit(), OMEGA, 50)


def test_psi_prime_at_zero_is_memoised():
    spec = theta_omega(0.75)
    first = psi_prime_at_zero(spec, OMEGA, 4000)
    hits = euler._psi_prime_cached.cache_info().hits
    for x in (10**3, 10**4):
        ldp_predict(spec, OMEGA, None, x, 1.0, prime_cutoff=4000)
    assert euler._psi_prime_cached.cache_info().hits == hits + 2
    assert first == euler._log_derivative(spec, OMEGA, 4000, euler.DEFAULT_FACTOR_TOL)


# ---------------------------------------------------------------------------
# large deviations


def test_ldp_predict_fields_and_exact_tail():
    x = 10**4
    dist = pmf(unit(), OMEGA, x)
    pred = ldp_predict(unit(), OMEGA, 1.0, x, 2.0, dist=dist)
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
    pred = ldp_predict(unit(), OMEGA, 1.0, x, s)
    t_x = math.log(math.log(x))
    want = math.exp(-t_x * eta_star(s)) * psi(unit(), math.log(s)).real / (1.0 - 1.0 / s)
    assert pred.predicted_tail == pytest.approx(want, rel=1e-12)


def test_ldp_predict_substitution_at_one(caplog):
    x = 10**4
    with caplog.at_level(logging.WARNING, logger="selberg_delange.stats"):
        pred = ldp_predict(unit(), OMEGA, 1.0, x, 1.0)
    assert any("s = 1" in record.message for record in caplog.records)
    assert pred.rate == 0.0
    # with eta*(1) = 0 the prediction collapses to the slope of psi at 0
    want = psi_prime_at_zero(unit(), OMEGA).real
    assert pred.predicted_tail == pytest.approx(want, rel=1e-9)


def test_ldp_predict_domain_errors():
    with pytest.raises(DomainError):
        ldp_predict(unit(), OMEGA, 1.0, 10**4, 0.0)
    with pytest.raises(DomainError):
        ldp_predict(unit(), OMEGA, 1.0, 10**4, -2.0)


def test_ldp_predict_big_omega_strip():
    # Omega twists only control slopes s < sqrt(2)
    pred = ldp_predict(unit(), BIG_OMEGA, 1.0, 10**4, 1.3)
    assert pred.predicted_tail > 0.0
    with pytest.raises(DomainError) as exc_info:
        ldp_predict(unit(), BIG_OMEGA, 1.0, 10**4, 1.5)
    assert "1.41421" in str(exc_info.value)
    with pytest.raises(DomainError):
        ldp_predict(unit(), BIG_OMEGA, 1.0, 10**4, math.sqrt(2.0))


def test_ldp_predict_validation():
    with pytest.raises(ValueError):
        ldp_predict(unit(), OMEGA, 1.0, 10, 2.0)
    with pytest.raises(ValueError):
        ldp_predict(unit(), OMEGA, complex(1.0, 0.5), 10**4, 2.0)


# ---------------------------------------------------------------------------
# central limit report


def test_clt_report_fields_and_extreme_y():
    x = 10**4
    report = clt_report(unit(), OMEGA, 1.0, x, [-10.0, 0.0, 10.0])
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
    dist = pmf(unit(), OMEGA, x)
    report = clt_report(unit(), OMEGA, 1.0, x, [0.0], dist=dist)
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
    d1 = clt_report(unit(), OMEGA, 1.0, 10**3, [0.0]).kolmogorov_distance
    d2 = clt_report(unit(), OMEGA, 1.0, 10**4, [0.0]).kolmogorov_distance
    assert d2 < d1


def test_clt_report_domain_errors():
    with pytest.raises(DomainError):
        clt_report(unit(), OMEGA, 0.0, 10**4, [0.0])
    with pytest.raises(DomainError):
        clt_report(unit(), OMEGA, -1.0, 10**4, [0.0])
    with pytest.raises(ValueError):
        clt_report(unit(), OMEGA, 1.0, 10, [0.0])


# ---------------------------------------------------------------------------
# serialization


def test_clt_report_to_dict():
    report = clt_report(unit(), OMEGA, 1.0, 10**3, [0.0, 1.0])
    payload = clt_report_to_dict(report)
    assert set(payload) == {"x", "kolmogorov_distance", "tail_pairs"}
    assert payload["x"] == 10**3
    assert len(payload["tail_pairs"]) == 2
    assert payload["tail_pairs"][0][0] == 0.0


def test_ldp_prediction_to_dict():
    pred = ldp_predict(unit(), OMEGA, 1.0, 10**4, 2.0)
    payload = ldp_prediction_to_dict(pred)
    assert set(payload) == {"s", "h", "rate", "predicted_tail", "exact_tail", "ratio"}
    assert payload["s"] == 2.0


def test_tail_pairs_to_csv():
    pairs = [(0.0, 0.5, 0.5), (1.0, 0.125, 0.158655253931457)]
    want = "y,exact,gaussian\n0,0.5,0.5\n1,0.125,0.158655253931457\n"
    assert tail_pairs_to_csv(pairs) == want
