"""Acceptance suite: eleven end-to-end checks of the package's claims.

Each test prints one PASS/FAIL line with the measured quantities, then
asserts the stated requirement.  Three criteria are asymptotic statements,
and on the 1e3..1e7 grid they are checked against the rate the theory
gives at finite x (lambda = rho ln ln x is at most 2.78 there):

* criterion 4 removes the first-order Selberg-Delange term
  psi(z) c1(e^z)/ln x from the residual psi_x(z) - psi(z), with c1
  computed here from the primes alone, and asks that the O(ln^-2 x)
  remainder shrink by more than 2 between x = 1e4 and x = 1e7;
* criterion 6 asks that the Kolmogorov distance shrink at least as fast
  as the O(1/sqrt(lambda)) rate of the CLT for omega;
* criterion 7 asks that the exact/predicted tail ratio at s = 2 approach
  1 monotonically.  It fails, for three recorded causes: the thresholds
  ceil(2 lambda) step through the lattice, lambda is far from the
  precise-deviation regime, and ldp_predict omits the local-CLT factor
  1/sqrt(2 pi s lambda) of the lattice precise-deviation theorem.
"""

import math
import sys
import time

import numpy as np
import pytest
from scipy import optimize
from scipy import stats as scistats

from conftest import trial_factorize
from selberg_delange.euler import check_admissibility_pp, g_compensated, lambda0, psi
from selberg_delange.exact import (
    additive_value_table,
    bucket_sums_grid,
    multiplicative_value_table,
    partial_sum,
    pmf,
    sample,
)
from selberg_delange.funcs import (
    OMEGA,
    euler_phi_over_n,
    geometric_B,
    tau_rho,
    theta_omega,
    unit,
)
from selberg_delange.special import gamma, zeta
from selberg_delange.stats import clt_report, eta_star, ldp_predict, normal_cdf

X_GRID = (10**3, 10**4, 10**5, 10**6, 10**7)
Z_CIRCLE = tuple(np.exp(2j * math.pi * j / 16) for j in range(16))


_ACTIVE_CAPSYS = None


@pytest.fixture(autouse=True)
def _route_reports(capsys):
    # pytest captures at the descriptor level, so the one-line verdicts
    # are emitted with capture suspended to stay visible for passing tests
    global _ACTIVE_CAPSYS
    _ACTIVE_CAPSYS = capsys
    yield
    _ACTIVE_CAPSYS = None


def report(line: str) -> None:
    if _ACTIVE_CAPSYS is not None:
        with _ACTIVE_CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, file=sys.__stdout__, flush=True)


def verdict(ok: bool) -> str:
    return "PASS" if ok else "FAIL"


def _primes_up_to(n: int) -> np.ndarray:
    is_prime = np.ones(n + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    return np.flatnonzero(is_prime)


def _first_order_coefficient(y: complex, primes: np.ndarray) -> complex:
    """c1(y) = lambda1(y)/lambda0(y) in the Selberg-Delange expansion

    sum_{n <= x} y^omega(n) = x (ln x)^(y-1) [lambda0(y) + lambda1(y)/ln x + O(ln^-2 x)]

    (Tenenbaum, Introduction to Analytic and Probabilistic Number Theory,
    Thm II.5.2).  With G(s; y) = prod_p (1 - p^-s)^y (1 + y/(p^s - 1)),
    c1(y) = (y - 1)(G'/G(1; y) + gamma y - 1), where
    G'/G(1; y) = y (y - 1) sum_p ln p/((p - 1)(p - 1 + y)); the sum over
    primes beyond 1e6 is of order 1e-6.
    """
    log_derivative = y * (y - 1.0) * np.sum(np.log(primes) / ((primes - 1.0) * (primes - 1.0 + y)))
    return (y - 1.0) * (log_derivative + np.euler_gamma * y - 1.0)


@pytest.fixture(scope="module")
def unit_buckets():
    """The omega buckets of the unit weights at every grid x, from one pass."""
    return dict(zip(X_GRID, bucket_sums_grid(unit(), OMEGA, X_GRID)))


def test_criterion_01_euler_product_constant():
    start = time.perf_counter()
    result = lambda0(theta_omega(2))
    elapsed = time.perf_counter() - start
    target = 6.0 / math.pi**2
    err = abs(result.value - target)
    ok = err <= 1e-6 and elapsed < 30.0
    report(
        f"criterion 01 {verdict(ok)}: lambda0(theta_omega(2)) = {result.value.real:.15g}, "
        f"|err vs 6/pi^2| = {err:.3g} (<= 1e-06), {elapsed:.2f} s (< 30 s)"
    )
    assert err <= 1e-6
    assert elapsed < 30.0


def test_criterion_02_compensated_product():
    target = 90.0 / math.pi**4
    got = g_compensated(theta_omega(2), 2.0).value
    err_theta = abs(got - target)
    errs_tau = {
        rho: abs(g_compensated(tau_rho(rho), 2.0).value - 1.0) for rho in (0.5, 2.0, 3.0)
    }
    worst_tau = max(errs_tau.values())
    ok = err_theta <= 1e-8 and worst_tau <= 1e-8
    report(
        f"criterion 02 {verdict(ok)}: G(theta_omega(2), 2) err {err_theta:.3g}, "
        f"max over tau_rho of |G - 1| = {worst_tau:.3g} (both <= 1e-08)"
    )
    assert err_theta <= 1e-8
    assert worst_tau <= 1e-8


def test_criterion_03_sieve_vs_trial_division():
    start = time.perf_counter()
    limit = 10**4
    factorizations = [()] + [trial_factorize(n) for n in range(1, limit + 1)]
    checkpoints = (1, 10, 100, 1000, limit)
    worst = 0.0
    for spec in (unit(), theta_omega(2), geometric_B(1.5), euler_phi_over_n()):
        table = multiplicative_value_table(spec, limit)
        brute = np.empty(limit + 1)
        brute[0] = 0.0
        for n in range(1, limit + 1):
            value = 1.0
            for p, k in factorizations[n]:
                value *= spec.value_at(p, k).real if isinstance(spec.value_at(p, k), complex) else spec.value_at(p, k)
            brute[n] = value
        rel = np.abs(table - brute) / np.maximum(np.abs(brute), 1e-300)
        rel[0] = 0.0
        worst = max(worst, float(rel.max()))
        for x in checkpoints:
            lhs = partial_sum(spec, x)
            rhs = math.fsum(brute[1 : x + 1].tolist())
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1e-300))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 60.0
    report(
        f"criterion 03 {verdict(ok)}: sieve vs trial division on n <= 1e4, "
        f"worst relative deviation {worst:.3g} (<= 1e-12), {elapsed:.1f} s (< 60 s)"
    )
    assert worst <= 1e-12
    assert elapsed < 60.0


def test_criterion_04_residual_convergence(unit_buckets):
    limits = {z: psi(unit(), z) for z in Z_CIRCLE}
    primes = _primes_up_to(10**6).astype(np.float64)
    first_order = {z: _first_order_coefficient(complex(np.exp(z)), primes) for z in Z_CIRCLE}
    residuals = []
    remainders = []
    for x in X_GRID:
        ln_x = math.log(x)
        worst = 0.0
        worst_remainder = 0.0
        for z in Z_CIRCLE:
            psi_x = unit_buckets[x].residual(z)
            worst = max(worst, abs(psi_x - limits[z]))
            second_order = limits[z] * (1.0 + first_order[z] / ln_x)
            worst_remainder = max(worst_remainder, abs(psi_x - second_order))
        residuals.append(worst)
        remainders.append(worst_remainder)
    decreasing = all(a > b for a, b in zip(residuals, residuals[1:]))
    remainder_decreasing = all(a > b for a, b in zip(remainders, remainders[1:]))
    ratio = residuals[1] / residuals[4]
    remainder_ratio = remainders[1] / remainders[4]
    cap = (math.log(1e7) / math.log(1e4)) ** 2
    ok = decreasing and remainder_decreasing and remainder_ratio > 2.0
    shown = ", ".join(f"{r:.4f}" for r in residuals)
    scaled = ", ".join(f"{r * math.log(x):.2f}" for r, x in zip(residuals, X_GRID))
    shown_remainders = ", ".join(f"{r:.4f}" for r in remainders)
    report(
        f"criterion 04 {verdict(ok)}: max residual |psi_x - psi| over 16-point unit circle "
        f"at x = 1e3..1e7: [{shown}], strictly decreasing = {decreasing}, ln x * residual "
        f"[{scaled}] (first order, ratio(1e4/1e7) = {ratio:.3f}); second-order remainder "
        f"|psi_x - psi (1 + c1/ln x)|: [{shown_remainders}], strictly decreasing = "
        f"{remainder_decreasing}, remainder(1e4)/remainder(1e7) = {remainder_ratio:.3f} "
        f"(required > 2; O(ln^-2 x) allows up to {cap:.2f})"
    )
    assert decreasing, f"residuals [{shown}] are not strictly decreasing"
    assert remainder_decreasing, (
        f"second-order remainders [{shown_remainders}] are not strictly decreasing: "
        f"psi_x does not follow psi (1 + c1/ln x) as x grows"
    )
    assert remainder_ratio > 2.0, (
        f"remainder(1e4)/remainder(1e7) = {remainder_ratio:.3f} <= 2: after removing the "
        f"first-order term psi c1/ln x the remainder should decay like ln^-2 x, which "
        f"allows a ratio up to {cap:.2f}; remainders [{shown_remainders}], raw residuals [{shown}]"
    )


def test_criterion_05_mgf_pmf_duality():
    x = 10**6
    worst = 0.0
    om = additive_value_table(OMEGA, x)[1:]
    for spec in (unit(), theta_omega(2.5)):
        dist = pmf(spec, OMEGA, x)
        # the mgf as a term-by-term compensated sum over whole tables,
        # independent of the buckets the pmf is read from
        w = multiplicative_value_table(spec, x)[1:]
        total = math.fsum(w.tolist())
        for y in (0.5, 1.0, 2.0):
            direct = math.fsum((w * y**om).tolist()) / total
            via_pmf = math.fsum(
                q * y**m for m, q in zip(dist.values.tolist(), dist.probabilities.tolist())
            )
            worst = max(worst, abs(direct - via_pmf))
    ok = worst <= 1e-10
    report(
        f"criterion 05 {verdict(ok)}: pmf/mgf duality at x = 1e6, "
        f"max |sum_m pmf[m] y^m - mgf| = {worst:.3g} (<= 1e-10)"
    )
    assert worst <= 1e-10


def test_criterion_06_central_limit_distance(unit_buckets):
    rho = 1.0
    distances = [clt_report(unit_buckets[x], [0.0]).kolmogorov_distance for x in X_GRID]
    decreasing = all(a > b for a, b in zip(distances, distances[1:]))
    scaled = [d * math.sqrt(rho * math.log(math.log(x))) for d, x in zip(distances, X_GRID)]
    at_rate = scaled[-1] <= scaled[0]
    ok = decreasing and at_rate
    shown = ", ".join(f"{d:.4f}" for d in distances)
    shown_scaled = ", ".join(f"{d:.4f}" for d in scaled)
    report(
        f"criterion 06 {verdict(ok)}: Kolmogorov distance D at x = 1e3..1e7: [{shown}]; "
        f"strictly decreasing = {decreasing}; sqrt(lambda) D = [{shown_scaled}], "
        f"at 1e7 <= at 1e3 (decay at least the O(1/sqrt(lambda)) CLT rate) = {at_rate}"
    )
    assert decreasing, f"Kolmogorov distances [{shown}] are not strictly decreasing"
    assert at_rate, (
        f"sqrt(lambda) D grows from {scaled[0]:.4f} at x = 1e3 to {scaled[-1]:.4f} at "
        f"x = 1e7: the distance shrinks more slowly than the 1/sqrt(rho ln ln x) rate of "
        f"the CLT, which points at a wrong centering scale or rho; distances [{shown}]"
    )


def test_criterion_07_large_deviation_ratio(unit_buckets):
    rho, s = 1.0, 2.0
    preds = ldp_predict([unit_buckets[x] for x in X_GRID], s)
    ratios = [p.ratio for p in preds]
    gaps = [abs(r - 1.0) for r in ratios]
    monotone = all(a > b for a, b in zip(gaps, gaps[1:]))
    shown = ", ".join(f"{r:.4g}" for r in ratios)
    lambdas = [rho * math.log(math.log(x)) for x in X_GRID]
    thresholds = [math.ceil(s * lam) for lam in lambdas]
    with_local_clt = ", ".join(
        f"{r * math.sqrt(2.0 * math.pi * s * lam):.3g}" for r, lam in zip(ratios, lambdas)
    )
    report(
        f"criterion 07 {verdict(monotone)}: exact/predicted tail ratios at s = 2, "
        f"x = 1e3..1e7: [{shown}]; |ratio - 1| monotone toward 0 = {monotone} "
        f"(thresholds ceil(2 lambda) = {thresholds}; lambda <= {lambdas[-1]:.2f}; "
        f"ratios with the omitted local-CLT factor 1/sqrt(2 pi s lambda) restored: "
        f"[{with_local_clt}])"
    )
    assert monotone, (
        f"tail ratios [{shown}] do not approach 1 monotonically, for three causes: "
        f"(1) the exact tail is summed from ceil(2 lambda), and these thresholds "
        f"{thresholds} step through the lattice while the prediction moves smoothly; "
        f"(2) lambda = rho ln ln x <= {lambdas[-1]:.2f} on this grid is far from the "
        f"precise-deviation regime; (3) ldp_predict omits the local-CLT factor "
        f"1/sqrt(2 pi s lambda), so its ratio tends to 0 like 1/sqrt(lambda) even for an "
        f"exact Poisson law; with that factor restored the ratios are [{with_local_clt}]"
    )


def test_criterion_08_legendre_transform():
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 2.0, math.e, 10.0):
        numeric = optimize.minimize_scalar(
            lambda t: -(t * s - (math.exp(t) - 1.0)),
            bounds=(-40.0, 10.0),
            method="bounded",
            options={"xatol": 1e-12},
        )
        worst = max(worst, abs(eta_star(s) - (-numeric.fun)))
    exact_at_one = eta_star(1.0)
    ok = worst <= 1e-10 and exact_at_one == 0.0
    report(
        f"criterion 08 {verdict(ok)}: eta*(s) closed form vs numeric supremum, "
        f"max |diff| = {worst:.3g} (<= 1e-10); eta*(1) = {exact_at_one} (== 0)"
    )
    assert worst <= 1e-10
    assert exact_at_one == 0.0


def test_criterion_09_special_values():
    checks = [
        ("gamma(5)", gamma(5), 24.0),
        ("gamma(1/2)", gamma(0.5), math.sqrt(math.pi)),
        ("zeta(2)", zeta(2), math.pi**2 / 6.0),
        ("zeta(4)", zeta(4), math.pi**4 / 90.0),
        ("Phi(0)", normal_cdf(0.0), 0.5),
    ]
    worst = 0.0
    for _, got, want in checks:
        worst = max(worst, abs(complex(got) - want) / max(1.0, abs(want)))
    ok = worst <= 1e-10
    report(
        f"criterion 09 {verdict(ok)}: gamma/zeta/normal reference values, "
        f"max relative deviation {worst:.3g} (<= 1e-10)"
    )
    assert worst <= 1e-10


def test_criterion_10_sampler_goodness_of_fit():
    x = 10**4
    seed = 20240814
    dist = pmf(unit(), OMEGA, x)
    draws = sample(unit(), x, seed=seed, count=10**6)
    again = sample(unit(), x, seed=seed, count=10**6)
    identical = draws.tobytes() == again.tobytes()
    labels = additive_value_table(OMEGA, x)[draws]
    observed = np.bincount(labels, minlength=int(dist.values.max()) + 1)[dist.values]
    expected = dist.probabilities * draws.size
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(scistats.chi2.sf(chi2, df=len(expected) - 1))
    ok = p_value >= 1e-3 and identical
    report(
        f"criterion 10 {verdict(ok)}: chi^2 of 1e6 draws vs exact pmf (x = 1e4): "
        f"stat {chi2:.2f}, p = {p_value:.4f} (>= 0.001); identical seeds byte-identical = {identical}"
    )
    assert p_value >= 1e-3
    assert identical


def test_criterion_11_admissibility_verdicts():
    consistent = [unit(), theta_omega(0.5), theta_omega(2), geometric_B(1.5)]
    verdicts = {spec.name: check_admissibility_pp(spec, c0=0.25).verdict for spec in consistent}
    bad = check_admissibility_pp(geometric_B(1.9, c0=0.1), c0=0.1)
    ok = all(v == "consistent" for v in verdicts.values()) and (
        bad.verdict == "inconsistent" and bad.witness == 2
    )
    report(
        f"criterion 11 {verdict(ok)}: admissibility verdicts {verdicts} all consistent; "
        f"geometric_B(1.9) at c0 = 0.1: {bad.verdict} with witness {bad.witness} (== 2)"
    )
    for name, v in verdicts.items():
        assert v == "consistent", name
    assert bad.verdict == "inconsistent"
    assert bad.witness == 2
