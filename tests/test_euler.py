import ast
import cmath
import dataclasses
import functools
import math
import re
from math import fsum
from pathlib import Path
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from selberg_delange.errors import (
    DegenerateSpecError,
    DivergentLocalFactorError,
    DomainError,
    PoleError,
)
from selberg_delange import cli, euler, funcs
from selberg_delange.euler import (
    AdmissibilityReport,
    EulerProductResult,
    check_admissibility_pp,
    g_compensated,
    lambda0,
    psi,
)
from selberg_delange.exact import bucket_sums, sample
from selberg_delange.funcs import (
    BIG_OMEGA,
    OMEGA,
    AdditiveSpec,
    GrowthBound,
    LocalSeries,
    MultiplicativeSpec,
    euler_phi_over_n,
    geometric_B,
    parse_additive,
    parse_multiplicative,
    perturbed,
    prime_power_values,
    tabulated_additive,
    tabulated_multiplicative,
    tau_rho,
    theta_omega,
    twist,
    unit,
)
from selberg_delange.sieve import prime_array
from selberg_delange.special import clog1p, cpow, gamma, zeta
from selberg_delange.stats import psi_prime_at_zero

from conftest import counted, geometric_b_lambda0, prime_zeta_tail, value_of, whole_table, without_series

# ---------------------------------------------------------------------------
# the scalar oracle: one local factor at a time, in Python floats


def series_length(C: float, q: float, tol: float, p: int, envelope=(1.0, 0.0)) -> int:
    """Smallest K >= 1 whose envelope tail C q^{K+1}/(1-q) (a + b(K+1) +
    b q/(1-q)) is <= tol, (a, b) = envelope; (1, 0) gives the geometric
    tail C q^{K+1}/(1-q)."""
    if q >= 1.0:
        raise DivergentLocalFactorError(
            f"local factor diverges at p={p}: growth ratio {C:g}*{q:g}^k does not decay",
            prime=p,
        )
    if C == 0.0:
        return 0
    a, b = envelope
    K = 1
    geo, base = C * q * q / (1.0 - q), a + b * q / (1.0 - q)
    while geo * (base + b * (K + 1)) > tol:
        K += 1
        geo *= q
        if K > euler._K_HARD_CAP:
            raise DivergentLocalFactorError(
                f"local factor at p={p} needs more than {euler._K_HARD_CAP} terms", prime=p
            )
    return K


def local_factor(spec, p: int, s, tol: float = euler.DEFAULT_FACTOR_TOL) -> complex:
    """F_p(s) = sum_{k>=1} f(p^k) p^{-ks}, truncated to tail <= tol."""
    if p < 2:
        raise ValueError(f"p must be a prime >= 2, got {p}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive, got {tol}")
    p, s = int(p), complex(s)
    p_sigma = float(p) ** s.real
    K = series_length(spec.growth.C, spec.growth.r / p_sigma, tol, p)
    t = complex(1.0 / p_sigma) if s.imag == 0.0 else cmath.exp(-s * math.log(p))
    acc = 0j
    cur = t
    for k in range(1, K + 1):
        acc += value_of(spec, p, k) * cur
        cur *= t
    return acc


def test_local_factor_closed_forms():
    # unit: F_p(s) = 1/(p^s - 1)
    assert local_factor(unit(), 3, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert local_factor(unit(), 2, 2.0) == pytest.approx(1.0 / 3.0, abs=1e-12)
    # geometric_B: F_p(s) = B/(p^s - B)
    assert local_factor(geometric_B(1.5), 2, 2.0) == pytest.approx(0.6, abs=1e-12)
    # theta_omega: F_p(s) = theta/(p^s - 1)
    assert local_factor(theta_omega(2.5), 5, 1.5) == pytest.approx(
        2.5 / (5**1.5 - 1.0), abs=1e-12
    )


def test_local_factor_validation():
    with pytest.raises(ValueError):
        local_factor(unit(), 1, 1.0)
    with pytest.raises(ValueError):
        local_factor(unit(), 3, 1.0, tol=0.0)
    with pytest.raises(DivergentLocalFactorError):
        local_factor(geometric_B(1.9), 2, 0.8)


# ---------------------------------------------------------------------------
# lambda0


def test_lambda0_unit_is_one():
    result = lambda0(unit())
    assert isinstance(result, EulerProductResult)
    assert result.value == pytest.approx(1.0, abs=1e-9)
    assert abs(result.value - 1.0) <= result.tail_estimate


def test_lambda0_theta_two_is_six_over_pi_squared():
    # (1-1/p)^2 (1 + 2/(p-1)) = 1 - 1/p^2, so the product is 1/zeta(2)
    result = lambda0(theta_omega(2))
    assert result.value == pytest.approx(6.0 / math.pi**2, abs=1e-6)
    assert abs(result.value - 6.0 / math.pi**2) <= result.tail_estimate


def test_lambda0_vanishes_for_nonpositive_integer_rho():
    for spec in (theta_omega(0), tau_rho(-1), tau_rho(0), theta_omega(-2)):
        result = lambda0(spec)
        assert result.value == 0j
        assert result.tail_estimate == 0.0


def test_lambda0_vanishing_local_factor_gives_exact_zero():
    # f(2) = -2 and f(2^k) = 0 beyond: the p=2 factor is exactly 1 - 2/2 = 0
    spec = tabulated_multiplicative(
        {(2, 1): -2.0, **{(2, k): 0.0 for k in range(2, 60)}}, default=1.0
    )
    result = lambda0(spec)
    assert result.value == 0j


def test_lambda0_stabilizes_within_tail_estimate():
    for spec in (theta_omega(2.5), geometric_B(1.5), euler_phi_over_n()):
        coarse = lambda0(spec, prime_cutoff=10**5)
        fine = lambda0(spec, prime_cutoff=4 * 10**5)
        assert abs(coarse.value - fine.value) <= coarse.tail_estimate


def test_lambda0_rejects_divergent_growth():
    spec = MultiplicativeSpec("heavy", lambda p, k: 1.0, rho=1.0, c0=0.25, growth=GrowthBound(1.0, 2.0))
    with pytest.raises(DivergentLocalFactorError) as exc_info:
        lambda0(spec)
    assert exc_info.value.prime == 2


def test_lambda0_negative_local_factor_is_pole():
    spec = tabulated_multiplicative({(2, 1): -4.0}, default=1.0)
    with pytest.raises(PoleError) as exc_info:
        lambda0(spec)
    assert exc_info.value.prime == 2


def test_lambda0_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        lambda0(unit(), prime_cutoff=50)


# ---------------------------------------------------------------------------
# psi


def test_psi_at_zero_is_one():
    assert psi(unit(), 0.0) == pytest.approx(1.0, abs=1e-9)
    assert psi(theta_omega(2.5), 0.0) == pytest.approx(1.0, abs=1e-9)


def test_psi_at_i_pi_snaps_to_zero():
    # e^{i pi} = -1 twists unit into theta_omega(-1), whose rho snaps to -1
    assert psi(unit(), complex(0.0, math.pi)) == 0j


def test_psi_at_log_two():
    # psi(ln 2) = lambda0(theta_omega(2)) / lambda0(unit) = 6/pi^2
    got = psi(unit(), math.log(2.0))
    assert got == pytest.approx(6.0 / math.pi**2, abs=1e-6)


def test_psi_conjugate_symmetry():
    z = complex(0.3, 0.7)
    a = psi(unit(), z)
    b = psi(unit(), z.conjugate())
    assert a == pytest.approx(b.conjugate(), rel=1e-12)


def test_psi_undefined_when_lambda0_vanishes():
    spec = tabulated_multiplicative(
        {(2, 1): -2.0, **{(2, k): 0.0 for k in range(2, 60)}}, default=1.0
    )
    with pytest.raises(DegenerateSpecError):
        psi(spec, 0.5)


# ---------------------------------------------------------------------------
# g_compensated


def test_g_compensated_theta_two_at_two():
    # the compensated product telescopes to 1/zeta(2s); at s=2 that is 90/pi^4
    result = g_compensated(theta_omega(2), 2.0)
    assert result.value == pytest.approx(90.0 / math.pi**4, abs=1e-8)


def test_g_compensated_tau_rho_is_identically_one():
    for rho in (0.5, 2.0, 3.0):
        result = g_compensated(tau_rho(rho), 2.0)
        assert result.value == pytest.approx(1.0, abs=1e-8)
        off_axis = g_compensated(tau_rho(rho), complex(1.5, 1.0))
        assert off_axis.value == pytest.approx(1.0, abs=1e-8)


def test_g_compensated_conjugate_symmetry():
    s = complex(1.5, 2.0)
    a = g_compensated(theta_omega(2), s).value
    b = g_compensated(theta_omega(2), s.conjugate()).value
    assert a == pytest.approx(b.conjugate(), rel=1e-12)


def test_g_compensated_domain_boundary():
    with pytest.raises(DomainError):
        g_compensated(unit(), 0.7)
    # just inside the strip Re s > 1 - c0 = 0.75 it evaluates
    result = g_compensated(unit(), 0.76)
    assert math.isfinite(abs(result.value))


@pytest.mark.parametrize("s", [0.76, 0.9, 1.0, complex(1.0, 3.0)])
def test_g_compensated_tail_is_finite_on_the_whole_strip(s):
    # for Re s in (1 - c0, 1] the tail is the second-order term alone:
    # unit has rho = C = r = 1 and no prime deviation, so with
    # tau = P^-sigma and Phi = tau/(1 - tau) the factor of p^(-2 sigma) is
    # 1/(1 - tau) + 1/(2(1 - tau)) + 1/(2(1 - tau)^2 (1 - Phi)), summed
    # over p > P as 1.25506 u P^(1-u)/((u - 1) ln P) at u = 2 sigma
    P = 1000
    result = g_compensated(unit(), s, prime_cutoff=P)
    sigma = complex(s).real
    tau = P**-sigma
    Phi = tau / (1.0 - tau)
    second = 1.0 / (1.0 - tau) + 1.0 / (2.0 * (1.0 - tau)) + 1.0 / (2.0 * (1.0 - tau) ** 2 * (1.0 - Phi))
    u = 2.0 * sigma
    want = second * 1.25506 * u * P ** (1.0 - u) / ((u - 1.0) * math.log(P))
    assert result.tail_estimate == pytest.approx(want, rel=1e-15)
    assert 0.0 < result.tail_estimate < math.inf


def test_g_compensated_tail_of_a_spec_with_nothing_to_bound_is_zero():
    # rho = C = c1 = 0 leaves no term, even where 2 Re s <= 1 makes the
    # prime sum of the second-order term infinite
    zero = MultiplicativeSpec("zero", lambda p, k: 0.0, rho=0.0, c0=0.9, growth=GrowthBound(0.0, 1.0))
    assert g_compensated(zero, 0.3, prime_cutoff=1000).tail_estimate == 0.0


def test_g_compensated_takes_the_cutoff_by_keyword_only():
    # an old positional rho must not land in the cutoff slot
    with pytest.raises(TypeError):
        g_compensated(unit(), 2.0, 1000)


def test_g_compensated_divergent_local_factor():
    with pytest.raises(DivergentLocalFactorError) as exc_info:
        g_compensated(geometric_B(1.9, c0=0.45), 0.8)
    assert exc_info.value.prime == 2


def test_g_compensated_negative_local_factor_is_pole():
    spec = tabulated_multiplicative({(2, 1): -4.0}, default=1.0)
    with pytest.raises(PoleError) as exc_info:
        g_compensated(spec, 1.5)
    assert exc_info.value.prime == 2


@pytest.mark.parametrize(
    "spec,rho",
    [
        (unit(), 1.0),
        (theta_omega(2), 2.0),
        (euler_phi_over_n(), 1.0),
        (tau_rho(0.5), 0.5),
    ],
    ids=lambda v: getattr(v, "name", str(v)),
)
def test_g_compensated_matches_dirichlet_partial_sums(spec, rho):
    # sum_{n<=N} f(n) n^{-s} approaches G(s) zeta(s)^rho; at s=2.5 and
    # N=50000 the truncation error sits near 5e-7
    s = 2.5
    N = 50000
    n = np.arange(N + 1, dtype=np.float64)
    n[0] = 1.0
    values = whole_table(spec, None, N)
    partial = complex(np.sum(values[1:] * n[1:] ** (-s)))
    assert spec.rho == rho
    predicted = g_compensated(spec, s).value * cpow(zeta(s), rho)
    assert partial == pytest.approx(predicted, abs=1e-5)


# ---------------------------------------------------------------------------
# admissibility probe


def reference_square_sum_partials(spec, c0, grid):
    """(P, sum over p <= P of inner_p^2) for each P of grid, with
    inner_p = sum_k |f(p^k)| p^{-k(1-c0)}: the square sums whose
    convergence check_admissibility_pp decides, one prime and one power
    at a time."""
    beta = 1.0 - c0
    C, r = spec.growth.C, spec.growth.r
    partials, acc_parts = [], []
    grid_iter = iter(grid)
    next_cut = next(grid_iter)
    for p in prime_array(grid[-1]).tolist():
        while p > next_cut:
            partials.append((next_cut, fsum(acc_parts)))
            next_cut = next(grid_iter)
        K = series_length(C, r / float(p) ** beta, euler.DEFAULT_FACTOR_TOL, p)
        inner = 0.0
        weight = 1.0
        for k in range(1, K + 1):
            weight /= float(p) ** beta
            inner += abs(value_of(spec, p, k)) * weight
        acc_parts.append(inner * inner)
    partials.append((next_cut, fsum(acc_parts)))
    for remaining in grid_iter:
        partials.append((remaining, partials[-1][1]))
    return partials


# the square sums' increments per doubling of P from 2000 on fall where they
# converge and grow where they diverge
EVIDENCE_GRID = [2000 * 2**i for i in range(6)]


def increments(spec, c0, grid=EVIDENCE_GRID):
    partials = [v for _, v in reference_square_sum_partials(spec, c0, grid)]
    return [hi - lo for lo, hi in zip(partials, partials[1:])]


def assert_verdict_agrees_with_the_evidence(spec, c0, grid=EVIDENCE_GRID):
    # (increments all 0 when f vanishes at all but finitely many p)
    report = check_admissibility_pp(dataclasses.replace(spec, c0=c0))
    if report.witness is not None:
        return report
    first, *_, last = increments(spec, c0, grid)
    if report.verdict == "consistent":
        assert last < first or first == last == 0.0, c0
    if report.verdict == "inconsistent":
        assert last > first, c0
    return report


def test_admissibility_consistent_specs():
    for spec in (unit(), theta_omega(2.5), geometric_B(1.5), euler_phi_over_n(), tau_rho(3)):
        report = check_admissibility_pp(dataclasses.replace(spec, c0=0.25))
        assert isinstance(report, AdmissibilityReport)
        assert dataclasses.asdict(report) == {
            "c0": 0.25, "verdict": "consistent", "witness": None, "abscissa_estimate": 1.0, "reason": report.reason}
        assert report.reason.endswith("and c0 < 1/2: sum_p p^(-2(1-c0)) converges")


def test_admissibility_divergent_factor_names_witness():
    report = check_admissibility_pp(geometric_B(1.9, c0=0.1))
    assert dataclasses.asdict(report) == {
        "c0": 0.1, "verdict": "inconsistent", "witness": 2, "abscissa_estimate": 1.0,
        "reason": "growth ratio r = 1.9 >= 2^(1-c0): the bound at p = 2 does not decay"}
    # the inner series at the witness diverges
    with pytest.raises(DivergentLocalFactorError):
        reference_square_sum_partials(geometric_B(1.9, c0=0.1), 0.1, [2])


def test_admissibility_growing_square_sums_without_witness():
    # at c0 = 0.6 the probe exponent 1 - c0 = 0.4 puts even omega-like
    # specs outside square-summability; no single prime is to blame
    report = check_admissibility_pp(dataclasses.replace(theta_omega(2), c0=0.6))
    assert report.verdict == "inconsistent"
    assert report.witness is None
    steps = increments(theta_omega(2), 0.6)
    assert steps[-1] > steps[0] > 0.0


def test_admissibility_borderline_is_inconsistent():
    # |f(p)| -> 1 makes the square sum sum_p p^(-2(1-c0)), divergent from c0 = 1/2 on
    for c0 in (0.5, 0.51, 0.52):
        report = check_admissibility_pp(dataclasses.replace(unit(), c0=c0))
        assert (report.verdict, report.witness) == ("inconsistent", None)


def test_admissibility_near_threshold_consistent():
    report = check_admissibility_pp(dataclasses.replace(unit(), c0=0.49))
    assert report.verdict == "consistent"


def test_admissibility_abscissa_estimate_bounds():
    # the abscissa of sum n^-sigma and of every spec with |f(p)| -> a > 0 and r < 2 is 1
    unit_report = check_admissibility_pp(unit())
    assert unit_report.abscissa_estimate == 1.0
    heavy = check_admissibility_pp(geometric_B(1.9, c0=0.1))
    assert heavy.abscissa_estimate == 1.0


def test_admissibility_validation():
    # check_admissibility_pp reads the spec's c0, which the spec keeps in (0, 1)
    for c0 in (1.5, 0.0):
        with pytest.raises(ValueError, match=re.escape(f"c0 must lie in (0,1), got {c0}")):
            dataclasses.replace(unit(), c0=c0)


def test_admissibility_evidence_overflow_keeps_the_verdict():
    # the inner series at p = 2 needs 1.5^k past k = 1751 for c0 in about
    # [0.39, 0.415), which overflows a float; the verdict reads the spec alone
    reason = "|f(p)| -> 1.5 > 0 and c0 < 1/2: sum_p p^(-2(1-c0)) converges"
    for c0 in (0.39, 0.4, 0.41):
        report = check_admissibility_pp(dataclasses.replace(geometric_B(1.5), c0=c0))
        assert (report.verdict, report.witness, report.reason) == ("consistent", None, reason)
        with pytest.raises(OverflowError):
            reference_square_sum_partials(geometric_B(1.5), c0, [2])


# spec -> (a = |f(p)| limit > 0, edge, abscissa).  With a > 0 the verdict is
# consistent below c0 = 1/2 and inconsistent from there on, and the edge is the
# first c0 of the sweep with witness 2, where r >= 2^(1-c0) (c0 >= 1 - log2 r).
# With a = 0 the edge is the first inconclusive c0.
SWEEP = {
    "unit": (True, None, 1.0),
    "theta_omega:2": (True, None, 1.0),
    "theta_omega:0.5": (True, None, 1.0),
    "geometric_B:1.5": (True, 0.42, 1.0),
    "geometric_B:1.9": (True, 0.08, 1.0),
    "perturbed:a=1,eps=0.5": (True, None, 1.0),
    "tau_rho:0.5": (True, 0.68, 1.0),
    "tau_rho:3": (True, 0.68, 1.0),
    "euler_phi_over_n": (True, None, 1.0),
    "tabulated": (True, None, 1.0),
    "theta_omega:0": (False, None, 0.0),  # C = c1 = 0: nothing left to bound, and log2 r = 0
    "tabulated:default=0,3^1=2": (False, 0.75, 0.5),  # C = 2 needs 1 - c0 > 1/4; c1 = 6, eps = 1
}


def sweep_expectation(text, c0):
    positive, edge, abscissa = SWEEP[text]
    past_edge = edge is not None and c0 >= edge
    if not positive:
        return ("inconclusive" if past_edge else "consistent"), None, abscissa
    if past_edge:
        return "inconsistent", 2, abscissa
    return ("consistent" if c0 < 0.5 else "inconsistent"), None, abscissa


@pytest.mark.parametrize("text", SWEEP)
def test_admissibility_rule_sweep(text):
    # the rule reads only the spec's prime data; the square sums, which can
    # take thousands of terms per prime near the witness edge, are checked below
    spec = parse_multiplicative(text)
    for c0 in (i / 100 for i in range(1, 100)):
        report = check_admissibility_pp(dataclasses.replace(spec, c0=c0))
        assert (report.verdict, report.witness, report.abscissa_estimate) == sweep_expectation(text, c0), c0


@pytest.mark.parametrize("text", SWEEP)
def test_admissibility_verdict_agrees_with_the_evidence(text):
    # the square sums converge where the rule says consistent and diverge
    # where it says inconsistent
    spec = parse_multiplicative(text)
    for c0 in (0.25, 0.35, 0.6, 0.75):
        report = assert_verdict_agrees_with_the_evidence(spec, c0)
        assert (report.verdict, report.witness, report.abscissa_estimate) == sweep_expectation(text, c0)


def test_check_reads_the_spec_alone(monkeypatch, capsys):
    # no prime is listed, no local factor computed and no value_at called,
    # by the library over the sweep or by sd check
    def refuse(*args):
        raise AssertionError("sd check did work beyond the spec's prime data")

    monkeypatch.setattr(euler, "prime_array", refuse)
    monkeypatch.setattr(euler, "_local_factors", refuse)
    for text in SWEEP:
        for c0 in (i / 100 for i in range(1, 100)):
            spec, calls = counted(dataclasses.replace(parse_multiplicative(text), c0=c0))
            check_admissibility_pp(spec)
            assert calls == [], (text, c0)
    cli_calls = []

    def parse_counted(text):
        spec, calls = counted(parse_multiplicative(text))
        cli_calls.append(calls)
        return spec

    monkeypatch.setattr(cli, "parse_multiplicative", parse_counted)
    for text in ("unit", "geometric_B:1.5,c0=0.4", "tabulated:default=0,3^1=2"):
        assert cli.main(["check", "--spec", text]) == 0
        assert capsys.readouterr().err == ""
    assert cli_calls == [[], [], []]


def test_euler_imports_nothing_from_exact():
    # the Euler products and the admissibility check read the specs, not the exact value tables
    tree = ast.parse(Path(euler.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names = [f"{node.module or ''}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        assert not any("exact" in name.split(".") for name in names), ast.dump(node)


# ---------------------------------------------------------------------------
# the numpy kernel against the scalar local_factor path


@pytest.mark.parametrize("im", [np.array([0.25, 1e200, 0.0, 3.0, 1e250, 1e308, 0.0]), 1.0], ids=["array", "scalar"])
def test_kernel_clog1p_is_the_scalar_one_where_the_square_overflows(im):
    # log|1 + F| from log1p of 2 re + re^2 + im^2 while that is finite,
    # else from hypot(1 + re, im); both bit for bit as special.clog1p
    re = np.array([0.5, 1e-3, 1e200, -1e200, 1e160, 1e308, -0.25])
    L_re, L_im = euler._clog1p(re, im)
    want = [clog1p(complex(a, b)) for a, b in zip(re.tolist(), np.broadcast_to(im, re.shape).tolist())]
    assert (L_re.tolist(), L_im.tolist()) == ([w.real for w in want], [w.imag for w in want])


def head_tol(P):
    """The tolerance of each local series of a product over the primes
    p <= P: the product's budget DEFAULT_FACTOR_TOL shared by its primes."""
    return euler.DEFAULT_FACTOR_TOL / len(prime_array(P))


def reference_log_product(spec, s, rho, P, at_one):
    """Per-prime fsum of log terms built from the scalar local_factor,
    each series cut at head_tol(P).

    Returns (log of the product, or None once a factor vanishes; k_max).
    at_one selects lambda0's compensator log1p(-1/p); otherwise it is
    g_compensated's clog1p(-p^{-s}).
    """
    re_parts, im_parts, k_max, tol = [], [], 0, head_tol(P)
    for p in prime_array(P).tolist():
        q = spec.growth.r / float(p) ** s.real
        k_max = max(k_max, series_length(spec.growth.C, q, tol, p))
        F = local_factor(spec, p, s, tol)
        w = 1.0 + F
        if w == 0:
            return None, k_max
        if w.imag == 0.0 and w.real < 0.0:
            raise PoleError("log branch cut", prime=p)
        if at_one:
            compensator = math.log1p(-1.0 / p)
        elif s.imag == 0.0:
            compensator = clog1p(-complex(float(p) ** (-s.real)))
        else:
            compensator = clog1p(-cmath.exp(-s * math.log(p)))
        term = rho * compensator + clog1p(F)
        re_parts.append(term.real)
        im_parts.append(term.imag)
    return complex(fsum(re_parts), fsum(im_parts)), k_max


def reference_lambda0(spec, P):
    """The scalar head, closed by the same prime-zeta tail as lambda0."""
    rho = complex(spec.rho)
    total, k_max = reference_log_product(spec, complex(1.0), rho, P, at_one=True)
    if total is None:
        return 0j, k_max
    tail = euler._completion(spec, rho, P)
    if tail is not None:
        total += tail.value
    return cmath.exp(total) / gamma(rho), k_max


def reference_g_compensated(spec, s, P):
    total, k_max = reference_log_product(spec, complex(s), complex(spec.rho), P, at_one=False)
    return (0j if total is None else cmath.exp(total)), k_max


def outcome(compute):
    """(value bits, k_cutoff) of a product, or (error class, prime)."""
    try:
        result = compute()
    except (DivergentLocalFactorError, PoleError, ValueError) as exc:
        return type(exc), getattr(exc, "prime", None)
    if isinstance(result, EulerProductResult):
        result = (result.value, result.k_cutoff)
    value, k_max = result
    return repr(value.real), repr(value.imag), k_max


def _mod4_value(p, k):
    # `if` on an array raises ValueError, so the kernel falls back to
    # evaluating this one prime at a time
    return 1.0 + (0.5 if p % 4 == 1 else -0.5) / p**k


MOD4 = MultiplicativeSpec(
    name="mod4",
    value_at=_mod4_value,
    rho=1.0,
    c0=0.25,
    growth=GrowthBound(1.5, 1.0),
    prime_deviation=(0.5, 1.0),
)
TABLE = tabulated_multiplicative({(2, 1): 0.5, (3, 2): 2.0, (7, 1): 1.5}, default=1.0)
# y = e^z for z on the report's default circle:16
CIRCLE_Y = [cmath.exp(cmath.exp(2j * math.pi * j / 16)) for j in (1, 5, 8, 11)]

ORACLE_SPECS = [
    unit(),
    theta_omega(2.5),
    theta_omega(complex(1.5, 0.5)),
    geometric_B(1.5),
    perturbed(1, 0.5),
    perturbed(2, 1.5),
    tau_rho(0.5),
    tau_rho(3),
    euler_phi_over_n(),
    *[twist(theta_omega(2), y, OMEGA) for y in CIRCLE_Y],
    twist(euler_phi_over_n(), CIRCLE_Y[0], OMEGA),
    twist(geometric_B(1.5), 1.0001, BIG_OMEGA),
    twist(unit(), complex(0.9, 0.3), BIG_OMEGA),
    TABLE,
    twist(TABLE, CIRCLE_Y[1], OMEGA),
    twist(unit(), 2.0, tabulated_additive({(3, 1): 1.0, (5, 2): 2.0})),
    MOD4,
]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
def test_kernel_matches_scalar_reference_to_the_last_bit(spec):
    P = 3000
    assert outcome(lambda: lambda0(spec, P)) == outcome(lambda: reference_lambda0(spec, P))
    for s in (2.0, 1.1, complex(1.5, 1.0)):
        got = outcome(lambda: g_compensated(spec, s, prime_cutoff=P))
        assert got == outcome(lambda: reference_g_compensated(spec, s, P))


def test_fallback_specs_do_not_broadcast():
    primes = np.array([2, 3, 5], dtype=object)
    with pytest.raises(ValueError):
        MOD4.value_at(primes, 1)
    with pytest.raises(TypeError):
        without_series(TABLE).value_at(primes, 1)


def test_kernel_errors_act_at_the_same_prime_as_the_reference():
    zero_at_5 = {(5, 1): -5.0, **{(5, k): 0.0 for k in range(2, 60)}}
    pole_at_3 = tabulated_multiplicative({(3, 1): -4.0, **zero_at_5})
    zero_first = tabulated_multiplicative({(7, 1): -9.0, **zero_at_5})
    assert outcome(lambda: lambda0(pole_at_3, 1000)) == (PoleError, 3)
    assert outcome(lambda: reference_lambda0(pole_at_3, 1000)) == (PoleError, 3)
    got = lambda0(zero_first, 1000)
    assert got.value == 0j and got.tail_estimate == 0.0
    assert outcome(lambda: got) == outcome(lambda: reference_lambda0(zero_first, 1000))
    assert outcome(lambda: g_compensated(pole_at_3, 1.0, prime_cutoff=1000)) == (PoleError, 3)
    assert outcome(lambda: reference_g_compensated(pole_at_3, 1.0, 1000)) == (PoleError, 3)
    # growth ratio above 2^0.8 diverges at p = 2; just below 2^s the
    # series needs more than the hard cap of terms
    heavy = geometric_B(1.9, c0=0.45)
    for s in (0.8, math.log2(1.9 / 0.99995)):
        with pytest.raises(DivergentLocalFactorError) as got_info:
            g_compensated(heavy, s, prime_cutoff=1000)
        with pytest.raises(DivergentLocalFactorError) as want_info:
            reference_g_compensated(heavy, s, 1000)
        assert got_info.value.prime == want_info.value.prime == 2
        assert str(got_info.value) == str(want_info.value)


BUILTIN_SPECS = st.one_of(
    st.just(unit()),
    st.just(euler_phi_over_n()),
    st.floats(0.1, 3.0).map(theta_omega),
    st.floats(0.1, 1.9).map(geometric_B),
    st.floats(0.1, 4.0).map(tau_rho),
    st.tuples(st.floats(0.5, 2.0), st.floats(0.2, 2.0)).map(lambda t: perturbed(*t)),
)
BUILTIN_SPECS_FOR_GRIDS = st.one_of(BUILTIN_SPECS, st.just(TABLE), st.just(MOD4))
TWISTS = st.one_of(
    st.none(),
    st.tuples(st.floats(0.3, 2.0), st.floats(-math.pi, math.pi)).map(
        lambda t: (cmath.rect(*t), OMEGA)
    ),
    st.floats(0.5, 1.05).map(lambda y: (y, BIG_OMEGA)),
)


@settings(max_examples=40, deadline=None)
@given(
    spec=BUILTIN_SPECS,
    tw=TWISTS,
    P=st.integers(100, 5000),
    s=st.sampled_from([None, 2.0, complex(1.5, 1.0)]),
)
def test_kernel_matches_reference_on_random_specs(spec, tw, P, s):
    if tw is not None:
        spec = twist(spec, *tw)
    if s is not None:
        got = outcome(lambda: g_compensated(spec, s, prime_cutoff=P))
        assert got == outcome(lambda: reference_g_compensated(spec, s, P))
    elif euler._is_snapped_nonpositive_integer(spec.rho):
        assert lambda0(spec, P).value == 0j
    else:
        assert outcome(lambda: lambda0(spec, P)) == outcome(lambda: reference_lambda0(spec, P))


# ---------------------------------------------------------------------------
# stacked rows: one kernel pass for many products


def factor_bits(factors):
    """Every array and number of one row of a pass, or the error in its place."""
    if isinstance(factors, Exception):
        return type(factors), str(factors), getattr(factors, "prime", None)
    arrays = (factors.primes, factors.F_re, factors.F_im, factors.t_re, factors.t_im)
    return tuple(None if a is None else a.tobytes() for a in arrays), factors.k_max


def result_bits(result):
    """outcome() of a product the batch returned, error or value."""
    if isinstance(result, Exception):
        return type(result), getattr(result, "prime", None)
    return outcome(lambda: result)


def batch_results(specs, P):
    """_lambda0_batch's entries without their heads: each result, or its error."""
    return [entry if isinstance(entry, Exception) else entry[0] for entry in euler._lambda0_batch(specs, P)]


STACK_SPECS = ORACLE_SPECS + [twist(unit(), y, OMEGA) for y in CIRCLE_Y]
# the specs whose values give one value for all primes, so that every
# power of the pass is a column of one value per row
TWO_THREE = np.array([2, 3])
COLUMN_SPECS = [
    spec for spec in STACK_SPECS
    if np.ndim(euler._spec_row(spec).values(1, TWO_THREE)) == 0
]


def assert_stack_equals_rows_alone(specs, s, P):
    rows = [euler._spec_row(spec) for spec in specs]
    stacked = euler._local_factors(rows, complex(s), P)
    assert len(stacked) == len(rows)
    for row, got in zip(rows, stacked):
        assert factor_bits(got) == factor_bits(euler._local_factors([row], complex(s), P)[0])


@pytest.mark.parametrize("s", [1.0, 2.0, 1.1, complex(1.5, 1.0)])
@pytest.mark.parametrize("stack", ["all", "columns"])
def test_stacked_rows_equal_each_row_alone(stack, s):
    # the series, staircases and power columns of a stack are those of
    # each row in a pass of its own, to the last bit
    assert len(COLUMN_SPECS) >= 12
    assert_stack_equals_rows_alone(STACK_SPECS if stack == "all" else COLUMN_SPECS, s, 3000)


def test_a_row_that_diverges_at_the_first_prime_stays_out_of_the_stack():
    # at s = 0.8 geometric_B:1.9 diverges at p = 2 (1.9/2^0.8 >= 1) but not
    # at p >= 3; unit's series runs past a cap of 12 terms
    with mock.patch.object(euler, "_K_HARD_CAP", 12):
        assert_stack_equals_rows_alone([geometric_B(1.9, c0=0.45), unit(), theta_omega(0.5)], 0.8, 1000)


def test_stacked_lambda0_matches_each_row_and_the_scalar_reference():
    # and each head is the plain product, which the spec without its
    # series gives: the value itself unless the product completed
    P = 3000
    for spec, entry in zip(STACK_SPECS, euler._lambda0_batch(STACK_SPECS, P)):
        result, head = (entry, None) if isinstance(entry, Exception) else entry
        want = outcome(lambda: lambda0(spec, P))
        assert result_bits(result) == want
        assert want == outcome(lambda: reference_lambda0(spec, P))
        if head is not None:
            assert result == lambda0(spec, P)
            plain = lambda0(without_series(spec), P)
            assert (repr(head), plain.completed) == (repr(plain.value), False)


@pytest.mark.parametrize(
    "entries",
    [{(2, 1): math.nan}, {(3, 1): -math.inf}, {(3, 2): math.inf}, {(5, 1): complex(0.5, math.inf)},
     {(5, 1): complex(-math.inf, 0.0)}],
    ids=["nan", "-inf", "inf", "inf-imag", "-inf-complex"],
)
def test_non_finite_values_fail_as_the_scalar_path(entries):
    # a hand-built spec whose envelope C = 1 ignores its non-finite entry,
    # so that the kernel, not the envelope, meets it: a ValueError as on
    # the scalar path, naming the prime, in a stack or alone.  The real
    # power column skips the zero imaginary half, so -inf stays real, and
    # non-finite is checked before the log branch cut
    spec = MultiplicativeSpec("table", lambda p, k: entries.get((p, k), 1.0), rho=1.0, c0=0.25,
                              growth=GrowthBound(1.0, 1.0))
    with pytest.raises(ValueError):
        reference_lambda0(spec, 200)
    [(p, _)] = entries
    for specs in ([spec], [unit(), spec, theta_omega(2)]):
        results = batch_results(specs, 200)
        got = results[specs.index(spec)]
        assert (type(got), str(got)) == (ValueError, f"local factor 1 + F_p(1) is not finite at p={p}")
        assert all(result == lambda0(other, 200) for other, result in zip(specs, results) if other is not spec)


def psi_alone(alpha, z, g, P):
    """psi(z) alone, or the error it raises."""
    try:
        return psi(alpha, z, g, P)
    except (ArithmeticError, ValueError) as exc:
        return exc


def psi_bits(value):
    if isinstance(value, Exception):
        return type(value), getattr(value, "prime", None), str(value)
    return repr(complex(value))


GRID_Z = st.complex_numbers(max_magnitude=3.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=25, deadline=None)
@given(
    alpha=BUILTIN_SPECS_FOR_GRIDS,
    zs=st.lists(GRID_Z, min_size=1, max_size=5),
    g=st.sampled_from([OMEGA, BIG_OMEGA]),
    P=st.integers(100, 2000),
)
def test_psi_grid_matches_psi_alone(alpha, zs, g, P):
    # one pass for the grid gives psi(z) alone at every z, or raises what
    # the first failing z raises alone
    want = [psi_alone(alpha, z, g, P) for z in zs]
    try:
        got = euler.psi_grid(alpha, zs, g, P)
    except (ArithmeticError, ValueError) as exc:
        first = next(w for w in want if isinstance(w, Exception))
        assert psi_bits(exc) == psi_bits(first)
    else:
        assert [psi_bits(v) for v in got] == [psi_bits(w) for w in want]


def test_failing_rows_leave_the_others_unchanged():
    # f(2) = -1: twisting by y = 2 makes 1 + F_2 = 0 (the product is 0),
    # by y = 3 makes it -1/2 (a pole at p = 2); Omega twists by |y| >= 2
    # have growth ratio >= 2 (divergence)
    alpha = tabulated_multiplicative({(2, 1): -1.0, **{(2, k): 0.0 for k in range(2, 60)}})
    P = 1000
    vanishing, pole, diverging = math.log(2.0), math.log(3.0), complex(0.8, 0.3)
    zs = [0.25, vanishing, complex(0.1, 2.0), pole, -0.5, diverging, 0.4]
    g_of = {diverging: BIG_OMEGA}
    specs = [alpha] + [twist(alpha, cmath.exp(z), g_of.get(z, OMEGA)) for z in zs]
    results = batch_results(specs, P)
    for spec, result in zip(specs, results):
        assert result_bits(result) == outcome(lambda: lambda0(spec, P))
    assert result_bits(results[2]) == ("0.0", "0.0", 55)
    assert result_bits(results[4]) == (PoleError, 2)
    assert result_bits(results[6]) == (DivergentLocalFactorError, 2)
    # psi over the grid raises the pole, the first failing z, as psi(pole)
    # alone does, and psi alone gives every other z what it gives in a
    # stack; e^-800 underflows to 0, which the twist step rejects
    omega_zs = [z for z in zs if z != diverging] + [-800.0]
    want = {z: psi_bits(psi_alone(alpha, z, OMEGA, P)) for z in omega_zs}
    assert want[vanishing] == "0j"
    assert want[-800.0][0] is DomainError
    with pytest.raises(PoleError) as exc_info:
        euler.psi_grid(alpha, omega_zs, OMEGA, P)
    assert psi_bits(exc_info.value) == want[pole]
    for z in omega_zs:
        if z in (pole, -800.0):
            continue
        assert psi_bits(psi(alpha, z, OMEGA, P)) == want[z]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("z", [6.0, 400.0, 1000.0, -1000.0, complex(5.2, 0.1)])
def test_twist_out_of_float_range_is_rejected_before_its_product(z):
    # Gamma(e^z), the rho of the omega twist of unit, overflows past
    # z = 5.147; e^z overflows past 709.78 and is 0 below -745
    assert not euler._twist_is_finite(unit(), complex(z), OMEGA)
    rows = []
    local_factors = euler._local_factors

    def counted(stack, *args):
        rows.append(len(stack))
        return local_factors(stack, *args)

    message = f"z = {complex(z):g} takes the twist out of float64 range"
    with mock.patch.object(euler, "_local_factors", counted), pytest.raises(DomainError, match=re.escape(message)):
        psi(unit(), z, prime_cutoff=100)
    assert rows == [1]  # lambda0(unit) alone: the twist has no row


def test_psi_prime_at_zero_refuses_a_g_without_prime_value_before_its_pass():
    rows = []
    local_factors = euler._local_factors

    def counted(stack, *args):
        rows.append(len(stack))
        return local_factors(stack, *args)

    custom = AdditiveSpec(name="custom", value_at=lambda p, k: 1)
    with mock.patch.object(euler, "_local_factors", counted), pytest.raises(ValueError) as exc_info:
        psi_prime_at_zero(unit(), custom, 1000)
    assert str(exc_info.value) == "additive spec 'custom' has no generic prime value; psi'(0) needs one"
    assert rows == []


def test_psi_and_ldp_read_one_twist_predicate():
    # ldp's "need s < 171.624" for omega is where psi(ln s) is refused too;
    # a rho that snaps to a nonpositive integer needs no Gamma
    assert euler._twist_is_finite(unit(), math.log(171.62), OMEGA)
    assert not euler._twist_is_finite(unit(), math.log(171.63), OMEGA)
    with pytest.raises(DomainError):
        psi(unit(), math.log(171.63), prime_cutoff=100)
    assert psi(unit(), complex(math.log(200.0), math.pi), prime_cutoff=100) == 0j
    # a g without a k_value is left to twist, which names it
    assert euler._twist_is_finite(unit(), 1000.0, dataclasses.replace(OMEGA, k_value=None, value_at=lambda p, k: 1))


def test_psi_grid_stores_its_products_for_lambda0():
    # the grid's pass gives sd report its lambda0 block: the denominator
    # row is lambda0(alpha) alone, and each value psi(z) alone
    spec, P = theta_omega(1.25), 1500
    zs = [cmath.exp(2j * math.pi * j / 16) for j in range(16)]
    den, values = euler._psi_batch(spec, [euler._exp_twist(spec, z, OMEGA) for z in zs], P)
    assert den == lambda0(spec, P)
    assert values == euler.psi_grid(spec, zs, OMEGA, P)
    assert [psi_bits(value) for value in values] == [psi_bits(psi(spec, z, prime_cutoff=P)) for z in zs]


@pytest.mark.parametrize(
    "alpha, zs, g, P",
    [
        (theta_omega(30), [-3.0, -2.0], OMEGA, 100),
        (theta_omega(2), [0.5, 1j, complex(-0.3, 0.7)],
         tabulated_additive({(2, 1): 1.0, (3, 1): 1.0, (30011, 1): 1.0}), 30000),
        (theta_omega(5), [2.0], OMEGA, 100),
    ],
    ids=["plain-denominator", "plain-twists", "unclosed-series-twist"],
)
def test_psi_grid_divides_products_closed_unlike_as_their_plain_products(alpha, zs, g, P):
    # theta_omega(30)'s series grows too fast to close just above 100,
    # while its twists by e^-3 and e^-2 complete; a tabled prime above
    # 30000 keeps each twist plain, while alpha completes; the twist of
    # theta_omega(5) by e^2 has a series too, but it does not close just
    # above 100, while alpha does.  The plain
    # products of the specs without their series are the oracle for the
    # heads that the grid's one pass divides
    def plain(spec):
        result = lambda0(without_series(spec), P)
        assert not result.completed
        return result.value

    twists = [twist(alpha, cmath.exp(z), g) for z in zs]
    assert {lambda0(spec, P).completed for spec in twists} == {not lambda0(alpha, P).completed}
    want = [plain(spec) / plain(alpha) for spec in twists]
    assert [repr(v) for v in euler.psi_grid(alpha, zs, g, P)] == [repr(v) for v in want]


def per_prime_lengths(counts, cut):
    """K_p for each of the first cut primes, from the staircase counts."""
    K = np.zeros(cut, dtype=np.int64)
    for n in counts:
        K[:n] += 1
    return K


# (a, b) of the envelopes (a + b k) C q^k: geometric, k-weighted, both, none
ENVELOPES = [(1.0, 0.0), (0.0, 1.0), (2.0, 0.5), (0.0, 0.0)]


def staircase(C, r, s, P, envelope=(1.0, 0.0)):
    """The row (C, r, envelope) alone in a kernel pass at s over the
    primes p <= P: its local factors, or the error in their place, and
    its staircase, the number of primes its values were read over at
    each power k."""
    counts = []

    def values(k, primes):
        assert k == len(counts) + 1
        counts.append(len(primes))
        return 1.0

    [factors] = euler._local_factors([euler._Row(values, C, r, envelope)], complex(s), P)
    return factors, counts


def scalar_series_lengths(primes, q, C, tol, envelope):
    """series_length prime by prime, up to the first failure."""
    lengths = []
    for p, qp in zip(primes.tolist(), q.tolist()):
        try:
            lengths.append(series_length(C, qp, tol, p, envelope))
        except DivergentLocalFactorError as exc:
            return lengths, exc
    return lengths, None


@settings(max_examples=100, deadline=None)
@given(
    C=st.floats(0.0, 10.0),
    r=st.floats(0.0, 2.0, exclude_max=True),
    sigma=st.sampled_from([1.0, 0.5, 0.2, 0.05]),
    tol=st.floats(1e-16, 1e-2),
    P=st.integers(2, 3000),
    cap=st.sampled_from([euler._K_HARD_CAP, 4, 12]),
    envelope=st.sampled_from(ENVELOPES),
)
# past the cap at p = 2; diverges at p = 2; K_2 = 5, one past the cap;
# past a cap of 12 at p = 2 with sigma = 0.05, over 3000 primes
@example(C=1.0, r=1.9999, sigma=1.0, tol=1e-14, P=100, cap=euler._K_HARD_CAP, envelope=(1.0, 0.0))
@example(C=1.0, r=1.5, sigma=0.5, tol=1e-14, P=100, cap=euler._K_HARD_CAP, envelope=(1.0, 0.0))
@example(C=1.0, r=0.5, sigma=1.0, tol=1e-3, P=100, cap=4, envelope=(1.0, 0.0))
@example(C=1.0, r=0.9, sigma=0.05, tol=1e-14, P=3000, cap=12, envelope=(2.0, 0.5))
def test_staircase_matches_the_scalar_series_length(C, r, sigma, tol, P, cap, envelope):
    # the staircase the kernel reads, expanded to one K per prime, is the
    # scalar K_p of the envelope, cut at the budget tol over the number
    # of primes, at every prime; the scalar reference, which walks prime
    # by prime, fails at the first prime or not at all, and the kernel
    # returns that error in the row's place with no values read; the
    # small caps put some K_p right at the hard cap
    primes = prime_array(P)
    q = r / euler._map_float(math.pow, primes.astype(np.float64), sigma)
    with mock.patch.object(euler, "_K_HARD_CAP", cap), mock.patch.object(euler, "DEFAULT_FACTOR_TOL", tol):
        factors, counts = staircase(C, r, sigma, P, envelope)
        want, want_failure = scalar_series_lengths(primes, q, C, head_tol(P), envelope)
    if want_failure is None:
        assert per_prime_lengths(counts, len(factors.primes)).tolist() == want
        assert len(factors.primes) == len(primes)
        assert counts == sorted(counts, reverse=True) and 0 not in counts
        assert factors.k_max == len(counts) == want[0]
    else:
        assert (want, want_failure.prime) == ([], 2)
        assert counts == []
        assert (type(factors), factors.prime, str(factors)) == (
            type(want_failure), want_failure.prime, str(want_failure))


@pytest.mark.parametrize("envelope", ENVELOPES)
def test_series_lengths_match_the_envelope_tail(envelope):
    # K_p is the smallest K >= 1 with sum_{k>K} (a + b k) C q^k <= tol/n,
    # n = 46 primes, so the cuts of the whole head drop at most tol; the
    # tail is summed here term by term
    a, b = envelope
    C, budget = 1.5, 1e-12
    primes = prime_array(200)
    tol = budget / len(primes)
    q = 1.9 / primes
    with mock.patch.object(euler, "DEFAULT_FACTOR_TOL", budget):
        factors, counts = staircase(C, 1.9, 1.0, 200, envelope)
    assert not isinstance(factors, Exception) and len(factors.primes) == len(primes)
    K = per_prime_lengths(counts, len(factors.primes))
    def tail(qp, K0):
        return fsum((a + b * k) * C * qp**k for k in range(K0 + 1, K0 + 2000))

    for p, qp, got in zip(primes.tolist(), q.tolist(), K.tolist()):
        assert tail(qp, got) <= tol * (1 + 1e-9), p
        assert got == 1 or tail(qp, got - 1) > tol * (1 - 1e-9), p
    assert fsum(tail(qp, got) for qp, got in zip(q.tolist(), K.tolist())) <= budget


def test_a_row_past_the_cap_fails_before_its_values_are_read():
    # geometric_B:1.9999's envelope needs more than _K_HARD_CAP terms at
    # p = 2: the row fails there with no values read, and the row beside
    # it keeps the bits of its pass alone
    def unread(k, primes):
        raise AssertionError(f"values read at k = {k}")

    rows = [euler._Row(unread, 1.0, 1.9999), euler._spec_row(theta_omega(2))]
    capped, beside = euler._local_factors(rows, complex(1.0), 100)
    assert (type(capped), capped.prime, str(capped)) == (
        DivergentLocalFactorError, 2, f"local factor at p=2 needs more than {euler._K_HARD_CAP} terms")
    assert factor_bits(beside) == factor_bits(euler._local_factors(rows[1:], complex(1.0), 100)[0])


def test_a_pass_whose_every_row_failed_returns_its_errors_alone():
    # at sigma = 0.5, r = 1.4142 needs more than _K_HARD_CAP terms at
    # p = 2 and r = 1.5 diverges there: the pass reads no values, maps no
    # column of p^sigma, and returns the two errors in the rows' places
    def unread(k, primes):
        raise AssertionError(f"values read at k = {k}")

    def unmapped(*columns):
        raise AssertionError("a column was built")

    rows = [euler._Row(unread, 1.0, 1.4142), euler._Row(unread, 1.0, 1.5)]
    with mock.patch.object(euler, "_map_float", unmapped):
        capped, diverging = euler._local_factors(rows, complex(0.5), 100)
    q = 1.5 / math.sqrt(2.0)
    assert [factor_bits(capped), factor_bits(diverging)] == [
        (DivergentLocalFactorError, f"local factor at p=2 needs more than {euler._K_HARD_CAP} terms", 2),
        (DivergentLocalFactorError, f"local factor diverges at p=2: growth ratio 1*{q:g}^k does not decay", 2),
    ]


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
def test_admissibility_partials_match_scalar_reference(spec):
    # the scalar reference's square sums match the rule's verdict for the
    # oracle's specs: complex rho, twists, tables and a value_at that takes
    # no arrays, which the sweep above does not hold
    for c0 in (0.25, 0.6):
        assert_verdict_agrees_with_the_evidence(spec, c0, EVIDENCE_GRID[:4])


# ---------------------------------------------------------------------------
# repeated products: every call computes its product afresh, and
# gives the same bits for the same spec and cutoff


def test_memo_accepts_numpy_scalars_and_float_cutoff():
    spec = theta_omega(1.5)
    want = lambda0(spec, 3000).value
    assert lambda0(spec, 3000.0).value == want
    assert lambda0(spec, np.int64(3000)).value == want
    z = 0.25
    want = psi(spec, z, prime_cutoff=3000)
    assert psi(spec, np.float64(z), prime_cutoff=3000.0) == want
    assert psi(spec, np.complex128(z), OMEGA, np.int64(3000)) == want


def test_memo_hit_equals_fresh_computation():
    # repeated calls make a pass each, and agree to the last bit
    spec = theta_omega(0.75)
    rows = []
    local_factors = euler._local_factors

    def counted(stack, *args):
        rows.append(len(stack))
        return local_factors(stack, *args)

    z = complex(0.2, 0.4)
    with mock.patch.object(euler, "_local_factors", counted):
        products = [lambda0(spec, 4000) for _ in range(3)]
        values = [psi(spec, z, prime_cutoff=4000) for _ in range(3)]
    assert products[0] == products[1] == products[2]
    assert repr(values[0]) == repr(values[1]) == repr(values[2])
    assert rows == [1, 1, 1, 2, 2, 2]


def test_specs_that_differ_in_value_at_alone_give_their_own_products():
    # no series: a series states the values, and the kernel reads it in place of value_at
    a = dataclasses.replace(theta_omega(2), series=None, value_at=lambda p, k: 2.0)
    b = dataclasses.replace(a, value_at=lambda p, k: 1.5)
    assert a != b
    for first, second in ((a, b), (b, a)):
        assert lambda0(first, 2000).value != lambda0(second, 2000).value
        assert psi(first, 0.3, prime_cutoff=2000) != psi(second, 0.3, prime_cutoff=2000)


def test_an_unhashable_spec_computes_as_a_hashable_one():
    # a spec with an unhashable field computes as the hashable one does
    spec = dataclasses.replace(theta_omega(2), prime_deviation=[0.0, 1.0])
    with pytest.raises(TypeError):
        hash(spec)
    # the tables and their twists stay hashable: their entries are
    # compared but not hashed
    g = tabulated_additive({(3, 1): 1.0})
    specs = {TABLE: 0, g: 1, twist(TABLE, 2.0, g): 2}
    assert [specs[spec] for spec in (TABLE, g)] == [0, 1]
    assert dataclasses.replace(TABLE, series=dataclasses.replace(TABLE.series, exceptions={})) != TABLE
    assert lambda0(spec, 2000).value == lambda0(theta_omega(2), 2000).value
    assert psi(spec, 0.3, prime_cutoff=2000) == psi(theta_omega(2), 0.3, prime_cutoff=2000)


# ---------------------------------------------------------------------------
# additive tables


def test_psi_with_additive_table_matches_closed_form():
    # g = 1 at p = 2, 3, 5, 7 and 0 elsewhere only moves four factors:
    # psi(ln 2) = prod_{p<=7} (1 + (p-1)/p^2)
    g = tabulated_additive({(p, 1): 1.0 for p in (2, 3, 5, 7)})
    exact = math.prod(1.0 + (p - 1) / p**2 for p in (2, 3, 5, 7))
    assert exact == pytest.approx(1.98923, abs=5e-6)
    for P in (10**3, 10**4, 10**5):
        got = psi(unit(), math.log(2.0), g, prime_cutoff=P)
        tail = lambda0(twist(unit(), 2.0, g), P).tail_estimate + lambda0(unit(), P).tail_estimate
        assert abs(got - exact) <= tail
        assert abs(got - exact) < 1e-9


# ---------------------------------------------------------------------------
# products completed by the prime-zeta tail


@pytest.mark.parametrize("j", [2, 3, 5, 8, 13, 21])
@pytest.mark.parametrize("P", [100, 2000])
def test_prime_zeta_tail_against_mpmath(P, j):
    with mpmath.workdps(40):
        want = prime_zeta_tail(j, P + 1)
        primezeta = float(mpmath.primezeta(j))
    got = euler._prime_zeta_tail(P, j)
    # within the rounding that _close_tail charges for it
    assert primezeta <= 2.0 ** (1 - j)
    assert abs(got - want) <= (j + 17) * 2.0**-53 * primezeta
    assert euler._prime_zeta(j) == pytest.approx(primezeta, rel=4e-16)


@functools.lru_cache(maxsize=None)
def completed_references():
    with mpmath.workdps(30):
        geometric = float(geometric_b_lambda0(1.5))
    return [
        (unit(), 1.0),
        (theta_omega(2), 6.0 / math.pi**2),
        (euler_phi_over_n(), 6.0 / math.pi**2),
        (tau_rho(0.5), 1.0 / math.sqrt(math.pi)),
        (geometric_B(1.5), geometric),
    ]


@pytest.mark.parametrize("P", [100, 2000])
@pytest.mark.parametrize("index", range(5), ids=["unit", "theta_omega:2", "euler_phi_over_n", "tau_rho:0.5", "geometric_B:1.5"])
def test_completed_lambda0_against_mpmath(index, P):
    spec, want = completed_references()[index]
    result = lambda0(spec, P)
    assert result.completed
    assert abs(result.value - want) <= result.tail_estimate
    assert abs(cmath.log(result.value / want)) <= result.tail_estimate
    assert abs(result.value - want) <= 1e-11 * want


# Mertens' constant, and psi'(0) of geometric_B:1.5 with Big Omega from
# bench/oracle.py (mpmath)
MERTENS = 0.26149721284764278
PSI_PRIME_B15 = 2.48470013326603764695


@pytest.mark.parametrize("P", [100, 2000])
def test_completed_psi_prime_against_mpmath(P):
    for alpha, g, want in ((unit(), OMEGA, MERTENS), (geometric_B(1.5), BIG_OMEGA, PSI_PRIME_B15)):
        got = psi_prime_at_zero(alpha, g, P)
        assert got.imag == 0.0
        assert abs(got.real - want) <= 1e-11 * want


# ---------------------------------------------------------------------------
# each part of tail_estimate against mpmath


def test_gamma_error_bounds_special_gamma_against_mpmath():
    # on Re z >= 1/2 up to |z| = 400, at the worst point measured, where
    # gamma reflects (next to the poles -1, -2, ... sin(pi z) loses
    # accuracy like 1/dist, next to 0 it does not), and at the rho of
    # the default circle's twists
    rng = np.random.default_rng(0)
    radius = np.exp(rng.uniform(math.log(0.5), math.log(400.0), 120))
    angle = rng.uniform(-math.pi / 2, math.pi / 2, 120)
    points = [complex(max(0.5, r * math.cos(a)), r * math.sin(a)) for r, a in zip(radius, angle)]
    points += [complex(x, y) for x, y in zip(rng.uniform(-30.0, 0.5, 60), rng.uniform(-20.0, 20.0, 60))]
    points += [0.05, 0.3, 1.0, 2.0, 2.5, 7.25, 45.0, 100.0, 171.5, 0.5046103864022378 + 9.121569057195403j,
               0.5 + 15j, 18.62 - 146.5j, 3.0 + 390j]
    points += [-0.5, -0.999999, -0.99999999, complex(-1.0, 1e-6), -2.000001, -7.0 + 1e-9, -30.000001,
               -1e-6, 1e-7j, complex(-0.3, 0.01), -5.5, -20.5, complex(-3.7, 2.0), complex(-0.5, 10.0)]
    points += [rho * cmath.exp(cmath.exp(2j * math.pi * j / 16)) for rho in (0.5, 1.0, 2.0, 2.5) for j in range(16)]
    with mpmath.workdps(40):
        for z in points:
            try:
                got = gamma(z)
            except OverflowError:  # past float64 range, which gamma refuses
                continue
            want = mpmath.gamma(mpmath.mpc(z))
            err = float(abs((mpmath.mpc(got) - want) / want))
            assert err <= euler._gamma_error(complex(z)), z
    # at theta_omega:2's rho the bound is a few dozen ulps; next to -1 it
    # covers the 5.7e-9 that reflection loses there
    assert euler._gamma_error(2.0 + 0j) < 3e-14
    assert euler._gamma_error(-0.99999999 + 0j) > 5.7e-9


@pytest.mark.parametrize("eps", [0.3, 0.5, 0.9])
@pytest.mark.parametrize("a", [1, 2])
def test_plain_tail_bounds_the_primes_up_to_a_longer_product(a, eps):
    # perturbed has no series, so its products stay plain: the primes
    # between P and 1e6 move the log product by no more than the proven
    # bound at P on all the primes above P
    spec = perturbed(a, eps)
    longer = lambda0(spec, 10**6)
    for P in (10**3, 10**4, 10**5):
        result = lambda0(spec, P)
        assert not result.completed
        assert abs(cmath.log(result.value / longer.value)) <= result.tail_estimate


@pytest.mark.parametrize("P", [10**3, 3 * 10**4, 2 * 10**5, 10**6])
def test_lambda0_keeps_full_precision_at_every_cutoff(P):
    # the head's series drop at most DEFAULT_FACTOR_TOL over all its
    # primes, however many: at the per-prime tolerance the error grew to
    # 1.7e-11 at 1e6
    result = lambda0(theta_omega(2), P)
    assert abs(result.value - 6.0 / math.pi**2) <= 2e-15
    assert abs(result.value - 6.0 / math.pi**2) <= result.tail_estimate <= 3e-13


@pytest.mark.parametrize("P", [10**3, 3 * 10**4, 2 * 10**5])
def test_psi_prime_keeps_full_precision_at_every_cutoff(P):
    # 12.98, 11.91 and 10.85 digits at the per-prime tolerance
    got = psi_prime_at_zero(geometric_B(1.5), BIG_OMEGA, P)
    assert abs(got.real - PSI_PRIME_B15) <= 3e-15 * PSI_PRIME_B15


MP_HEAD = prime_array(1000).tolist()


@functools.lru_cache(maxsize=None)
def mp_prime_zeta_tail(j):
    """sum_{p > 1000} p^-j from mpmath.primezeta, at 40 digits."""
    with mpmath.workdps(40):
        return mpmath.primezeta(j) - mpmath.fsum(mpmath.mpf(p) ** -j for p in MP_HEAD)


def mp_log_product(spec, s):
    """log prod_p (1 - p^-s)^rho (1 + sum_k f(p^k) p^-ks) at an integer
    s >= 1, for a spec with a local series, in mpmath at 40 digits.

    The primes p <= 1000 one by one, each series summed until its
    envelope C (r/p^s)^k falls below 1e-36 (the listed value where the
    series' exceptions list (p, k)); the rest as sum_m b_m P_{>1000}(m),
    with b_m the coefficients of the log factor in v = 1/p, read from
    the series.
    """
    with mpmath.workdps(40):
        rho = mpmath.mpmathify(complex(spec.rho))
        series, C, r = spec.series, spec.growth.C, spec.growth.r

        def f(p, k):
            if (p, k) in series.exceptions:
                return mpmath.mpmathify(complex(series.exceptions[(p, k)]))
            return mpmath.fsum(mpmath.mpmathify(complex(c)) * mpmath.mpf(p) ** -i for i, c in enumerate(series.coeffs(k)))

        head = []
        for p in MP_HEAD:
            K = 1
            while C * (r / p**s) ** K > 1e-36:
                K += 1
            F = mpmath.fsum(f(p, k) * mpmath.mpf(p) ** (-k * s) for k in range(1, K + 1))
            head.append(rho * mpmath.log(1 - mpmath.mpf(p) ** -s) + mpmath.log(1 + F))
        M = 60
        G = [mpmath.mpf(0)] * (M + 1)
        for k in range(1, M // s + 1):
            for i, c in enumerate(series.coeffs(k)):
                if s * k + i <= M:
                    G[s * k + i] += mpmath.mpmathify(complex(c))
        L = [mpmath.mpf(0)] * (M + 1)
        for m in range(1, M + 1):
            L[m] = G[m] - mpmath.fsum(i * L[i] * G[m - i] for i in range(1, m)) / m
        b = [L[m] - (rho * s / m if m % s == 0 else 0) for m in range(2, M + 1)]
        return mpmath.fsum(head) + mpmath.fsum(b_m * mp_prime_zeta_tail(m) for m, b_m in enumerate(b, start=2))


SERIES_ORACLE_SPECS = [spec for spec in ORACLE_SPECS if spec.series is not None]


@pytest.mark.parametrize("spec", SERIES_ORACLE_SPECS, ids=lambda spec: spec.name)
def test_products_meet_mpmath_within_their_tail_estimate(spec):
    # lambda0, completed, and g_compensated at s = 2, plain, at cutoffs
    # 1e3 and 3e4: |log value - log mpmath| <= tail_estimate
    with mpmath.workdps(40):
        want_lambda0 = complex(mpmath.exp(mp_log_product(spec, 1)) / mpmath.gamma(mpmath.mpmathify(complex(spec.rho))))
        want_g = complex(mpmath.exp(mp_log_product(spec, 2)))
    for P in (10**3, 3 * 10**4):
        result = lambda0(spec, P)
        assert result.completed
        assert abs(cmath.log(result.value / want_lambda0)) <= result.tail_estimate
        result = g_compensated(spec, 2.0, prime_cutoff=P)
        assert abs(cmath.log(result.value / want_g)) <= result.tail_estimate


@pytest.mark.parametrize("alpha", [theta_omega(2), euler_phi_over_n(), TABLE], ids=lambda spec: spec.name)
def test_psi_meets_mpmath_within_its_two_tail_estimates(alpha):
    with mpmath.workdps(40):
        den = mpmath.exp(mp_log_product(alpha, 1)) / mpmath.gamma(mpmath.mpmathify(complex(alpha.rho)))
        for y in CIRCLE_Y:
            spec = twist(alpha, y, OMEGA)
            num = mpmath.exp(mp_log_product(spec, 1)) / mpmath.gamma(mpmath.mpmathify(complex(spec.rho)))
            want = complex(num / den)
            for P in (10**3, 3 * 10**4):
                bound = lambda0(spec, P).tail_estimate + lambda0(alpha, P).tail_estimate
                assert abs(cmath.log(psi(alpha, cmath.log(y), OMEGA, P) / want)) <= bound


def series_value(spec, p, k):
    return sum(c * float(p) ** -i for i, c in enumerate(spec.series.coeffs(k)))


SERIES_SPECS = st.one_of(
    st.just(unit()),
    st.just(euler_phi_over_n()),
    st.just(TABLE),
    st.floats(0.1, 3.0).map(theta_omega),
    st.tuples(st.floats(0.1, 3.0), st.floats(-3.0, 3.0)).map(lambda t: theta_omega(complex(*t))),
    st.floats(0.1, 1.9).map(geometric_B),
    st.floats(0.1, 4.0).map(tau_rho),
)


@settings(max_examples=200, deadline=None)
@given(
    spec=SERIES_SPECS,
    g=st.sampled_from([None, OMEGA, BIG_OMEGA]),
    y=st.sampled_from([0.5, 2.0, cmath.exp(1j)]),
    p=st.sampled_from(prime_array(1000).tolist()),
    k=st.integers(1, 10),
)
def test_local_series_matches_value_at(spec, g, y, p, k):
    # a twist's series states y^g(p^k) alpha(p^k) off its listed exceptions
    want = complex(value_of(spec, p, k))
    if g is not None:
        want *= cpow(y, value_of(g, p, k))
        spec = twist(spec, y, g)
    if (p, k) in spec.series.exceptions:
        assert spec.series.exceptions[(p, k)] == pytest.approx(want, rel=1e-14, abs=1e-300)
        return
    assert series_value(spec, p, k) == pytest.approx(want, rel=1e-14, abs=1e-300)


def test_which_specs_carry_a_series():
    assert TABLE.series.exceptions == {(2, 1): 0.5, (3, 2): 2.0, (7, 1): 1.5}
    assert series_value(TABLE, 5, 3) == 1.0
    for spec in (perturbed(1, 0.5), MOD4):
        assert spec.series is None
        assert not lambda0(spec, 1000).completed
    # a twist by a table g keeps alpha's series, with the tabled primes
    # exceptional, so a tabled prime above the cutoff keeps it plain
    twisted = twist(unit(), 2.0, tabulated_additive({(3, 1): 1.0, (1009, 2): 1.0}))
    assert twisted.series.exceptions == {(3, 1): 2.0, (1009, 2): 2.0}
    assert not lambda0(twisted, 1000).completed
    assert lambda0(twisted, 1009).completed
    # a table prime above the cutoff keeps the plain product
    late = tabulated_multiplicative({(101, 1): 0.5})
    assert not lambda0(late, 100).completed
    assert lambda0(late, 101).completed
    # so does a series whose coefficients grow like 29^j, too fast for
    # primes just above 100 (1 + F_p = (p + 29)/(p - 1))
    assert not lambda0(theta_omega(30), 100).completed
    assert lambda0(theta_omega(30), 2000).completed


def test_a_twist_keeps_the_exceptional_primes_of_g():
    # omega with g(101) = 10: the series y^1 is wrong at p = 101, so a
    # product whose cutoff leaves 101 in the tail stays plain, and its
    # estimate covers the true value
    g = AdditiveSpec("omega_101", power_bound=(10.0, 0.0), integer_valued=True,
                     exceptions={(101, k): 10 for k in range(1, 30)}, k_value=lambda k: 1)
    spec = twist(unit(), math.exp(0.5), g)
    assert spec.series.exceptions.keys() == g.exceptions.keys()
    assert set(twist(TABLE, 2.0, g).series.exceptions) == {*TABLE.series.exceptions, *g.exceptions}
    coarse, fine = lambda0(spec, 100), lambda0(spec, 10**4)
    assert not coarse.completed and fine.completed
    assert abs(coarse.value - fine.value) <= coarse.tail_estimate


def test_specs_without_a_series_keep_their_bits():
    # the plain products over p <= 2000, with no prime-zeta tail; mpmath
    # gives 0.60796255356943152, 0.13623935242865095,
    # 0.73706793838601589 - 4.9537492010252961j and 1.555923207179697
    hand = MultiplicativeSpec("hand", lambda p, k: 2.0, rho=2.0, c0=0.25, growth=GrowthBound(2.0, 1.0))
    assert repr(lambda0(hand, 2000).value) == "(0.607962553569431+0j)"
    assert repr(psi(hand, 0.5, prime_cutoff=2000)) == "(0.1362393524286509+0j)"
    assert repr(psi(hand, complex(0.25, 1.0), BIG_OMEGA, prime_cutoff=2000)) == "(0.737067938386017-4.953749201025303j)"
    # psi of a twist by a table g with a prime above the cutoff stays a
    # ratio of two plain products
    g = tabulated_additive({(3, 1): 1.0, (5, 2): 2.0, (2003, 1): 1.0})
    assert repr(psi(theta_omega(2), 0.7, g, prime_cutoff=2000)) == "(1.5559232071796985+0j)"


# ---------------------------------------------------------------------------
# stated values: a row whose series has no exceptional prime in the head
# reads it in place of value_at


STATING_SPECS = [unit(), theta_omega(2.5), theta_omega(complex(1.5, 0.5)), geometric_B(1.5), tau_rho(0.5),
                 tau_rho(3), tabulated_multiplicative({(10007, 1): 2.0}, default=1.5)]


@pytest.mark.parametrize("spec", STATING_SPECS, ids=lambda s: s.name)
def test_the_kernel_makes_no_value_at_call_for_a_stated_spec(spec):
    P = 2000
    alpha, calls = counted(spec)
    for g in (OMEGA, BIG_OMEGA):
        g_spy, g_calls = counted(g)
        want = (outcome(lambda: lambda0(spec, P)), euler.psi_grid(spec, [-0.3, 0.5j], g, P),
                psi_prime_at_zero(spec, g, P))
        got = (outcome(lambda: lambda0(alpha, P)), euler.psi_grid(alpha, [-0.3, 0.5j], g_spy, P),
               psi_prime_at_zero(alpha, g_spy, P))
        assert repr(got) == repr(want)
        assert g_calls == []
    assert calls == []


COUNTED_G = tabulated_additive({(2, 1): 1.0, (3, 1): 1.0, (5, 1): 2.0})
COUNTED_SPECS = [unit(), theta_omega(2.5), theta_omega(complex(1.5, 0.5)), geometric_B(1.5), tau_rho(0.5),
                 euler_phi_over_n(), tabulated_multiplicative({(3, 1): 0.5, (10007, 1): 2.0}, default=1.5),
                 perturbed(1, 0.5)]


@pytest.mark.parametrize("spec", COUNTED_SPECS, ids=lambda s: s.name)
def test_no_built_in_but_perturbed_calls_value_at_off_its_exceptional_primes(spec):
    # both engines, and the twists they build, read every value from the
    # series and its listed exceptions, the tables' too, so no value_at
    # is called at all; perturbed has no series, so its value_at gives
    # every value
    x, P = 10**5, 2000
    alpha, calls = counted(spec)
    for g in (OMEGA, BIG_OMEGA, COUNTED_G):
        g_spy, g_calls = counted(g)
        lambda0(alpha, P)
        euler.psi_grid(alpha, [-0.3, 0.5j], g_spy, P)
        psi_prime_at_zero(alpha, g_spy, P)
        if not isinstance(spec.rho, complex):
            bucket_sums(alpha, g_spy, x)
        assert g_calls == []
    if not isinstance(spec.rho, complex):
        sample(alpha, x, seed=1, count=100)
    assert (len(calls) > 0) == (spec.series is None)


def parsed(text, tmp_path):
    """The spec sd parses from text; "table" is a table g of three primes."""
    if text == "table":
        path = tmp_path / "g.table"
        path.write_text("2 1 1\n3 1 2\n5 2 -1\n")
        return parse_additive(f"table:{path}")
    return parse_additive(text) if text in ("omega", "big_omega") else parse_multiplicative(text)


PARSED = [*(row[-1] for row in funcs._GRAMMAR.values()), "omega", "big_omega", "table"]


def test_no_spec_the_cli_builds_has_a_value_at_but_perturbed_and_its_twists(tmp_path):
    # every grammar example, omega, Omega and a table g, and the twists
    # of the examples by each g at real and complex y: a series or
    # k_value with its listed exceptions states every value
    specs = [parsed(text, tmp_path) for text in PARSED]
    alphas = [spec for spec in specs if isinstance(spec, MultiplicativeSpec)]
    gs = [spec for spec in specs if isinstance(spec, AdditiveSpec)]
    twists = [twist(alpha, y, g) for alpha in alphas for g in gs for y in (0.5, -1.5, 2.0, cmath.exp(0.7j))]
    assert len(alphas) == len(funcs._GRAMMAR) and len(twists) == 12 * len(alphas)
    for spec in specs + twists:
        assert (spec.value_at is None) == ("perturbed" not in spec.name), spec.name


@pytest.mark.parametrize("text", PARSED)
def test_a_counting_value_at_is_called_for_perturbed_alone(text, tmp_path):
    # bench/trace_child.py replaces the value_at of every spec it parses
    # by a counting wrapper of the old one, None for all but perturbed:
    # the replacement must build, and the engines must call it only
    # where there is no series
    spec = parsed(text, tmp_path)
    spy, calls = counted(spec)
    alpha, g = (spy, OMEGA) if isinstance(spec, MultiplicativeSpec) else (unit(), spy)
    lambda0(alpha, 1000)
    euler.psi_grid(alpha, [-0.3, 0.5j], g, 1000)
    psi_prime_at_zero(alpha, g, 1000)
    bucket_sums(alpha, g, 10**4)
    sample(alpha, 10**4, seed=1, count=10)
    assert (len(calls) > 0) == text.startswith("perturbed")


def test_a_table_calls_value_at_only_at_its_table_prime():
    # its entry at 2 is listed and every other value is the stated
    # default, so no value_at is called at all
    spec, calls = counted(tabulated_multiplicative({(2, 1): 0.5}))
    result = lambda0(spec, 10**4)
    assert calls == []
    assert result == lambda0(tabulated_multiplicative({(2, 1): 0.5}), 10**4)


# a table g with a value at a second power; 5 is 0 at 5^3 and beyond
TABLE_G = {(2, 1): 1.0, (3, 1): 1.0, (5, 1): 2.0, (5, 2): -1.0}
# the report's default circle, and two z off it
TABLE_G_ZS = [cmath.exp(2j * math.pi * j / 16) for j in range(16)] + [0.5, complex(-1.0, 0.3)]


@pytest.mark.parametrize("P", [1000, 30000])
def test_a_table_twist_calls_value_at_only_at_its_tabled_primes(P):
    # the twists read g's stated 0 off the table and list their values
    # at its entries, computed once when each twist is built, so g's
    # value_at is not called
    table = tabulated_additive(TABLE_G)
    g, calls = counted(table)
    values = euler.psi_grid(theta_omega(2), TABLE_G_ZS, g, P)
    assert values == euler.psi_grid(theta_omega(2), TABLE_G_ZS, table, P)
    assert calls == []
    y = cmath.exp(TABLE_G_ZS[3])
    assert twist(theta_omega(2), y, table).series.exceptions == {key: 2 * cpow(y, v) for key, v in TABLE_G.items()}


def table_twist_psi(alpha_value, z):
    """mpmath psi(z) for the twist by TABLE_G: the twist is alpha off the
    tabled primes, so psi(z) is the product over them of
    (1 + sum_k y^g(p^k) alpha(p^k) p^-k) / (1 + sum_k alpha(p^k) p^-k),
    whose numerator is the denominator plus the tabled (y^g - 1) terms."""
    with mpmath.workdps(30):
        y = mpmath.exp(mpmath.mpc(z))
        value = mpmath.mpf(1)
        for p in (2, 3, 5):
            den = 1 + mpmath.fsum(alpha_value(k) * mpmath.mpf(p) ** -k for k in range(1, 200))
            num = den + sum((y**g - 1) * alpha_value(k) * mpmath.mpf(p) ** -k
                            for (q, k), g in TABLE_G.items() if q == p)
            value *= num / den
        return complex(value)


@pytest.mark.parametrize("P", [1000, 30000])
@pytest.mark.parametrize(
    "alpha, alpha_value",
    [(theta_omega(2), lambda k: 2), (geometric_B(1.5), lambda k: mpmath.mpf(1.5) ** k), (unit(), lambda k: 1)],
    ids=["theta_omega:2", "geometric_B:1.5", "unit"],
)
def test_table_twist_psi_against_mpmath(alpha, alpha_value, P):
    got = euler.psi_grid(alpha, TABLE_G_ZS, tabulated_additive(TABLE_G), P)
    for z, value in zip(TABLE_G_ZS, got):
        want = table_twist_psi(alpha_value, z)
        assert abs(value - want) <= 1e-11 * max(1.0, abs(want)), z


@pytest.mark.parametrize("spec", ORACLE_SPECS, ids=lambda spec: spec.name)
def test_prime_power_values_match_value_at_to_the_last_bit(spec):
    primes = prime_array(3000)
    for k in (1, 2, 3):
        want = np.array([complex(value_of(spec, p, k)) for p in primes.tolist()], dtype=np.complex128)
        got = np.broadcast_to(prime_power_values(spec, k, primes), primes.shape).astype(np.complex128)
        assert got.tobytes() == want.tobytes()


def test_a_raising_coefficient_fails_its_row_where_value_at_would():
    # f(p^k) = 0.5 for k < 3 and an error above, stated by the series and
    # given by value_at alike; a series with a listed entry in the head
    # reads the entry there
    def value(k):
        if k >= 3:
            raise ValueError(f"no value at k = {k}")
        return 0.5

    base = MultiplicativeSpec("k3", lambda p, k: value(k), rho=0.5, c0=0.25, growth=GrowthBound(1.0, 1.0))
    stated = dataclasses.replace(base, series=LocalSeries(lambda k: (value(k),)))
    late = dataclasses.replace(base, series=LocalSeries(lambda k: (value(k),), {(3, 1): 0.5}))
    for P in (100, 2000):
        want = outcome(lambda: lambda0(base, P))
        assert want == (ValueError, None)
        for spec in (stated, late):
            assert outcome(lambda: lambda0(spec, P)) == want
            assert outcome(lambda: g_compensated(spec, 1.5, prime_cutoff=P)) == want
        stack = batch_results([theta_omega(2), stated, unit()], P)
        assert [type(r) for r in stack] == [EulerProductResult, ValueError, EulerProductResult]
        assert str(stack[1]) == "no value at k = 3"
