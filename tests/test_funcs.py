import math

import pytest

from conftest import additive_eval_brute, spec_eval_brute, trial_factorize
from selberg_delange.errors import SpecGrammarError
from selberg_delange.funcs import (
    BIG_OMEGA,
    OMEGA,
    AdditiveSpec,
    GrowthBound,
    MultiplicativeSpec,
    StripDomain,
    euler_phi_over_n,
    geometric_B,
    parse_additive,
    parse_multiplicative,
    perturbed,
    tabulated_additive,
    tabulated_multiplicative,
    tau_rho,
    theta_omega,
    twist,
    unit,
)
from selberg_delange.exact import additive_value_table, multiplicative_value_table


def test_eval_multiplicative_examples():
    # f(n) read off the value table at its last entry
    assert multiplicative_value_table(unit(), 60)[60] == 1
    assert multiplicative_value_table(theta_omega(2), 12)[12] == 4
    assert multiplicative_value_table(geometric_B(1.5), 8)[8] == 3.375
    assert multiplicative_value_table(unit(), 1)[1] == 1


def test_eval_matches_trial_division_oracle():
    for spec in (theta_omega(2), geometric_B(1.5), euler_phi_over_n(), tau_rho(2)):
        table = multiplicative_value_table(spec, 499)
        for n in range(1, 500):
            want = spec_eval_brute(spec, n)
            assert table[n] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_eval_additive_examples():
    assert additive_value_table(OMEGA, 12)[12] == 2
    assert additive_value_table(BIG_OMEGA, 12)[12] == 3
    assert additive_value_table(OMEGA, 1)[1] == 0
    assert additive_value_table(BIG_OMEGA, 1)[1] == 0


@pytest.mark.parametrize(
    "spec",
    [
        unit(),
        theta_omega(2.5),
        theta_omega(0.5 + 1.5j),
        geometric_B(1.5),
        perturbed(1.0, 0.5),
        tau_rho(3),
        tau_rho(0.5),
        euler_phi_over_n(),
    ],
    ids=lambda s: s.name,
)
def test_multiplicativity_on_coprime_pairs(spec):
    values = multiplicative_value_table(spec, 1000)
    for n in range(2, 101):
        for m in range(2, 101):
            if math.gcd(n, m) != 1 or n * m > 1000:
                continue
            prod = values[n] * values[m]
            assert values[n * m] == pytest.approx(prod, rel=1e-12, abs=1e-15)


def test_twist_examples():
    assert twist(unit(), 2, OMEGA).value_at(3, 5) == 2
    assert twist(unit(), 2, BIG_OMEGA).value_at(3, 5) == 32
    assert twist(unit(), 2, OMEGA).rho == 2
    assert twist(theta_omega(3), 2, OMEGA).rho == 6


def test_twist_composition():
    inner = twist(unit(), 2, OMEGA)
    outer = twist(inner, 3, OMEGA)
    direct = twist(unit(), 6, OMEGA)
    assert outer.rho == direct.rho
    for p in (2, 3, 5, 97):
        for k in (1, 2, 5):
            assert outer.value_at(p, k) == pytest.approx(direct.value_at(p, k), rel=1e-14)


def test_twist_rejects_zero():
    with pytest.raises(ValueError):
        twist(unit(), 0, OMEGA)


def test_twist_varying_additive_needs_explicit_rho():
    # a custom g that declares no generic prime value
    g = AdditiveSpec("custom", lambda p, k: 1.0 if p == 2 else 2.0)
    with pytest.raises(ValueError):
        twist(unit(), 2, g)
    spec = twist(unit(), 2, g, rho=4.0)
    assert spec.rho == 4.0
    assert spec.value_at(3, 1) == 4


def test_twist_by_additive_table_uses_generic_value_zero():
    g = tabulated_additive({(2, 1): 1.0, (3, 1): 2.0})
    assert (g.prime_value, g.exceptional_primes) == (0.0, (2, 3))
    spec = twist(theta_omega(1.5), 2, g)
    assert spec.rho == spec.prime_coeff == 1.5
    assert spec.value_at(3, 1) == 6
    assert spec.value_at(11, 1) == 1.5
    # |f(3) - 1.5| = 4.5 = c1 * 3^-1 needs c1 >= 13.5
    c1, eps = spec.prime_deviation
    assert eps == 1.0 and c1 >= 13.5
    one_row = twist(unit(), 2, tabulated_additive({(2, 1): 1.0}))
    assert one_row.rho == 1.0


def test_theta_omega_is_omega_twist_of_unit():
    th = theta_omega(2.5)
    tw = twist(unit(), 2.5, OMEGA)
    assert th.rho == tw.rho
    for p in (2, 3, 5, 11, 97):
        for k in (1, 2, 3, 7):
            assert th.value_at(p, k) == pytest.approx(tw.value_at(p, k), rel=1e-14)


def test_tau_rho_binomials():
    assert tau_rho(1).value_at(2, 5) == 1
    assert tau_rho(2).value_at(7, 1) == 2
    for rho in (2, 3, 5):
        spec = tau_rho(rho)
        for k in range(0, 12):
            want = math.comb(rho + k - 1, k)
            assert spec.value_at(2, k) == pytest.approx(want, rel=1e-12)


def test_tau_rho_one_matches_unit():
    t1 = tau_rho(1)
    for n in range(1, 400):
        assert spec_eval_brute(t1, n) == pytest.approx(1.0, rel=1e-12)


def test_euler_phi_over_n_values():
    spec = euler_phi_over_n()
    for n in range(1, 500):
        phi_over_n = 1.0
        for p, _ in trial_factorize(n):
            phi_over_n *= 1.0 - 1.0 / p
        got = spec_eval_brute(spec, n)
        assert got == pytest.approx(phi_over_n, rel=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        unit(),
        theta_omega(2.5),
        geometric_B(1.7),
        perturbed(1.0, 0.5),
        tau_rho(3),
        tau_rho(-1.5),
        euler_phi_over_n(),
    ],
    ids=lambda s: s.name,
)
def test_growth_envelope_holds(spec):
    C, r = spec.growth.C, spec.growth.r
    for p in (2, 3, 5, 97):
        for k in range(1, 13):
            assert abs(spec.value_at(p, k)) <= C * r**k * (1 + 1e-12)


def test_prime_deviation_bound_holds():
    for spec in (perturbed(1.0, 0.5), euler_phi_over_n()):
        c1, eps = spec.prime_deviation
        for p in (2, 3, 5, 101, 997):
            assert abs(spec.value_at(p, 1) - spec.prime_coeff) <= c1 * p**-eps * (1 + 1e-12)


def test_growth_bound_validation():
    with pytest.raises(ValueError):
        GrowthBound(-1.0, 1.0)
    with pytest.raises(ValueError):
        GrowthBound(1.0, 0.0)


def test_strip_domain():
    s = StripDomain(-1.0, 1.0)
    assert s.contains(0.5 + 10j)
    assert not s.contains(1.0)
    assert not s.contains(2.0)
    with pytest.raises(ValueError):
        StripDomain(1.0, 1.0)


def test_big_omega_strip_is_half_log_two():
    assert BIG_OMEGA.strip.d == pytest.approx(0.5 * math.log(2.0), rel=1e-15)
    assert BIG_OMEGA.strip.contains(0.34)
    assert not BIG_OMEGA.strip.contains(0.35)
    assert OMEGA.strip.contains(100.0)


def test_spec_validation():
    with pytest.raises(ValueError):
        geometric_B(2.5)
    with pytest.raises(ValueError):
        geometric_B(0.0)
    with pytest.raises(ValueError):
        perturbed(1.0, -0.5)
    with pytest.raises(ValueError):
        MultiplicativeSpec("bad", lambda p, k: 1.0, rho=1.0, c0=1.5, growth=GrowthBound(1, 1))


def test_tabulated_multiplicative():
    spec = tabulated_multiplicative({(2, 1): 0.5, (2, 2): 0.25}, default=1.0)
    assert spec.value_at(2, 1) == 0.5
    assert spec.value_at(2, 2) == 0.25
    assert spec.value_at(2, 3) == 1.0
    assert spec.value_at(3, 1) == 1.0
    assert spec.rho == 1.0
    with pytest.raises(ValueError):
        tabulated_multiplicative({(4, 1): 2.0})
    with pytest.raises(ValueError):
        tabulated_multiplicative({(2, 0): 2.0})


def test_tabulated_additive():
    g = tabulated_additive({(2, 1): 1.0, (3, 2): 2.0})
    assert g.value_at(2, 1) == 1.0
    assert g.value_at(3, 2) == 2.0
    assert g.value_at(5, 1) == 0.0
    assert g.integer_valued
    assert additive_eval_brute(g, 18) == 3.0
    frac = tabulated_additive({(2, 1): 0.5})
    assert not frac.integer_valued
    signed = tabulated_additive({(2, 1): -1.0})
    assert not signed.nonnegative


GRAMMAR_ROUND_TRIPS = [
    ("unit", 60, 1.0),
    ("theta_omega:2", 12, 4.0),
    ("theta_omega:2.5", 12, 6.25),
    ("geometric_B:1.5", 8, 3.375),
    ("geometric_B:1.5,c0=0.2", 8, 3.375),
    ("tau_rho:2", 12, 6.0),
    ("euler_phi_over_n", 10, 0.4),
    ("tabulated:rho=1,default=1,2^1=0.5,2^2=0.25", 12, 0.25),
]


@pytest.mark.parametrize("text,n,value", GRAMMAR_ROUND_TRIPS, ids=[t for t, _, _ in GRAMMAR_ROUND_TRIPS])
def test_parse_multiplicative_round_trips(text, n, value):
    spec = parse_multiplicative(text)
    got = spec_eval_brute(spec, n)
    assert got == pytest.approx(value, rel=1e-12)


def test_parse_multiplicative_perturbed():
    spec = parse_multiplicative("perturbed:a=1,eps=0.5")
    assert spec.value_at(5, 1) == pytest.approx(1.0 + 5**-0.5, rel=1e-14)
    assert spec.rho == 1.0


def test_parse_multiplicative_c0_override():
    assert parse_multiplicative("geometric_B:1.5,c0=0.2").c0 == 0.2
    assert parse_multiplicative("tabulated:c0=0.4,2^1=2").c0 == 0.4


GRAMMAR_ERRORS = [
    ("nope", "column 1"),
    ("theta_omega", "exactly one parameter"),
    ("theta_omega:abc", "column 13"),
    ("unit:1", "column 6"),
    ("geometric_B:2.5", "B in (0, 2)"),
    ("tabulated:default=1,default=2", "duplicate key"),
    ("tabulated:4^1=2", "not a (prime, k>=1) pair"),
    ("tabulated:2^1=0.5,C=2", "both C= and r="),
    ("perturbed:a=1", "eps=..."),
    ("theta_omega:1,2", "column 15"),
    ("theta_omega:", "empty parameter list"),
    ("geometric_B:1.5,2^1=2", "only apply to 'tabulated'"),
]


@pytest.mark.parametrize("text,fragment", GRAMMAR_ERRORS, ids=[t for t, _ in GRAMMAR_ERRORS])
def test_parse_multiplicative_diagnostics(text, fragment):
    with pytest.raises(SpecGrammarError) as exc_info:
        parse_multiplicative(text)
    message = str(exc_info.value)
    assert fragment in message
    assert "column" in message


def test_parse_additive_builtins():
    assert parse_additive("omega") is OMEGA
    assert parse_additive("big_omega") is BIG_OMEGA
    assert parse_additive("  omega  ") is OMEGA


def test_parse_additive_table_file(tmp_path):
    path = tmp_path / "g.table"
    path.write_text("# comment\n2 1 1.5\n3 1 2\n\n5 2 -1  # inline\n")
    g = parse_additive(f"table:{path}")
    assert g.value_at(2, 1) == 1.5
    assert g.value_at(3, 1) == 2.0
    assert g.value_at(5, 2) == -1.0
    assert g.value_at(7, 1) == 0.0
    assert not g.integer_valued
    assert not g.nonnegative
    assert additive_eval_brute(g, 12) == 2.0


def test_parse_additive_errors(tmp_path):
    with pytest.raises(SpecGrammarError):
        parse_additive("gamma")
    with pytest.raises(SpecGrammarError):
        parse_additive("table:/nonexistent/file.table")
    bad = tmp_path / "bad.table"
    bad.write_text("2 1\n")
    with pytest.raises(SpecGrammarError) as exc_info:
        parse_additive(f"table:{bad}")
    assert ":1:" in str(exc_info.value)
    notprime = tmp_path / "np.table"
    notprime.write_text("4 1 2\n")
    with pytest.raises(SpecGrammarError):
        parse_additive(f"table:{notprime}")


@pytest.mark.parametrize(
    "bound", [(1.0, -0.5), (-2.0, 1.0), (math.inf, 0.0), (0.0, math.inf), (math.nan, 1.0), (1.0, math.nan)]
)
def test_power_bound_must_bound_every_power(bound):
    # a + b k >= 0 at every k >= 1 needs b >= 0 and a + b >= 0
    with pytest.raises(ValueError, match="power_bound"):
        AdditiveSpec(name="bad", value_at=lambda p, k: 1, power_bound=bound)


def test_power_bounds_of_the_built_in_additive_specs():
    assert (OMEGA.power_bound, BIG_OMEGA.power_bound) == ((1.0, 0.0), (0.0, 1.0))
    assert tabulated_additive({(2, 1): -3.0, (3, 2): 1.0}).power_bound == (3.0, 0.0)
    assert tabulated_additive({}).power_bound == (0.0, 0.0)
    assert AdditiveSpec(name="edge", value_at=lambda p, k: k - 0.5, power_bound=(-0.5, 1.0)).power_bound == (-0.5, 1.0)
