import cmath
import dataclasses
import math
import re
from pathlib import Path

import numpy as np
import pytest

import selberg_delange
from conftest import additive_eval_brute, counted, spec_eval_brute, trial_factorize, value_of, whole_table
from selberg_delange import funcs
from selberg_delange.errors import DomainError, SpecGrammarError
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
    prime_power_values,
    tabulated_additive,
    tabulated_multiplicative,
    tau_rho,
    theta_omega,
    twist,
    unit,
)
from selberg_delange.sieve import prime_array
from selberg_delange.special import cpow


def test_eval_multiplicative_examples():
    # f(n) read off the value table at its last entry
    assert whole_table(unit(), None, 60)[60] == 1
    assert whole_table(theta_omega(2), None, 12)[12] == 4
    assert whole_table(geometric_B(1.5), None, 8)[8] == 3.375
    assert whole_table(unit(), None, 1)[1] == 1


def test_eval_matches_trial_division_oracle():
    for spec in (theta_omega(2), geometric_B(1.5), euler_phi_over_n(), tau_rho(2)):
        table = whole_table(spec, None, 499)
        for n in range(1, 500):
            want = spec_eval_brute(spec, n)
            assert table[n] == pytest.approx(want, rel=1e-12, abs=1e-15)


def test_eval_additive_examples():
    assert whole_table(None, OMEGA, 12)[12] == 2
    assert whole_table(None, BIG_OMEGA, 12)[12] == 3
    assert whole_table(None, OMEGA, 1)[1] == 0
    assert whole_table(None, BIG_OMEGA, 1)[1] == 0


@pytest.mark.parametrize(
    "spec",
    [
        unit(),
        theta_omega(2.5),
        theta_omega(-1.5),
        geometric_B(1.5),
        perturbed(1.0, 0.5),
        tau_rho(3),
        tau_rho(0.5),
        euler_phi_over_n(),
    ],
    ids=lambda s: s.name,
)
def test_multiplicativity_on_coprime_pairs(spec):
    values = whole_table(spec, None, 1000)
    for n in range(2, 101):
        for m in range(2, 101):
            if math.gcd(n, m) != 1 or n * m > 1000:
                continue
            prod = values[n] * values[m]
            assert values[n * m] == pytest.approx(prod, rel=1e-12, abs=1e-15)


def test_twist_examples():
    assert value_of(twist(unit(), 2, OMEGA), 3, 5) == 2
    assert value_of(twist(unit(), 2, BIG_OMEGA), 3, 5) == 32
    assert twist(unit(), 2, OMEGA).rho == 2
    assert twist(theta_omega(3), 2, OMEGA).rho == 6


def test_twist_composition():
    inner = twist(unit(), 2, OMEGA)
    outer = twist(inner, 3, OMEGA)
    direct = twist(unit(), 6, OMEGA)
    assert outer.rho == direct.rho
    for p in (2, 3, 5, 97):
        for k in (1, 2, 5):
            assert value_of(outer, p, k) == pytest.approx(value_of(direct, p, k), rel=1e-14)


def test_twist_rejects_zero():
    with pytest.raises(ValueError):
        twist(unit(), 0, OMEGA)


def test_twist_varying_additive_needs_explicit_rho():
    # a custom g that declares no generic prime value gives no twisted rho
    g = AdditiveSpec("custom", lambda p, k: 1.0 if p == 2 else 2.0)
    with pytest.raises(ValueError, match="no generic prime value"):
        twist(unit(), 2, g)
    # declaring g(p^k) = 2 outside g(2) = 1 makes it explicit: rho = 2^2 * 1
    spec = twist(unit(), 2, dataclasses.replace(g, exceptions={(2, 1): 1.0}, k_value=lambda k: 2.0))
    assert spec.rho == 4.0
    assert (value_of(spec, 3, 1), value_of(spec, 2, 1), value_of(spec, 2, 2)) == (4, 2, 4)


def test_a_twist_reads_its_entries_when_it_is_built():
    # y^g(p^k) at every entry of g, at k > 1 too, so a non-integer entry
    # at a real y <= 0 is refused by twist, not at the first read
    g = tabulated_additive({(3, 1): 1.0, (5, 2): 0.5})
    with pytest.raises(DomainError, match="branch cut"):
        twist(unit(), -2.0, g)
    assert twist(unit(), -2.0, tabulated_additive({(3, 1): 1.0, (5, 2): 2.0})).series.exceptions == {
        (3, 1): -2.0, (5, 2): 4.0}
    # a twist of a spec without a series reads its values as it goes
    assert twist(perturbed(1, 0.5), -2.0, g).value_at is not None


def test_a_twist_lists_y_to_the_g_times_alpha_at_every_entry():
    # at every (p, k) that alpha or g lists, to the last bit, as one
    # prime at a time gives it; the series gives every other value
    g = tabulated_additive({(2, 1): 1.0, (3, 1): 2.0, (3, 2): -1.0, (5, 1): 1.0, (7, 3): 2.0})
    table = tabulated_multiplicative({(3, 1): 0.5, (7, 2): 2.0, (11, 1): 0.0}, default=1.5)
    y = complex(0.3, 0.8)
    for alpha in (euler_phi_over_n(), table, twist(table, 2.0, g)):
        keys = {*g.exceptions, *alpha.series.exceptions}
        want = {(p, k): cpow(y, value_of(g, p, k)) * complex(value_of(alpha, p, k)) for p, k in keys}
        assert twist(alpha, y, g).series.exceptions == want


def test_twist_by_additive_table_uses_generic_value_zero():
    g = tabulated_additive({(2, 1): 1.0, (3, 1): 2.0})
    assert (g.k_value(1), g.k_value(2), g.exceptions) == (0.0, 0.0, {(2, 1): 1.0, (3, 1): 2.0})
    spec = twist(theta_omega(1.5), 2, g)
    assert spec.rho == 1.5
    assert value_of(spec, 3, 1) == 6
    assert value_of(spec, 11, 1) == 1.5
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
            assert value_of(th, p, k) == pytest.approx(value_of(tw, p, k), rel=1e-14)


def test_tau_rho_binomials():
    assert value_of(tau_rho(1), 2, 5) == 1
    assert value_of(tau_rho(2), 7, 1) == 2
    for rho in (2, 3, 5):
        spec = tau_rho(rho)
        for k in range(0, 12):
            want = math.comb(rho + k - 1, k)
            assert value_of(spec, 2, k) == pytest.approx(want, rel=1e-12)


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


BUILTINS = [
    unit(),
    theta_omega(2.5),
    theta_omega(complex(1.5, 0.5)),
    geometric_B(1.7),
    perturbed(1.0, 0.5),
    tau_rho(3),
    tau_rho(-1.5),
    euler_phi_over_n(),
    tabulated_multiplicative({(2, 1): 0.5, (3, 2): 2.0, (7, 1): 1.5}),
    tabulated_multiplicative({(3, 1): 2.0, (5, 3): -4.0}, default=complex(0.0, 0.5), name="tabulated_complex"),
]
TWISTS = [
    twist(spec, y, g)
    for spec in (unit(), geometric_B(1.5), tabulated_multiplicative({(2, 1): 0.5, (3, 2): 2.0}))
    for y, g in ((cmath.exp(complex(0.5, 1.0)), OMEGA), (0.5, OMEGA), (1.2, BIG_OMEGA), (complex(0.3, 0.6), BIG_OMEGA))
]


@pytest.mark.parametrize("spec", BUILTINS + TWISTS, ids=lambda s: s.name)
def test_growth_envelope_holds(spec):
    C, r = spec.growth.C, spec.growth.r
    for p in (2, 3, 5, 7, 97):
        for k in range(1, 13):
            assert abs(value_of(spec, p, k)) <= C * r**k * (1 + 1e-12)


@pytest.mark.parametrize("spec", [s for s in BUILTINS + TWISTS if s.series is not None], ids=lambda s: s.name)
def test_rho_is_the_series_value_at_the_primes(spec):
    # f(p) -> rho over the primes: the series' constant term at k = 1
    assert complex(spec.rho) == complex(spec.series.coeffs(1)[0])


def test_prime_deviation_bound_holds():
    for spec in (perturbed(1.0, 0.5), euler_phi_over_n()):
        c1, eps = spec.prime_deviation
        for p in (2, 3, 5, 101, 997):
            assert abs(value_of(spec, p, 1) - spec.rho) <= c1 * p**-eps * (1 + 1e-12)


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


@pytest.mark.parametrize("rho", [math.inf, math.nan, complex(1.0, math.inf)], ids=["inf", "nan", "imag-inf"])
def test_non_finite_rho_is_rejected(rho):
    with pytest.raises(ValueError, match="rho must be finite"):
        MultiplicativeSpec("bad", lambda p, k: 1.0, rho=rho, c0=0.25, growth=GrowthBound(1, 1))
    with pytest.raises(ValueError, match="tau_rho needs a finite rho"):
        tau_rho(rho)


def test_tau_rho_envelope_scan_stops_at_the_first_overflow():
    # C(rho+k-1, k) first overflows float64 at k = 135 for rho = 1e4
    with pytest.raises(ValueError, match=r"rho = 10000 overflows C\(rho\+k-1, k\) at k = 135"):
        tau_rho(1e4)
    # for rho = -400 every coefficient is finite; the scan ends where 1.25^k overflows
    assert math.isfinite(tau_rho(-400).growth.C)


def test_tabulated_multiplicative():
    spec = tabulated_multiplicative({(2, 1): 0.5, (2, 2): 0.25}, default=1.0)
    assert value_of(spec, 2, 1) == 0.5
    assert value_of(spec, 2, 2) == 0.25
    assert value_of(spec, 2, 3) == 1.0
    assert value_of(spec, 3, 1) == 1.0
    assert spec.rho == 1.0
    with pytest.raises(ValueError):
        tabulated_multiplicative({(4, 1): 2.0})
    with pytest.raises(ValueError):
        tabulated_multiplicative({(2, 0): 2.0})


def test_tabulated_additive():
    g = tabulated_additive({(2, 1): 1.0, (3, 2): 2.0})
    assert value_of(g, 2, 1) == 1.0
    assert value_of(g, 3, 2) == 2.0
    assert value_of(g, 5, 1) == 0.0
    assert g.integer_valued
    assert additive_eval_brute(g, 18) == 3.0
    frac = tabulated_additive({(2, 1): 0.5})
    assert not frac.integer_valued
    signed = tabulated_additive({(2, 1): -1.0})
    assert not signed.nonnegative


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, complex(0.5, math.inf)], ids=repr)
def test_tables_refuse_non_finite_values(value):
    # refused at construction, naming the entry or the default, before the
    # envelope C = max |value| or a kernel pass can meet it
    with pytest.raises(ValueError, match=re.escape(f"table entry 3^2 = {value} is not finite")):
        tabulated_multiplicative({(2, 1): 0.5, (3, 2): value})
    with pytest.raises(ValueError, match=re.escape(f"default = {value} is not finite")):
        tabulated_multiplicative({}, default=value)
    if not isinstance(value, complex):
        with pytest.raises(ValueError, match=re.escape(f"table entry 3^2 = {value} is not finite")):
            tabulated_additive({(3, 2): value})


GRAMMAR_ROUND_TRIPS = [
    ("unit", 60, 1.0),
    ("theta_omega:2", 12, 4.0),
    ("theta_omega:2.5", 12, 6.25),
    ("geometric_B:1.5", 8, 3.375),
    ("geometric_B:1.5,c0=0.2", 8, 3.375),
    ("tau_rho:2", 12, 6.0),
    ("euler_phi_over_n", 10, 0.4),
    ("tabulated:default=1,2^1=0.5,2^2=0.25", 12, 0.25),
]


@pytest.mark.parametrize("text,n,value", GRAMMAR_ROUND_TRIPS, ids=[t for t, _, _ in GRAMMAR_ROUND_TRIPS])
def test_parse_multiplicative_round_trips(text, n, value):
    spec = parse_multiplicative(text)
    got = spec_eval_brute(spec, n)
    assert got == pytest.approx(value, rel=1e-12)


def test_parse_multiplicative_perturbed():
    spec = parse_multiplicative("perturbed:a=1,eps=0.5")
    assert value_of(spec, 5, 1) == pytest.approx(1.0 + 5**-0.5, rel=1e-14)
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
    ("tabulated:2^1=0.5,2^1=0.7", "column 19: duplicate key '2^1'"),
    ("tabulated:4^1=2", "not a (prime, k>=1) pair"),
    ("tabulated:2^1=0.5,C=2", "unexpected key 'C' for tabulated"),
    ("perturbed:a=1", "eps=..."),
    ("theta_omega:1,2", "column 15"),
    ("theta_omega:", "empty parameter list"),
    ("geometric_B:1.5,2^1=2", "only apply to 'tabulated'"),
    # one case per row of the grammar table and kind of error, at its column
    ("unit:a=1", "column 1: unexpected key 'a' for unit"),
    ("unit:2^1=1", "column 1: prime-power entries only apply to 'tabulated', not unit"),
    ("theta_omega:1,a=2", "column 1: unexpected key 'a' for theta_omega"),
    ("theta_omega:1,2^1=3", "column 1: prime-power entries only apply to 'tabulated', not theta_omega"),
    ("theta_omega:inf", "column 13: growth constant C must be finite"),
    ("geometric_B", "column 1: geometric_B needs exactly one parameter, e.g. geometric_B:1.5"),
    ("geometric_B:c0=0.2", "column 1: geometric_B needs exactly one parameter, e.g. geometric_B:1.5"),
    ("geometric_B:1.5,1", "column 17: too many parameters for geometric_B"),
    ("geometric_B:1.5,d=1", "column 1: unexpected key 'd' for geometric_B"),
    ("geometric_B:1.5,c0=2", "column 13: c0 must lie in (0,1), got 2.0"),
    ("perturbed", "column 1: perturbed needs a=... and eps=..., e.g. perturbed:a=1,eps=0.5"),
    ("perturbed:eps=1", "column 1: perturbed needs a=... and eps=..., e.g. perturbed:a=1,eps=0.5"),
    ("perturbed:1", "column 11: too many parameters for perturbed"),
    ("perturbed:a=1,eps=1,b=2", "column 1: unexpected key 'b' for perturbed"),
    ("perturbed:a=1,eps=1,2^1=1", "column 1: prime-power entries only apply to 'tabulated', not perturbed"),
    ("perturbed:a=1,eps=0", "column 1: perturbed needs eps > 0, got 0.0"),
    ("tau_rho", "column 1: tau_rho needs exactly one parameter, e.g. tau_rho:2"),
    ("tau_rho:1,2", "column 11: too many parameters for tau_rho"),
    ("tau_rho:c0=1", "column 1: unexpected key 'c0' for tau_rho"),
    ("tau_rho:2,3^1=1", "column 1: prime-power entries only apply to 'tabulated', not tau_rho"),
    ("tau_rho:1e4", "column 9: tau_rho: rho = 10000 overflows C(rho+k-1, k) at k = 135"),
    ("euler_phi_over_n:1", "column 18: too many parameters for euler_phi_over_n"),
    ("euler_phi_over_n:x=1", "column 1: unexpected key 'x' for euler_phi_over_n"),
    ("euler_phi_over_n:2^1=1", "column 1: prime-power entries only apply to 'tabulated', not euler_phi_over_n"),
    ("tabulated:1", "column 11: too many parameters for tabulated"),
    ("tabulated:c0=2", "column 1: c0 must lie in (0,1), got 2.0"),
    ("tabulated:x^1=1", "column 11: bad prime-power key 'x^1'"),
    # the checks run in one order: keys, then too many numbers, then entries
    ("unit:1,2^1=3,b=1", "column 1: unexpected key 'b' for unit"),
    ("geometric_B:1.5,2,2^1=2", "column 17: too many parameters for geometric_B"),
]


@pytest.mark.parametrize("text,fragment", GRAMMAR_ERRORS, ids=[t for t, _ in GRAMMAR_ERRORS])
def test_parse_multiplicative_diagnostics(text, fragment):
    with pytest.raises(SpecGrammarError) as exc_info:
        parse_multiplicative(text)
    message = str(exc_info.value)
    assert fragment in message
    assert "column" in message


def test_each_grammar_row_parses_its_example():
    # the names of the table are the known names, in its order, and
    # each row's example builds a spec of that name
    with pytest.raises(SpecGrammarError, match="known names: " + ", ".join(funcs._GRAMMAR) + "$"):
        parse_multiplicative("nope")
    for name, row in funcs._GRAMMAR.items():
        assert parse_multiplicative(row[-1]).name.partition(":")[0] == name


def test_parse_additive_builtins():
    assert parse_additive("omega") is OMEGA
    assert parse_additive("big_omega") is BIG_OMEGA
    assert parse_additive("  omega  ") is OMEGA


def test_parse_additive_table_file(tmp_path):
    path = tmp_path / "g.table"
    path.write_text("# comment\n2 1 1.5\n3 1 2\n\n5 2 -1  # inline\n")
    g = parse_additive(f"table:{path}")
    assert value_of(g, 2, 1) == 1.5
    assert value_of(g, 3, 1) == 2.0
    assert value_of(g, 5, 2) == -1.0
    assert value_of(g, 7, 1) == 0.0
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


def test_tabled_primes_are_decided_by_miller_rabin():
    assert [n for n in range(10**5) if funcs._is_prime(n)] == [n for n in range(2, 10**5) if trial_factorize(n) == ((n, 1),)]


def strong_probable_prime(n, a):
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    return x == 1 or any(pow(x, 2**r, n) == n - 1 for r in range(s))


# the least strong pseudoprimes to the first 1, 4, 6, 7 and 9 prime bases
@pytest.mark.parametrize("n, fooled", [(2047, 1), (3215031751, 4), (3474749660383, 6), (341550071728321, 7),
                                       (3825123056546413051, 9)])
def test_strong_pseudoprimes_are_not_tabled_primes(n, fooled):
    assert all(strong_probable_prime(n, a) for a in funcs._WITNESSES[:fooled])
    assert not funcs._is_prime(n)


def test_carmichael_numbers_and_large_primes():
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185):
        assert all(pow(a, n - 1, n) == 1 for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37) if math.gcd(a, n) == 1)
        assert not funcs._is_prime(n)
    # the largest prime below 2^53, and primes past it that only Miller-Rabin decides quickly
    assert [funcs._is_prime(n) for n in (2**53 - 111, 2**53 - 113, 10**15 + 37, 2**61 - 1, 2**63 + 29)] == [
        True, False, True, True, True]


def test_tabled_primes_from_2_to_the_53_on_are_refused(tmp_path):
    assert tabulated_multiplicative({(10**15 + 37, 1): 2.0}).series.exceptions == {(10**15 + 37, 1): 2.0}
    message = "table entry 9007199254740997^1: tabled primes must lie below 2^53"
    with pytest.raises(ValueError, match=re.escape(message)):
        tabulated_multiplicative({(2**53 + 5, 1): 2.0})
    with pytest.raises(SpecGrammarError, match=re.escape("at column 1: table entry 9223372036854775837^2: tabled")):
        parse_multiplicative("tabulated:9223372036854775837^2=2")
    path = tmp_path / "g.table"
    path.write_text("2 1 1\n9223372036854775837 1 1\n")
    with pytest.raises(SpecGrammarError, match=re.escape(f"bad additive table {str(path)!r}: table entry 9223372036854775837^1")):
        parse_additive(f"table:{path}")


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


# ---------------------------------------------------------------------------
# prime_power_values: the one source of prime-power values


def one_at_a_time(spec, k, primes):
    """The stated value at each prime (conftest.value_of), as complex128."""
    return np.array([complex(value_of(spec, p, k)) for p in primes.tolist()], dtype=np.complex128)


def complex_bits(values, primes):
    return np.broadcast_to(values, primes.shape).astype(np.complex128).tobytes()


def spied(spec):
    """spec with a value_at that records (p, k) after construction."""
    spy, calls = counted(spec)
    calls.clear()
    return spy, calls


TABLE_G = tabulated_additive({(3, 1): 1.0, (5, 2): 2.0, (101, 1): -1.0, (101, 2): 4.0})
# exceptional primes below, at and above sqrt(x) for x around 101^2 = 10201
TABLES = [
    tabulated_multiplicative({(7, 1): 3.0, (7, 2): 0.5}, default=1.5),
    tabulated_multiplicative({(101, 1): 3.0, (101, 2): 0.5, (2, 3): 0.25}, default=1.5),
    tabulated_multiplicative({(10007, 1): 2.0 + 1.0j}, default=0.5),
]


@pytest.mark.parametrize("x", [1000, 10200, 10201, 30000])
@pytest.mark.parametrize("spec", [OMEGA, BIG_OMEGA, TABLE_G, *TABLES], ids=lambda s: s.name)
def test_prime_power_values_match_value_at_on_either_side_of_sqrt_x(spec, x):
    # the swept primes p <= sqrt(x) and the gathered ones above, as the
    # exact tables split them; the tables' entries are listed, so no
    # value_at is called, and a k with no entry among the primes gives
    # one scalar
    primes = prime_array(x)
    split = int(np.searchsorted(primes, math.isqrt(x), side="right"))
    exceptions = spec.exceptions if isinstance(spec, AdditiveSpec) else spec.series.exceptions
    for part in (primes[:split], primes[split:]):
        for k in (1, 2, 3):
            spy, calls = spied(spec)
            got = prime_power_values(spy, k, part)
            assert complex_bits(got, part) == one_at_a_time(spec, k, part).tobytes()
            assert calls == []
            assert (got.ndim == 0) == all((p, k) not in exceptions for p in part.tolist())


def test_prime_power_values_storage_and_chunks():
    # a spec that states no value is called once per 4096 primes; float64
    # holds the values while every imaginary part is +0.0
    primes = prime_array(50000)
    assert len(primes) > 4096
    for value, dtype in ((1.5, np.float64), (complex(1.5, -0.0), np.complex128), (2j, np.complex128)):
        spec = MultiplicativeSpec("late", lambda p, k: np.where(p > 45000, value, 1.5), rho=1.5, c0=0.25,
                                  growth=GrowthBound(2.0, 1.0))
        spy, calls = spied(spec)
        got = prime_power_values(spy, 1, primes)
        assert got.dtype == dtype
        assert complex_bits(got, primes) == one_at_a_time(spec, 1, primes).tobytes()
        assert [p.tolist() for p, _ in calls] == [primes[:4096].tolist(), primes[4096:].tolist()]
    # one that raises on an array is called one prime at a time
    table = tabulated_multiplicative({(3, 1): 0.5})
    spy, calls = spied(dataclasses.replace(table, series=None, value_at=lambda p, k: {(3, 1): 0.5}.get((p, k), 1.0)))
    assert complex_bits(prime_power_values(spy, 1, primes), primes) == one_at_a_time(table, 1, primes).tobytes()
    assert [type(p) for p, _ in calls] == [np.ndarray, *[int] * 4096, np.ndarray, *[int] * (len(primes) - 4096)]
    # a stated value at primes free of exceptional ones is a 0-d array
    assert prime_power_values(table, 1, primes[2:]).shape == ()
    assert prime_power_values(table, 1, primes[:0]).shape == (0,)


def test_value_at_is_required_where_no_series_states_the_values():
    # at every prime of a spec without a series; a series' exceptions are
    # listed, so the tables need none
    with pytest.raises(ValueError, match=re.escape("theta_omega:2: no series states its values at any prime, so it needs value_at")):
        dataclasses.replace(theta_omega(2), series=None)
    with pytest.raises(ValueError, match=re.escape("custom: no series states its values at any prime, so it needs value_at")):
        AdditiveSpec("custom")
    assert tabulated_multiplicative({(7, 1): 3.0}).value_at is None
    # a spec may give both; value_at is then not read, at a listed prime neither
    both = dataclasses.replace(tabulated_multiplicative({(7, 1): 3.0}, default=2.0), value_at=lambda p, k: 1 / 0)
    assert prime_power_values(both, 1, prime_array(100)).tolist()[:5] == [2.0, 2.0, 2.0, 3.0, 2.0]
    # every entry of a table g is listed, a -0.0 or 0.0 one too
    entries = {(3, 1): 1.0, (5, 1): -0.0, (7, 2): 0.0}
    assert tabulated_additive(entries).exceptions == entries


def test_only_funcs_names_value_at():
    # every prime-power value reaches the engines through prime_power_values
    package = Path(selberg_delange.__file__).parent
    modules = sorted(path for path in package.glob("*.py") if path.name != "funcs.py")
    assert len(modules) >= 8
    for path in modules:
        source = path.read_text(encoding="utf-8")
        for name in ("value_at", "stated_value", "dtype=object"):
            assert name not in source, f"{path.name} names {name}"
