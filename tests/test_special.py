import cmath
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

import selberg_delange
from selberg_delange import special
from selberg_delange.errors import DomainError, PoleError
from selberg_delange.sieve import prime_array
from selberg_delange.special import cexpm1, clog1p, cpow, digamma, gamma, zeta

mpmath.mp.dps = 30


def _seeded_points(count, scale, seed):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-scale, scale, size=(count, 2))
    return [complex(a, b) for a, b in pts]


# ---------------------------------------------------------------------------
# gamma


def test_gamma_small_integers_and_half():
    assert gamma(5) == pytest.approx(24.0, rel=1e-12)
    assert gamma(1) == pytest.approx(1.0, rel=1e-12)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert gamma(1.5) == pytest.approx(0.5 * math.sqrt(math.pi), rel=1e-12)


def test_gamma_recurrence():
    for z in _seeded_points(100, 20.0, seed=101):
        if abs(z.real - round(z.real)) < 1e-3 and z.real <= 0.5:
            continue
        lhs = gamma(z + 1)
        rhs = z * gamma(z)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_gamma_poles():
    for z in (0, -1, -2, -7, 0.0, -3.0 + 0j):
        with pytest.raises(PoleError):
            gamma(z)


def test_gamma_matches_mpmath():
    points = _seeded_points(60, 12.0, seed=202)
    points += [0.25, -0.75, -2.5, 3 + 4j, -4.5 - 2j]
    for z in points:
        if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
            continue
        want = complex(mpmath.gamma(complex(z)))
        assert gamma(z) == pytest.approx(want, rel=1e-10)


def test_gamma_rejects_non_finite():
    with pytest.raises(ValueError):
        gamma(float("nan"))
    with pytest.raises(ValueError):
        gamma(complex(1.0, float("inf")))


@pytest.mark.parametrize("z", [171.63, 171.82, complex(171.7, 1e-3), 180.0])
def test_gamma_raises_where_it_overflows(z):
    # Gamma(171.62) is still below the largest double; past it the Lanczos
    # product is inf (or inf+nanj), never a value
    assert math.isfinite(abs(gamma(171.62)))
    with pytest.raises(OverflowError):
        gamma(z)


# ---------------------------------------------------------------------------
# digamma


def test_digamma_special_values():
    euler_gamma = float(mpmath.euler)
    assert digamma(1) == pytest.approx(-euler_gamma, rel=1e-15)
    assert digamma(0.5) == pytest.approx(-euler_gamma - 2.0 * math.log(2.0), rel=1e-15)
    assert digamma(10.0) - digamma(9.0) == pytest.approx(1.0 / 9.0, rel=1e-14)


def test_digamma_matches_mpmath():
    rng = np.random.default_rng(404)
    points = _seeded_points(100, 12.0, seed=303) + rng.uniform(-12.0, 12.0, size=60).tolist()
    points += [0.25, 2.5, -0.5, -2.5, 3 + 4j, -4.5 - 2j, 1.5j, 0.3 + 100j, 25.3, 1e6, -100.5]
    # next to the poles at 0, -1, -2, -3, where pi cot(pi z) dominates
    points += [1e-10, -1e-12, -1 + 1e-9, -2 - 1e-7, -3 + 1e-6j, -7.25 + 0.1j]
    for z in points:
        want = complex(mpmath.digamma(complex(z)))
        assert digamma(z) == pytest.approx(want, rel=1e-13), z


def test_digamma_poles():
    for z in (0, -1, -5, 0.0, -3.0 + 0j):
        with pytest.raises(PoleError):
            digamma(z)


def test_digamma_rejects_non_finite():
    with pytest.raises(ValueError):
        digamma(float("inf"))
    with pytest.raises(ValueError):
        digamma(complex(1.0, float("nan")))


# ---------------------------------------------------------------------------
# zeta


def test_zeta_known_values():
    assert zeta(2) == pytest.approx(math.pi**2 / 6.0, rel=1e-12)
    assert zeta(4) == pytest.approx(math.pi**4 / 90.0, rel=1e-12)


def test_zeta_matches_mpmath():
    rng = np.random.default_rng(303)
    for _ in range(50):
        s = complex(rng.uniform(1.05, 20.0), rng.uniform(-20.0, 20.0))
        want = complex(mpmath.zeta(complex(s)))
        assert zeta(s) == pytest.approx(want, rel=1e-10)


def test_zeta_rejects_half_plane():
    for s in (1.0, 0.5, -2, 1.0 + 5j):
        with pytest.raises(DomainError):
            zeta(s)


def test_zeta_euler_product_invariant():
    # zeta(s) = prod_p 1/(1 - p^-s) over p <= P, tail ~ P^(1-s)/(s-1)
    s = 3.0
    log_acc = 0.0
    for p in prime_array(10**6).tolist():
        log_acc -= math.log1p(-float(p) ** -s)
    assert math.exp(log_acc) == pytest.approx(zeta(s).real, rel=1e-6)


# ---------------------------------------------------------------------------
# cpow


def test_cpow_integer_exponents():
    assert cpow(2, 10) == 1024
    assert cpow(-2, 3) == -8
    assert cpow(-2.0, 2.0) == 4.0
    assert cpow(0, 0) == 1
    assert cpow(0, 5) == 0
    assert cpow(2, -2) == 0.25
    assert cpow(1j, 4) == pytest.approx(1.0, rel=1e-15)


def test_cpow_zero_to_negative_is_pole():
    with pytest.raises(PoleError):
        cpow(0, -1)


def test_cpow_branch_cut():
    with pytest.raises(DomainError):
        cpow(-2.0, 0.5)
    with pytest.raises(DomainError):
        cpow(0.0, 0.5)
    # complex base just off the cut is fine
    assert cpow(-2.0 + 1e-9j, 0.5) == pytest.approx(cmath.exp(0.5 * cmath.log(-2.0 + 1e-9j)), rel=1e-12)


def test_cpow_matches_mpmath():
    rng = np.random.default_rng(404)
    for _ in range(40):
        base = complex(rng.uniform(0.1, 5.0), rng.uniform(-3.0, 3.0))
        expo = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        want = complex(mpmath.power(complex(base), complex(expo)))
        assert cpow(base, expo) == pytest.approx(want, rel=1e-12)


def test_cpow_huge_integer_exponent_exact():
    assert cpow(1.0, 10**12) == 1.0
    assert cpow(-1.0, 10**12 + 1) == -1.0


# ---------------------------------------------------------------------------
# clog1p / cexpm1


def test_clog1p_inverts_expm1():
    rng = np.random.default_rng(505)
    for _ in range(60):
        a = complex(rng.uniform(-0.45, 2.0), rng.uniform(-2.0, 2.0))
        assert cmath.exp(clog1p(a)) == pytest.approx(1.0 + a, rel=1e-13)


def test_clog1p_small_argument_accuracy():
    a = 1e-14 + 1e-15j
    got = clog1p(a)
    want = complex(mpmath.log(mpmath.mpc(1) + mpmath.mpc(a.real, a.imag)))
    assert got == pytest.approx(want, rel=1e-12)


def test_clog1p_branch_cut():
    with pytest.raises(DomainError):
        clog1p(-1.0)
    with pytest.raises(DomainError):
        clog1p(-2.5)


def test_cexpm1_identities():
    assert cexpm1(0.0) == 0.0
    assert cexpm1(complex(0.0, math.pi)) == pytest.approx(-2.0, abs=1e-15)
    rng = np.random.default_rng(606)
    for _ in range(60):
        z = complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        assert cexpm1(z) == pytest.approx(cmath.exp(z) - 1.0, rel=1e-12, abs=1e-12)


def test_cexpm1_tiny_argument_accuracy():
    z = 1e-13 + 2e-13j
    got = cexpm1(z)
    want = complex(mpmath.expm1(mpmath.mpc(z.real, z.imag)))
    assert got == pytest.approx(want, rel=1e-12)
    # naive exp(z) - 1 loses most digits here; the guard is the whole point
    assert abs(got - z) <= 1e-25


# ---------------------------------------------------------------------------
# Bernoulli coefficients as float literals


def test_bernoulli_coefficients_are_the_nearest_doubles():
    b2j = (
        Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
        Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
        Fraction(43867, 798), Fraction(-174611, 330), Fraction(854513, 138),
        Fraction(-236364091, 2730),
    )
    em = tuple(float(b / math.factorial(2 * j)) for j, b in enumerate(b2j, start=1))
    dg = tuple(float(b / (2 * j)) for j, b in enumerate(b2j, start=1))
    assert [c.hex() for c in special._EM_COEFFS] == [c.hex() for c in em]
    assert [c.hex() for c in special._DIGAMMA_COEFFS] == [c.hex() for c in dg]


def test_cli_import_loads_neither_fractions_nor_decimal():
    src = Path(selberg_delange.__file__).resolve().parents[1]
    code = "import sys, selberg_delange.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"
