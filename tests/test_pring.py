import math

import numpy as np
import pytest

from heatfield import pring
from heatfield.pring import (
    I,
    ONE,
    SIGMA_MINUS,
    SIGMA_PLUS,
    PseudoComplex,
    ZeroDivisorError,
    conjugate,
    gamma_minus,
    gamma_plus,
    gamma_project,
    inverse,
    zd_compose,
)


def test_constructor_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            PseudoComplex(bad, 0.0)
        with pytest.raises(ValueError):
            PseudoComplex(0.0, bad)


def test_projector_algebra_is_exact():
    assert SIGMA_PLUS * SIGMA_MINUS == PseudoComplex(0.0, 0.0)
    assert SIGMA_PLUS * SIGMA_PLUS == SIGMA_PLUS
    assert SIGMA_MINUS * SIGMA_MINUS == SIGMA_MINUS
    assert SIGMA_PLUS + SIGMA_MINUS == ONE
    assert I * I == ONE


def test_multiplication_against_diagonal_oracle():
    # (2 + 3I)(4 + 5I): diagonals 5*9 = 45 and (-1)*(-1) = 1,
    # recomposing to a = 23, b = 22.
    p = PseudoComplex(2.0, 3.0) * PseudoComplex(4.0, 5.0)
    assert gamma_plus(PseudoComplex(2, 3)) * gamma_plus(PseudoComplex(4, 5)) == 45.0
    assert gamma_minus(PseudoComplex(2, 3)) * gamma_minus(PseudoComplex(4, 5)) == 1.0
    assert p == PseudoComplex(23.0, 22.0)


def test_addition_componentwise():
    assert PseudoComplex(1, 2) + PseudoComplex(3, -2) == PseudoComplex(4.0, 0.0)
    assert PseudoComplex(1, 2) - PseudoComplex(3, -2) == PseudoComplex(-2.0, 4.0)
    assert 1.0 + I == PseudoComplex(1.0, 1.0)


def test_gamma_projections():
    p = PseudoComplex(2.0, 3.0)
    assert gamma_plus(p) == 5.0
    assert gamma_minus(p) == -1.0
    assert gamma_project(p, +1) == 5.0
    assert gamma_project(p, -1) == -1.0
    assert gamma_plus(SIGMA_MINUS) == 0.0
    with pytest.raises(ValueError):
        gamma_project(p, 0)


def test_zd_compose_round_trips():
    assert zd_compose(1.0, 1.0) == ONE
    assert zd_compose(45.0, 1.0) == PseudoComplex(23.0, 22.0)
    assert zd_compose(1.0, 0.0) == SIGMA_PLUS
    rng = np.random.default_rng(2)
    for _ in range(100):
        up, um = rng.uniform(-10, 10, size=2)
        p = zd_compose(up, um)
        assert gamma_plus(p) == pytest.approx(up, rel=1e-14, abs=1e-14)
        assert gamma_minus(p) == pytest.approx(um, rel=1e-14, abs=1e-14)


def test_conjugation():
    assert conjugate(SIGMA_PLUS) == SIGMA_MINUS
    p = PseudoComplex(2.0, 3.0)
    assert conjugate(conjugate(p)) == p
    q = PseudoComplex(1.0, 4.0)
    assert gamma_plus(conjugate(q)) == gamma_minus(q) == -3.0


def test_exponential():
    assert pring.exp(pring.ZERO) == ONE
    # against the cosh/sinh closed form, an independent evaluation route
    got = pring.exp(PseudoComplex(0.0, -1.0))
    assert got.re == pytest.approx(math.cosh(1.0), rel=1e-14)
    assert got.im == pytest.approx(-math.sinh(1.0), rel=1e-14)
    assert gamma_plus(got) == pytest.approx(math.exp(-1.0), rel=1e-13)
    rng = np.random.default_rng(5)
    for _ in range(100):
        a, b = rng.uniform(-3, 3, size=2)
        p = PseudoComplex(a, b)
        e = pring.exp(p)
        assert e.re == pytest.approx(math.exp(a) * math.cosh(b), rel=1e-13)
        assert e.im == pytest.approx(math.exp(a) * math.sinh(b), rel=1e-13, abs=1e-13)


def test_inverse():
    assert inverse(ONE) == ONE
    assert inverse(PseudoComplex(2.0, 0.0)) == PseudoComplex(0.5, 0.0)
    with pytest.raises(ZeroDivisorError):
        inverse(SIGMA_PLUS)
    with pytest.raises(ZeroDivisorError):
        inverse(pring.ZERO)
    p = PseudoComplex(3.0, 1.0)
    unit = p * inverse(p)
    assert unit.re == pytest.approx(1.0, abs=1e-15)
    assert unit.im == pytest.approx(0.0, abs=1e-15)
    ratio = PseudoComplex(23.0, 22.0) / PseudoComplex(4.0, 5.0)
    assert ratio.re == pytest.approx(2.0, rel=1e-14)
    assert ratio.im == pytest.approx(3.0, rel=1e-14)


def test_zero_divisor_predicate_is_exact():
    assert SIGMA_PLUS.is_zero_divisor
    assert SIGMA_MINUS.is_zero_divisor
    assert pring.ZERO.is_zero_divisor
    assert PseudoComplex(1.0, -1.0).is_zero_divisor
    assert not PseudoComplex(1.0, 1.0 - 1e-15).is_zero_divisor


def test_overflowing_product_is_surfaced():
    big = PseudoComplex(1e308, 0.0)
    with pytest.raises((ValueError, OverflowError)):
        big * big


def test_randomized_property_suite():
    errs = pring.self_check(cases=10_000, seed=101)
    for name, err in errs.items():
        assert err < 1e-12, f"{name}: defect {err:.3e}"


@pytest.mark.parametrize("cases", [0, -1, 2.5, True])
def test_self_check_needs_an_integer_case_count(cases):
    # No case checked is no check passed: zero or negative counts must not return all-zero defects.
    with pytest.raises(ValueError, match="^cases must"):
        pring.self_check(cases)


def test_self_check_accepts_a_numpy_integer_case_count():
    assert pring.self_check(np.int64(3)) == pring.self_check(3)
