import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatfield import pring
from heatfield.pring import (
    I,
    ONE,
    SIGMA_MINUS,
    SIGMA_PLUS,
    PseudoComplex,
    ZeroDivisorError,
    conjugate,
    exp,
    gamma_minus,
    gamma_plus,
    gamma_project,
    inverse,
    magnitude,
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
    assert 2 - PseudoComplex(0.5, 3.0) == PseudoComplex(1.5, -3.0)
    assert 1.0 - I == PseudoComplex(1.0, -1.0)


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


@pytest.mark.parametrize("seed", [True, None, 1.7, np.float64(3.0), "5"])
def test_self_check_needs_an_integer_seed(seed):
    # True used to run seed 1, None fresh OS entropy, and the others raised numpy's TypeError.
    with pytest.raises(ValueError, match="^seed must be an integer, got "):
        pring.self_check(5, seed)


def test_self_check_seed_is_python_or_numpy_and_non_negative():
    assert pring.self_check(5, np.int64(7)) == pring.self_check(5, 7)
    with pytest.raises(ValueError):  # numpy's own
        pring.self_check(5, -1)


def self_check_oracle(cases: int = 10_000, seed: int = 0) -> dict:
    """The one-case-at-a-time self_check that the batched one replaced."""
    rng = np.random.default_rng(seed)
    errs = {
        "gamma_additive": 0.0,
        "gamma_multiplicative": 0.0,
        "involution": 0.0,
        "conj_swaps_gammas": 0.0,
        "exp_law": 0.0,
        "inverse": 0.0,
        "unitary_evolution": 0.0,
        "evolution_semigroup": 0.0,
    }
    for _ in range(cases):
        a, b, c, d = rng.uniform(-10.0, 10.0, size=4)
        p = PseudoComplex(a, b)
        q = PseudoComplex(c, d)
        pair_scale = magnitude(p) * magnitude(q)
        for gamma in (gamma_plus, gamma_minus):
            errs["gamma_additive"] = max(
                errs["gamma_additive"],
                abs(gamma(p + q) - (gamma(p) + gamma(q))) / (1.0 + magnitude(p) + magnitude(q)),
            )
            errs["gamma_multiplicative"] = max(
                errs["gamma_multiplicative"],
                abs(gamma(p * q) - gamma(p) * gamma(q)) / (1.0 + pair_scale),
            )
        r = p.conj().conj()
        errs["involution"] = max(errs["involution"], abs(r.re - p.re), abs(r.im - p.im))
        errs["conj_swaps_gammas"] = max(
            errs["conj_swaps_gammas"], abs(gamma_plus(p.conj()) - gamma_minus(p))
        )
        ep, eq = exp(p), exp(q)
        errs["exp_law"] = max(
            errs["exp_law"],
            pring._identity_err(ep * eq, exp(p + q), magnitude(ep) * magnitude(eq)),
        )
        if min(abs(gamma_plus(p)), abs(gamma_minus(p))) >= 1e-6:
            inv = inverse(p)
            errs["inverse"] = max(
                errs["inverse"], pring._identity_err(inv * p, ONE, magnitude(inv) * magnitude(p))
            )
        energy = rng.uniform(0.0, 10.0)
        t, s = rng.uniform(-1.0, 1.0, size=2)
        u_t = exp(PseudoComplex(0.0, -energy * t))
        u_s = exp(PseudoComplex(0.0, -energy * s))
        errs["evolution_semigroup"] = max(
            errs["evolution_semigroup"],
            pring._identity_err(
                u_t * u_s,
                exp(PseudoComplex(0.0, -energy * (t + s))),
                magnitude(u_t) * magnitude(u_s),
            ),
        )
        u = exp(PseudoComplex(0.0, -energy * rng.uniform(-2.0, 2.0)))  # |E t| <= 20
        errs["unitary_evolution"] = max(
            errs["unitary_evolution"], pring._identity_err(u * u.conj(), ONE, magnitude(u) ** 2)
        )
    return errs


@pytest.mark.parametrize("seed", [0, 2, 101, 12345])
def test_batched_self_check_is_bit_identical_to_the_per_case_loop(seed):
    # Case counts on both sides of the batch edges.
    for cases in (1, 2, 3, 1023, 1024, 1025, 10_000):
        got, want = pring.self_check(cases, seed), self_check_oracle(cases, seed)
        assert list(got) == list(want)
        assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in want.items()}, (seed, cases)
        assert all(type(v) is float for v in got.values())


def _batch(re, im):
    return PseudoComplex(np.array(re, dtype=float), np.array(im, dtype=float))


def _outcome(op, *args):
    try:
        return op(*args)
    except (ArithmeticError, ValueError) as err:
        return type(err)


def _bits(values):
    return np.array(values, dtype=float).tobytes()


def assert_elementwise(op, *batches):
    """op on batches equals op on each element bit for bit, or raises as some element does."""
    size = batches[0].re.size
    singles = [[PseudoComplex(b.re[k], b.im[k]) for b in batches] for k in range(size)]
    want = [_outcome(op, *args) for args in singles]
    errors = tuple({w for w in want if isinstance(w, type)})
    if errors:
        # An overflow to inf raises ValueError in both; numpy warns on the way.
        with pytest.raises(errors), np.errstate(all="ignore"):
            op(*batches)
        return
    got = op(*batches)
    if isinstance(got, PseudoComplex):
        assert _bits(np.broadcast_to(got.re, (size,))) == _bits([w.re for w in want])
        assert _bits(np.broadcast_to(got.im, (size,))) == _bits([w.im for w in want])
    else:
        assert _bits(got) == _bits(want)


COMPONENTS = st.floats(-50.0, 50.0)
OPERAND_PAIRS = st.integers(0, 8).flatmap(
    lambda n: st.lists(st.lists(COMPONENTS, min_size=n, max_size=n), min_size=4, max_size=4)
)


@settings(max_examples=200, deadline=None, database=None)
@given(OPERAND_PAIRS)
def test_array_components_act_like_scalars_elementwise(columns):
    a, b, c, d = columns
    p, q = _batch(a, b), _batch(c, d)
    for op in (
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x / y,
        lambda x, y: 2.5 * x - y / 3,
    ):
        assert_elementwise(op, p, q)
    for op in (lambda x: x.conj(), exp, inverse, magnitude, lambda x: -x, lambda x: x.is_zero_divisor):
        assert_elementwise(op, p)


def test_batch_exp_takes_libm_exp_per_element():
    # numpy's vector exp differs from math.exp in the last bits on some hosts.
    rng = np.random.default_rng(4)
    a, b = rng.uniform(-20.0, 20.0, (2, 2000))
    got = exp(_batch(a, b))
    want = [zd_compose(math.exp(x + y), math.exp(x - y)) for x, y in zip(a.tolist(), b.tolist())]
    assert _bits(got.re) == _bits([w.re for w in want])
    assert _bits(got.im) == _bits([w.im for w in want])


@pytest.mark.parametrize("shape", [(), (7,), (3, 5), (0,), (2, 0), (2 * pring._PER_ELEMENT_CHUNK + 3,), (3, 4100)])
def test_per_element_keeps_the_shape_and_takes_libm_per_value(shape):
    x = np.random.default_rng(5).uniform(-30.0, 30.0, shape)
    got = pring._per_element(math.exp, x)
    assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == shape
    assert _bits(got.ravel()) == _bits([math.exp(v) for v in x.ravel().tolist()])


def test_batch_with_a_zero_divisor_has_no_inverse():
    with pytest.raises(ZeroDivisorError):
        inverse(_batch([2.0, 1.0, 3.0], [0.0, -1.0, 1.0]))
    with pytest.raises(ZeroDivisorError):
        PseudoComplex(1.0, 0.0) / _batch([2.0, 0.5], [1.0, 0.5])


def test_non_finite_array_component_is_rejected():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="component must be finite"):
            _batch([1.0, bad], [0.0, 0.0])
        with pytest.raises(ValueError, match="component must be finite"):
            _batch([1.0, 2.0], [bad, 0.0])


def test_scalar_components_stay_python_floats():
    p = PseudoComplex(np.float64(1.5), np.int64(2))
    for value in (p, p * I, exp(p), inverse(p), p / 3, p.conj()):
        assert type(value.re) is float and type(value.im) is float
    assert type(magnitude(p)) is float
    assert p.is_zero_divisor is False
    assert repr(p) == "(1.5 + I*2.0)"
