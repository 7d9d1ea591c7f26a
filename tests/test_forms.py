"""Exterior calculus: d, wedge, semilinear maps, Cartier decision rules."""

import random

import pytest

from katoforms import (
    DiffForm,
    FieldMismatch,
    FunctionField,
    NotClosed,
    NotExact,
    cartier,
    cartier_raw,
    d,
    dlog,
    frobenius_decompose,
    grade_decompose,
    integrate,
    is_exact,
    nu_member,
    random_form,
    sp,
    sp_iter,
    wedge,
    wp,
)
from katoforms.forms import random_form_rng, to_log


def test_d_examples(f2xy):
    x = f2xy.var(0)
    assert d(DiffForm.from_coeffs(f2xy, 1, {(1,): x})) == DiffForm.basis(f2xy, (0, 1))
    assert d(DiffForm.from_coeffs(f2xy, 1, {(1,): x * x})).is_zero()
    assert d(DiffForm.scalar(f2xy, f2xy.one())).is_zero()


def test_wedge_examples(f2xy):
    dx, dy = DiffForm.basis(f2xy, (0,)), DiffForm.basis(f2xy, (1,))
    assert wedge(dx, dy) == DiffForm.basis(f2xy, (0, 1))
    assert wedge(dx, dx).is_zero()
    f3 = FunctionField.make(3, ["x", "y", "z"])
    x3 = f3.var(0)
    dy3, dz3 = DiffForm.basis(f3, (1,)), DiffForm.basis(f3, (2,))
    assert wedge(dy3.scale(x3), dz3) == DiffForm.from_coeffs(f3, 2, {(1, 2): x3})


def test_wedge_field_mismatch(f2xy, f2x):
    with pytest.raises(FieldMismatch):
        wedge(DiffForm.basis(f2xy, (0,)), DiffForm.basis(f2x, (0,)))


def test_wedge_alternating_anticommutative(f3xy, rng):
    for _ in range(40):
        a = random_form_rng(f3xy, 1, 2, 2, rng)
        b = random_form_rng(f3xy, 1, 2, 2, rng)
        assert (wedge(a, b) + wedge(b, a)).is_zero()
        assert wedge(a, a).is_zero()


def test_sp_examples(f2x):
    x = f2x.var(0)
    dx = DiffForm.basis(f2x, (0,))
    assert sp(dx) == dx.scale(x)
    assert sp(dlog(x)) == dlog(x)
    assert sp(DiffForm.zero(f2x, 1)).is_zero()


def test_wp_examples(f2x):
    x = f2x.var(0)
    dx = DiffForm.basis(f2x, (0,))
    assert wp(dx) == dx.scale(x + f2x.one())
    assert wp(dlog(x)).is_zero()
    assert wp(DiffForm.zero(f2x, 1)).is_zero()


def test_cartier_examples(f2x):
    x = f2x.var(0)
    dx = DiffForm.basis(f2x, (0,))
    assert cartier(dx).is_zero()
    assert cartier(dx.scale(x)) == dx
    assert cartier(dlog(x)) == dlog(x)


def test_cartier_requires_closed(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    omega = DiffForm.from_coeffs(f2xy, 1, {(0,): y})  # y dx, not closed
    with pytest.raises(NotClosed):
        cartier(omega)
    cartier_raw(omega)  # raw variant has no precondition


def test_is_exact_examples(f2x):
    x = f2x.var(0)
    dx = DiffForm.basis(f2x, (0,))
    assert not is_exact(dx.scale(x))
    assert is_exact(dx)
    assert is_exact(dx.scale(x * x))


def test_nu_member_examples(f2x, f2xy):
    x = f2x.var(0)
    assert nu_member(dlog(x))
    assert not nu_member(DiffForm.basis(f2x, (0,)).scale(x))
    assert nu_member(wedge(dlog(f2xy.var(0)), dlog(f2xy.var(1))))


def test_degree_zero_semantics(f2xy):
    x = f2xy.var(0)
    f = DiffForm.scalar(f2xy, x * x)
    assert sp(f) == DiffForm.scalar(f2xy, x ** 4)
    assert wp(f) == DiffForm.scalar(f2xy, x ** 4 - x * x)
    assert cartier_raw(f) == DiffForm.scalar(f2xy, x)
    # nonzero degree-0 forms are never exact
    assert not is_exact(f)
    assert is_exact(DiffForm.zero(f2xy, 0))
    # nu_0 is the prime field
    assert nu_member(DiffForm.scalar(f2xy, f2xy.one()))
    assert not nu_member(DiffForm.scalar(f2xy, x))


def test_forms_above_dimension_vanish(f2x):
    assert DiffForm.zero(f2x, 2).is_zero()
    with pytest.raises(ValueError):
        DiffForm.from_coeffs(f2x, 2, {(0, 1): f2x.one()})
    assert d(DiffForm.basis(f2x, (0,))).is_zero()


def test_random_form_deterministic(f2xy):
    for seed in (1, 2, 3):
        a = random_form(f2xy, 1, 3, 2, seed)
        b = random_form(f2xy, 1, 3, 2, seed)
        assert a == b
    assert random_form(f2xy, 1, 3, 2, 1) != random_form(f2xy, 1, 3, 2, 2)


def test_core_identities_random(rng):
    for p, m in [(2, 2), (3, 2), (2, 3)]:
        fld = FunctionField.make(p, [f"x{i}" for i in range(m)])
        for _ in range(50):
            n = rng.randint(0, min(2, m))
            w = random_form_rng(fld, n, 3, 2, rng)
            assert d(d(w)).is_zero()
            assert cartier_raw(sp(w)) == w
            assert d(sp(w)).is_zero()
            if n < m:
                assert cartier_raw(d(w)).is_zero()
                dw = d(w)
                assert is_exact(dw)
                eta = integrate(dw)
                assert d(eta) == dw


def test_logarithmic_products_in_nu(rng):
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        from katoforms.fields import random_ratfunc

        for _ in range(30):
            a = random_ratfunc(fld, rng, 2, 2, nonzero=True)
            b = random_ratfunc(fld, rng, 2, 2, nonzero=True)
            assert nu_member(dlog(a))
            assert nu_member(wedge(dlog(a), dlog(b)))


def test_power_congruence_identity(rng):
    # v^[p^i] - v = wp(sum_{j<i} v^[p^j]) as exact form equality
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        for _ in range(25):
            v = random_form_rng(fld, rng.randint(0, 2), 2, 2, rng)
            for i in range(4):
                acc = DiffForm.zero(fld, v.degree)
                cur = v
                for _ in range(i):
                    acc = acc + cur
                    cur = sp(cur)
                assert sp_iter(v, i) - v == wp(acc)


def test_integrate_rejects_non_exact(f2x):
    x = f2x.var(0)
    with pytest.raises(NotExact):
        integrate(DiffForm.basis(f2x, (0,)).scale(x))  # closed, not exact
    with pytest.raises(NotExact):
        integrate(DiffForm.scalar(f2x, x))


@pytest.mark.parametrize(
    "p, names, seed",
    [(2, "xy", 11), (2, "xyz", 12), (3, "xy", 13), (5, "xy", 14)],
)
def test_grade_decompose_splits_by_frobenius_grade(p, names, seed):
    # omega is the sum of its grade-j pieces, the piece of grade j has log
    # coefficients g^p x^j only, and d preserves the grade
    fld = FunctionField.make(p, list(names))
    rng = random.Random(seed)
    for _ in range(6):
        n = rng.randrange(fld.nvars)
        omega = random_form_rng(fld, n, 3, 3, rng)
        pieces = grade_decompose(omega)
        total = DiffForm.zero(fld, n)
        for piece in pieces.values():
            total = total + piece
        assert total == omega
        for j, piece in pieces.items():
            log = to_log(piece)
            assert log and all(set(frobenius_decompose(c)) == {j} for c in log.values())
        d_pieces = grade_decompose(d(omega))
        for j in pieces.keys() | d_pieces.keys():
            d_of_piece = d(pieces.get(j, DiffForm.zero(fld, n)))
            assert d_pieces.get(j, DiffForm.zero(fld, n + 1)) == d_of_piece
