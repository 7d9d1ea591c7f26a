"""Field arithmetic: canonical forms, derivations, Frobenius structure."""

import pytest

from katoforms import (
    FieldMismatch,
    FunctionField,
    PrimeField,
    ZeroDenominator,
    frobenius_compose,
    frobenius_decompose,
    partial,
    poly_gcd,
    pth_root,
    ratfunc_normalize,
    subfield_membership,
)
from katoforms import fields
from katoforms.fields import random_poly, random_ratfunc


def test_prime_field_rejects_composites():
    PrimeField(2)
    PrimeField(13)
    with pytest.raises(ValueError):
        PrimeField(4)
    with pytest.raises(ValueError):
        PrimeField(1)


def test_normalize_reduces_common_factor(f2x):
    x = f2x.var(0)
    f = ratfunc_normalize((x * x + x).num, x.num)
    assert f == x + f2x.one()


def test_normalize_zero_and_identity(f2x):
    x = f2x.var(0)
    assert ratfunc_normalize(f2x.zero_poly(), (x ** 3).num) == f2x.zero()
    assert ratfunc_normalize(x.num, x.num) == f2x.one()


def test_normalize_zero_denominator(f2x):
    with pytest.raises(ZeroDenominator):
        ratfunc_normalize(f2x.const_poly(1), f2x.zero_poly())


def test_normalize_canonical_over_common_factors(f2xy, rng):
    for _ in range(80):
        a = random_poly(f2xy, rng, 2, 3)
        b = random_poly(f2xy, rng, 2, 3)
        h = random_poly(f2xy, rng, 2, 2)
        if b.is_zero() or h.is_zero():
            continue
        assert ratfunc_normalize(a * h, b * h) == ratfunc_normalize(a, b)


def test_partial_examples(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    # 2xy vanishes mod 2
    assert partial(x * x * y + x, 0) == f2xy.one()
    assert partial(y, 0) == f2xy.zero()
    f3 = FunctionField.make(3, ["x"])
    x3 = f3.var(0)
    assert partial(x3.inv(), 0) == f3.const(2) / (x3 * x3)


def test_partial_leibniz(f3xy, rng):
    for _ in range(60):
        f = random_ratfunc(f3xy, rng, 2, 3)
        g = random_ratfunc(f3xy, rng, 2, 3)
        i = rng.randrange(2)
        assert partial(f * g, i) == f * partial(g, i) + g * partial(f, i)


def test_frobenius_examples(f2xy, f2x):
    x, y = f2xy.var(0), f2xy.var(1)
    dec = frobenius_decompose(x ** 3 * y + y ** 2)
    assert dec == {(1, 1): x, (0, 0): y}
    x1 = f2x.var(0)
    assert frobenius_decompose(x1 * x1) == {(0,): x1}
    f3 = FunctionField.make(3, ["x", "y"])
    assert frobenius_decompose(f3.var(0)) == {(1, 0): f3.one()}


def test_frobenius_reconstruction_many(rng):
    for p in (2, 3):
        for m in (1, 2, 3):
            fld = FunctionField.make(p, [f"x{i}" for i in range(m)])
            pool = [fld.const_poly(1), fld.var_poly(0)]
            for _ in range(60):
                f = random_ratfunc(fld, rng, 3, 3, pool)
                dec = frobenius_decompose(f)
                assert frobenius_compose(fld, dec) == f
                for j in dec:
                    assert all(0 <= e < p for e in j)


def test_pth_root(f2x, f2xy, rng):
    x = f2x.var(0)
    assert pth_root(x * x) == x
    assert pth_root(x) is None
    xx, yy = f2xy.var(0), f2xy.var(1)
    assert pth_root((xx ** 2 + yy ** 2) / yy ** 4) == (xx + yy) / (yy * yy)
    for p in (2, 3):
        fld = FunctionField.make(p, ["x", "y"])
        for _ in range(40):
            f = random_ratfunc(fld, rng, 2, 3)
            assert pth_root(f ** p) == f


def test_subfield_membership(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    assert subfield_membership(x + y ** 2, ["x"])
    assert not subfield_membership(y, ["x"])
    assert subfield_membership(x ** 2 * y ** 2, [])


def test_gcd_basics(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    g = poly_gcd(((x + y) * (x * y + x)).num, ((x + y) * y).num)
    # x*y + x = x(y+1), shares only (x+y) with (x+y)*y
    assert g == (x + y).num
    assert poly_gcd(f2xy.zero_poly(), x.num) == x.num
    assert poly_gcd(f2xy.const_poly(1), x.num) == f2xy.const_poly(1)


def test_arithmetic_field_axioms(f3xy, rng):
    for _ in range(40):
        a = random_ratfunc(f3xy, rng, 2, 2)
        b = random_ratfunc(f3xy, rng, 2, 2)
        c = random_ratfunc(f3xy, rng, 2, 2)
        assert (a + b) * c == a * c + b * c
        if not b.is_zero():
            assert (a / b) * b == a
        assert a - a == f3xy.zero()


def test_structure_checks_truth_table(f3xy):
    x = f3xy.var(0)
    one = f3xy.one()
    # (value, is_const of the numerator, is_one, const_value or None if not constant)
    table = [
        (f3xy.zero(), True, False, 0),
        (one, True, True, 1),
        (f3xy.const(2), True, False, 2),
        (x, False, False, None),
        (one + x, False, False, None),
    ]
    for f, const, is_one, value in table:
        assert f.num.is_const() is const
        assert f.is_one() is is_one
        assert f.is_poly()
        if value is None:
            with pytest.raises(ValueError):
                f.num.const_value()
        else:
            assert f.num.const_value() == value
    # a constant numerator over a nonconstant denominator is not one
    assert not (one / x).is_one()
    assert not (one / x).is_poly()


def test_fields_made_apart_interoperate():
    a = FunctionField.make(3, ["x", "y"])
    b = FunctionField.make(3, ["x", "y"])
    assert a is not b and a == b and hash(a) == hash(b)
    x, y = a.var(0), b.var(1)
    s = x + y
    assert s == b.var(0) + a.var(1)
    assert s.num == poly_gcd(s.num, (x * (x + y)).num)
    assert ratfunc_normalize(x.num, y.num) * b.var(1) == x
    for other in (FunctionField.make(2, ["x", "y"]), FunctionField.make(3, ["x", "z"])):
        assert other != a
        u = other.var(0)
        for op in (
            lambda: x + u,
            lambda: x * u,
            lambda: x.num + u.num,
            lambda: x.num * u.num,
            lambda: poly_gcd(x.num, u.num),
            lambda: ratfunc_normalize(x.num, u.num),
        ):
            with pytest.raises(FieldMismatch):
                op()
        assert x != u and x.num != u.num


def test_arithmetic_takes_gcds_of_denominators_only(f3xy, monkeypatch):
    """Henrici's sum and the cross-cancelled product: no gcd over a
    denominator 1 or in ``scale``, one for coprime or equal denominators.
    Only the outermost ``poly_gcd`` calls are counted, not its recursion."""
    x, y = f3xy.var(0), f3xy.var(1)
    p, q = x * x + y, x * y + f3xy.one()
    f = ratfunc_normalize(x.num, (x + f3xy.one()).num)
    g = ratfunc_normalize(y.num, (y + f3xy.const(2)).num)
    b = (x + y).num
    h, k = ratfunc_normalize(x.num, b), ratfunc_normalize((y * y).num, b)
    cases = [
        (lambda: p + q, ratfunc_normalize((p + q).num, f3xy.const_poly(1)), 0),
        (lambda: p * q, ratfunc_normalize((p * q).num, f3xy.const_poly(1)), 0),
        (lambda: f.scale(2), ratfunc_normalize(f.num.scale(2), f.den), 0),
        (lambda: f + g, ratfunc_normalize(
            f.num * g.den + g.num * f.den, f.den * g.den), 1),
        (lambda: h + k, ratfunc_normalize(h.num + k.num, b), 1),
    ]
    calls = _count_outermost_gcds(monkeypatch)
    for op, expected, gcds in cases:
        calls.clear()
        assert op() == expected
        assert len(calls) == gcds


def _count_outermost_gcds(monkeypatch):
    """Record the operands of each ``poly_gcd`` call not made by another."""
    inner = fields.poly_gcd
    depth = [0]
    calls = []

    def counting(u, v):
        if not depth[0]:
            calls.append((u, v))
        depth[0] += 1
        try:
            return inner(u, v)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(fields, "poly_gcd", counting)
    return calls


def test_inverse_and_quotient_rule_take_no_gcd_against_a_product(f3xy, monkeypatch):
    """``inv`` takes no gcd; ``partial`` takes none over a denominator 1, one
    when gcd(b, db) = 1 and two otherwise, and none against b^2."""
    x, y, one = f3xy.var(0), f3xy.var(1), f3xy.one()
    f = ratfunc_normalize((x * y + one).num, (x * x + y).num.scale(2))
    p = x * x * y + x
    b1 = (x + y + one).num
    f1 = ratfunc_normalize((x * y).num, b1)
    b2 = ((x + one) * (x + one) * (y + one)).num
    f2 = ratfunc_normalize((y + x * x).num, b2)

    def derivative(g, i):
        a, b = g.num, g.den
        return ratfunc_normalize(a.partial(i) * b - a * b.partial(i), b * b)

    cases = [
        (lambda: f.inv(), ratfunc_normalize(f.den, f.num), 0),
        (lambda: partial(p, 0), derivative(p, 0), 0),
        (lambda: partial(f1, 0), derivative(f1, 0), 1),
        (lambda: partial(f2, 0), derivative(f2, 0), 2),
    ]
    squares = {b1 * b1, b2 * b2}
    calls = _count_outermost_gcds(monkeypatch)
    for op, expected, gcds in cases:
        calls.clear()
        assert op() == expected
        assert len(calls) == gcds
        assert not any(u in squares or v in squares for u, v in calls)


def test_polynomial_power_multiplies_no_one(f3xy, monkeypatch):
    """Square and multiply from the base: no product by one, no square past
    the top bit, so f ** 1 is f and f ** 5 takes three products."""
    f = (f3xy.var(0) + f3xy.var(1) + f3xy.one()).num
    expected = [f3xy.const_poly(1)]
    for _ in range(5):
        expected.append(expected[-1] * f)
    inner = fields.poly_mul
    calls = []

    def counting(a, b, p):
        calls.append(1)
        return inner(a, b, p)

    monkeypatch.setattr(fields, "poly_mul", counting)
    for n, products in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3)]:
        calls.clear()
        assert f ** n == expected[n]
        assert len(calls) == products
