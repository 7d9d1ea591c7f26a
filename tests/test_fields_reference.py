"""``RatFunc`` arithmetic against the schoolbook reference: ``+``, ``-``,
``*``, ``scale``, ``inv``, ``/`` and ``partial`` equal ``ratfunc_normalize``
of the cross-multiplied numerator and denominator (for ``partial``, of
``(a'b - ab')/b^2``).  The canonical form is unique, so the two agree term
for term.

The pairs are drawn to reach every branch of the sum and product: one
denominator shared as a factor, equal denominators, denominators 1, a sum
that cancels to zero, a sum that cancels part of the common denominator
(g = h - f for a drawn h), a product that cancels across (g's numerator a
multiple of f's denominator), and free draws.  The fractions for ``partial``,
``inv`` and ``/`` are drawn to reach every branch of the quotient rule and
the quotient: a denominator 1, a repeated factor s^2 r, a factor u with
d_x u = 0 (c x^p + c0 plus a polynomial in y, such as x^p + y), a numerator
that is a p-th power, and a divisor whose numerator and denominator share
factors with the dividend's.  At most two variables, at p in {2, 3, 5}, and
b of degree at most p + 1 in the shape with u, so that the reference's full
gcd over b^2 stays fast (see ``test_fields_sympy.py``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from katoforms import FunctionField, MultiPoly, partial, ratfunc_normalize  # noqa: E402


def _poly(draw, fld, nonzero=False, top=2):
    exps = st.tuples(*[st.integers(0, top)] * fld.nvars)
    terms = draw(
        st.dictionaries(exps, st.integers(1, fld.p - 1), min_size=int(nonzero), max_size=3)
    )
    return MultiPoly(fld, terms)


def _field(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    return FunctionField.make(p, ["x", "y"][: draw(st.integers(1, 2))])


@st.composite
def pairs(draw):
    fld = _field(draw)
    one = fld.const_poly(1)
    shape = draw(st.sampled_from(
        ["shared", "equal", "over-one", "cancel", "refold", "cross", "free"]
    ))
    a, c = _poly(draw, fld), _poly(draw, fld)
    if shape == "shared":
        s = _poly(draw, fld, nonzero=True)
        b, d = s * _poly(draw, fld, nonzero=True), s * _poly(draw, fld, nonzero=True)
    elif shape == "equal":
        b = d = _poly(draw, fld, nonzero=True)
    elif shape == "over-one":
        b = one
        d = draw(st.sampled_from([one, _poly(draw, fld, nonzero=True)]))
        if draw(st.booleans()):
            b, d = d, b
    else:
        b, d = _poly(draw, fld, nonzero=True), _poly(draw, fld, nonzero=True)
    f = ratfunc_normalize(a, b)
    if shape == "cancel":
        g = -f
    elif shape == "refold":
        # g = c/d - f by the reference, so that f + g cancels part of lcm(b, d)
        g = ratfunc_normalize(c * f.den - f.num * d, d * f.den)
    elif shape == "cross":
        # g's numerator shares the factors of f's denominator
        g = ratfunc_normalize(c * f.den, d)
    else:
        g = ratfunc_normalize(c, d)
    return f, g, draw(st.integers(0, fld.p - 1))


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(pairs())
def test_arithmetic_matches_schoolbook_reference(case):
    f, g, k = case
    a, b, c, d = f.num, f.den, g.num, g.den
    assert f + g == ratfunc_normalize(a * d + c * b, b * d)
    assert f - g == ratfunc_normalize(a * d - c * b, b * d)
    assert g + f == f + g
    assert f * g == ratfunc_normalize(a * c, b * d)
    assert g * f == f * g
    assert f.scale(k) == ratfunc_normalize(a.scale(k), b)


def _fraction(draw, fld):
    """a/b reduced and nonzero, b shaped to reach each branch of ``partial``."""
    one = fld.const_poly(1)
    shape = draw(st.sampled_from(["one", "repeated", "pth-power", "free"]))
    if shape == "one":
        b = one
    elif shape == "repeated":
        s = _poly(draw, fld, nonzero=True, top=1)
        b = s * s * _poly(draw, fld, nonzero=True, top=1)
    elif shape == "pth-power":
        # u = c x^p + c0 plus a polynomial in y, so d_x u = 0: x^p + y and
        # kin, times a linear cofactor
        u = fld.monomial((fld.p,) + (0,) * (fld.nvars - 1), draw(st.integers(1, fld.p - 1)))
        u = u + fld.const_poly(draw(st.integers(0, fld.p - 1)))
        if fld.nvars == 2:
            u = u + MultiPoly(fld, {(0, e): c for (_, e), c in _poly(draw, fld).terms.items()})
        linear = {e: c for e, c in _poly(draw, fld, top=1).terms.items() if sum(e) < 2}
        b = u * MultiPoly(fld, linear) if linear else u
    else:
        b = _poly(draw, fld, nonzero=True)
    if draw(st.booleans()):
        a = _poly(draw, fld, nonzero=True, top=1).frobenius_power()
    else:
        a = _poly(draw, fld, nonzero=True)
    return ratfunc_normalize(a, b)


@st.composite
def fractions(draw):
    return _fraction(draw, _field(draw))


@st.composite
def quotients(draw):
    fld = _field(draw)
    f, g = _fraction(draw, fld), _fraction(draw, fld)
    if draw(st.booleans()):
        # g's numerator and denominator share factors with f's, so that f / g
        # cancels across both ways
        g = ratfunc_normalize(g.num * f.num, g.den * f.den)
    return f, g


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(fractions())
def test_partial_matches_quotient_rule_reference(f):
    a, b = f.num, f.den
    for i in range(f.field.nvars):
        assert partial(f, i) == ratfunc_normalize(a.partial(i) * b - a * b.partial(i), b * b)


@hypothesis.settings(max_examples=300, deadline=None)
@hypothesis.given(quotients())
def test_inverse_and_quotient_match_reference(case):
    f, g = case
    a, b, c, d = f.num, f.den, g.num, g.den
    assert f.inv() == ratfunc_normalize(b, a)
    assert f / g == ratfunc_normalize(a * d, b * c)
