"""``RatFunc`` arithmetic against the schoolbook reference: ``+``, ``-``,
``*`` and ``scale`` equal ``ratfunc_normalize`` of the cross-multiplied
numerator and denominator.  The canonical form is unique, so the two agree
term for term.

The pairs are drawn to reach every branch of the sum and product: one
denominator shared as a factor, equal denominators, denominators 1, a sum
that cancels to zero, a sum that cancels part of the common denominator
(g = h - f for a drawn h), a product that cancels across (g's numerator a
multiple of f's denominator), and free draws.  At most two variables, at
p in {2, 3, 5}, so that the reference's full gcd stays fast (see
``test_fields_sympy.py``).
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from katoforms import FunctionField, MultiPoly, ratfunc_normalize  # noqa: E402


def _poly(draw, fld, nonzero=False):
    exps = st.tuples(*[st.integers(0, 2)] * fld.nvars)
    terms = draw(
        st.dictionaries(exps, st.integers(1, fld.p - 1), min_size=int(nonzero), max_size=3)
    )
    return MultiPoly(fld, terms)


@st.composite
def pairs(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    fld = FunctionField.make(p, ["x", "y"][: draw(st.integers(1, 2))])
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
    return f, g, draw(st.integers(0, p - 1))


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
