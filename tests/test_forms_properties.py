"""Identities of the exterior calculus as properties over drawn forms:
d∘d = 0, the Cartier operator inverts sp, and ``integrate`` inverts d on
exact forms.

The draws are at selftest sizes, p in {2, 3} with at most two variables,
with rational coefficients over drawn denominators.
"""

import itertools

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from katoforms import (  # noqa: E402
    DiffForm,
    FunctionField,
    MultiPoly,
    cartier_raw,
    d,
    integrate,
    ratfunc_normalize,
    sp,
)


def _poly(draw, fld, top, size, nonzero):
    exps = st.tuples(*[st.integers(0, top)] * fld.nvars)
    terms = draw(
        st.dictionaries(exps, st.integers(1, fld.p - 1), min_size=int(nonzero), max_size=size)
    )
    return MultiPoly(fld, terms)


@st.composite
def forms(draw, below_top=False):
    """A form over F_p(x) or F_p(x,y), p in {2, 3}, of any degree (below
    the top degree if ``below_top``), with up to two terms num/den."""
    p = draw(st.sampled_from([2, 3]))
    m = draw(st.integers(1, 2))
    fld = FunctionField.make(p, ["x", "y"][:m])
    n = draw(st.integers(0, m - 1 if below_top else m))
    idxs = list(itertools.combinations(range(m), n))
    coeffs = {}
    for idx in draw(st.lists(st.sampled_from(idxs), max_size=2, unique=True)):
        num = _poly(draw, fld, 3, 3, nonzero=False)
        den = _poly(draw, fld, 2, 2, nonzero=True)
        coeffs[idx] = ratfunc_normalize(num, den)
    return DiffForm.from_coeffs(fld, n, coeffs)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(forms())
def test_d_squared_is_zero(w):
    assert d(d(w)).is_zero()


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(forms())
def test_cartier_inverts_sp(w):
    assert cartier_raw(sp(w)) == w


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(forms(below_top=True))
def test_integrate_inverts_d_on_exact_forms(eta):
    exact = d(eta)
    assert d(integrate(exact)) == exact
