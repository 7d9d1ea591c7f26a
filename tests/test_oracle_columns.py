"""The oracle's closed-form columns against forms.wp and forms.d."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from katoforms import DiffForm, FunctionField, MultiPoly, d, ratfunc_normalize, wp  # noqa: E402
from katoforms.fields import poly_exact_div  # noqa: E402
from katoforms.oracle import Cofactors, d_column, wp_column  # noqa: E402


@st.composite
def column_cases(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    m = draw(st.integers(1, 3))
    fld = FunctionField.make(p, ["x", "y", "z"][:m])
    exps = st.tuples(*[st.integers(0, 3)] * m)

    def poly():
        terms = draw(st.dictionaries(exps, st.integers(1, p - 1), min_size=1, max_size=3))
        return MultiPoly(fld, terms)

    mono = fld.monomial(draw(exps), draw(st.integers(1, p - 1)))
    fn = ratfunc_normalize(mono, poly())
    # any multiple of b^p serves as the common denominator
    common = fn.den ** p * poly()
    kind = draw(st.sampled_from(["wp", "d"]))
    degree = draw(st.integers(0, m if kind == "wp" else m - 1))
    idx = tuple(sorted(draw(st.permutations(range(m)))[:degree]))
    return fld, kind, idx, fn, common


@hypothesis.settings(max_examples=150, deadline=None)
@hypothesis.given(column_cases())
def test_closed_form_column_matches_forms(case):
    fld, kind, idx, fn, common = case
    basis = DiffForm.from_coeffs(fld, len(idx), {idx: fn})
    image = wp(basis) if kind == "wp" else d(basis)
    expected = {}
    for jdx, c in image.coeffs.items():
        cleared = c.num * poly_exact_div(common, c.den)
        for exp, v in cleared.terms.items():
            expected[(jdx, exp)] = v
    column = wp_column if kind == "wp" else d_column
    assert column(idx, fn, Cofactors(common, fn.den)) == expected
