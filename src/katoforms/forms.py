"""Differential forms over F_p(x_1, ..., x_m) and their exterior calculus.

A degree-n form is stored sparsely in the plain basis dx_{i1} ^ ... ^ dx_{in}
with strictly increasing index tuples; a degree-0 form is a single field
element keyed by the empty tuple.  The logarithmic basis dx_i / x_i is a
view reached by multiplying or dividing coefficients by the monomial of the
index tuple: d is cheapest in the plain basis, the semilinear maps in the
logarithmic one.

Besides d and the wedge product this module implements:

* ``sp`` — the additive map raising logarithmic coefficients to the p-th
  power (written omega^[p]), relative to the fixed variable basis;
* ``wp`` — sp minus the identity, the Artin-Schreier map on forms;
* ``cartier`` — the inverse of sp on closed forms, computed through the
  Frobenius decomposition of logarithmic coefficients;
* ``integrate`` — an explicit antiderivative for exact forms, obtained from
  the monomial grading of the de Rham complex: the grade-j subcomplex for
  j != 0 is contracted by an explicit Koszul homotopy, and a closed form is
  exact exactly when its grade-0 part vanishes.

Decision rules: exact <=> closed and C = 0; fixed by C among closed forms
<=> annihilated by wp modulo exact forms.  Both directions follow from
C(sp(omega)) = omega, C(d eta) = 0 and the grading argument; the test suite
checks them against the independent bounded search in ``oracle``.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from .errors import DegreeMismatch, FieldMismatch, NotClosed, NotExact
from .fields import (
    FunctionField,
    MultiPoly,
    RatFunc,
    frobenius_compose,
    frobenius_decompose,
    partial,
    random_ratfunc,
)


def accumulate(out: dict, key, value) -> None:
    """out[key] += value, with the entry dropped when the sum is zero."""
    s = out.get(key)
    s = value if s is None else s + value
    if s.is_zero():
        out.pop(key, None)
    else:
        out[key] = s


def _merge_sign(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[Optional[tuple[int, ...]], int]:
    """Sorted concatenation and permutation sign; None when indices collide."""
    if set(a) & set(b):
        return None, 0
    merged = list(a) + list(b)
    # count inversions of the concatenation (insertion order parity)
    inversions = 0
    for i in range(len(merged)):
        for j in range(i + 1, len(merged)):
            if merged[i] > merged[j]:
                inversions += 1
    return tuple(sorted(merged)), -1 if inversions % 2 else 1


class DiffForm:
    """Sparse exterior form; immutable by convention after construction."""

    __slots__ = ("field", "degree", "coeffs")

    def __init__(self, field: FunctionField, degree: int, coeffs: dict):
        self.field = field
        self.degree = degree
        self.coeffs = coeffs

    # -- construction ------------------------------------------------------

    @staticmethod
    def zero(field: FunctionField, degree: int) -> "DiffForm":
        return DiffForm(field, degree, {})

    @staticmethod
    def from_coeffs(field: FunctionField, degree: int, coeffs: dict) -> "DiffForm":
        clean = {}
        for idx, c in coeffs.items():
            idx = tuple(idx)
            if len(idx) != degree or list(idx) != sorted(set(idx)):
                raise ValueError(f"bad index tuple {idx} for degree {degree}")
            if any(not 0 <= i < field.nvars for i in idx):
                raise ValueError(f"index out of range in {idx}")
            if not c.is_zero():
                clean[idx] = c
        if degree > field.nvars or degree < 0:
            if clean:
                raise ValueError("nonzero form outside degree range")
            return DiffForm(field, degree, {})
        return DiffForm(field, degree, clean)

    @staticmethod
    def scalar(field: FunctionField, value: RatFunc) -> "DiffForm":
        return DiffForm.from_coeffs(field, 0, {(): value})

    @staticmethod
    def basis(field: FunctionField, indices: Sequence[int]) -> "DiffForm":
        """dx_{i1} ^ ... ^ dx_{in} for strictly increasing indices."""
        return DiffForm.from_coeffs(field, len(indices), {tuple(indices): field.one()})

    def is_zero(self) -> bool:
        return not self.coeffs

    def scalar_value(self) -> RatFunc:
        if self.degree != 0:
            raise DegreeMismatch("not a degree-0 form")
        return self.coeffs.get((), self.field.zero())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, DiffForm)
            and self.field == other.field
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if self.is_zero():
            return f"0[{self.degree}]"
        names = self.field.vars
        parts = []
        for idx in sorted(self.coeffs):
            basis = "^".join(f"d{names[i]}" for i in idx) if idx else "1"
            parts.append(f"({self.coeffs[idx]!r}) {basis}")
        return " + ".join(parts)

    # -- linear structure ----------------------------------------------------

    def _check(self, other: "DiffForm") -> None:
        if self.field != other.field:
            raise FieldMismatch(f"{self.field} vs {other.field}")
        if self.degree != other.degree:
            raise DegreeMismatch(f"degree {self.degree} vs {other.degree}")

    def __add__(self, other: "DiffForm") -> "DiffForm":
        self._check(other)
        out = dict(self.coeffs)
        for idx, c in other.coeffs.items():
            accumulate(out, idx, c)
        return DiffForm(self.field, self.degree, out)

    def __neg__(self) -> "DiffForm":
        return DiffForm(self.field, self.degree, {i: -c for i, c in self.coeffs.items()})

    def __sub__(self, other: "DiffForm") -> "DiffForm":
        return self + (-other)

    def scale(self, c: RatFunc) -> "DiffForm":
        if c.is_zero():
            return DiffForm.zero(self.field, self.degree)
        out = {}
        for idx, a in self.coeffs.items():
            v = a * c
            if not v.is_zero():
                out[idx] = v
        return DiffForm(self.field, self.degree, out)


# -- multiplicative structure ----------------------------------------------


def wedge(a: DiffForm, b: DiffForm) -> DiffForm:
    """Exterior product; bilinear, alternating, associative."""
    if a.field != b.field:
        raise FieldMismatch(f"{a.field} vs {b.field}")
    degree = a.degree + b.degree
    field = a.field
    if degree > field.nvars:
        return DiffForm.zero(field, degree)
    out: dict = {}
    for ia, ca in a.coeffs.items():
        for ib, cb in b.coeffs.items():
            merged, sign = _merge_sign(ia, ib)
            if merged is None:
                continue
            v = ca * cb
            accumulate(out, merged, v if sign > 0 else -v)
    return DiffForm(field, degree, out)


def d(omega: DiffForm) -> DiffForm:
    """Exterior derivative via formal partials; d(d(omega)) = 0."""
    field = omega.field
    n = omega.degree
    if n >= field.nvars:
        return DiffForm.zero(field, n + 1)
    out: dict = {}
    for idx, a in omega.coeffs.items():
        for i in range(field.nvars):
            da = partial(a, i)
            if da.is_zero():
                continue
            merged, sign = _merge_sign((i,), idx)
            if merged is None:
                continue
            accumulate(out, merged, da if sign > 0 else -da)
    return DiffForm(field, n + 1, out)


def dlog(a: RatFunc) -> DiffForm:
    """Logarithmic differential da/a of a nonzero element."""
    if a.is_zero():
        raise ZeroDivisionError("dlog of zero")
    return d(DiffForm.scalar(a.field, a)).scale(a.inv())


def dlog_wedge(field: FunctionField, elems: Sequence[RatFunc]) -> DiffForm:
    """dlog a_1 ^ ... ^ dlog a_n; the scalar 1 for no elements."""
    out = DiffForm.scalar(field, field.one())
    for a in elems:
        out = wedge(out, dlog(a))
    return out


# -- logarithmic view and semilinear maps ------------------------------------


def _index_monomial(field: FunctionField, idx: tuple[int, ...]) -> RatFunc:
    exps = [0] * field.nvars
    for i in idx:
        exps[i] = 1
    return RatFunc(field, field.monomial(tuple(exps)), field.const_poly(1))


def to_log(omega: DiffForm) -> dict:
    """Coefficients with respect to the dlog basis (coeff times x_sigma)."""
    return {
        idx: a * _index_monomial(omega.field, idx) for idx, a in omega.coeffs.items()
    }


def from_log(field: FunctionField, degree: int, log_coeffs: dict) -> DiffForm:
    """The form with these nonzero coefficients in the dlog basis."""
    out = {idx: c / _index_monomial(field, idx) for idx, c in log_coeffs.items()}
    return DiffForm(field, degree, out)


def sp(omega: DiffForm) -> DiffForm:
    """Raise logarithmic coefficients to the p-th power (omega^[p])."""
    log = to_log(omega)
    return from_log(
        omega.field, omega.degree, {idx: c.frobenius_power() for idx, c in log.items()}
    )


def sp_iter(omega: DiffForm, t: int) -> DiffForm:
    for _ in range(t):
        omega = sp(omega)
    return omega


def wp(omega: DiffForm) -> DiffForm:
    """Artin-Schreier map on forms: sp - id (classical a^p - a in degree 0)."""
    return sp(omega) - omega


def _log_grades(omega: DiffForm):
    """(idx, j, g) for each grade j of each logarithmic coefficient, which
    is the sum of g^p x^j over its grades j."""
    for idx, c in to_log(omega).items():
        for j, g in frobenius_decompose(c).items():
            yield idx, j, g


def cartier_raw(omega: DiffForm) -> DiffForm:
    """Grade-0 Frobenius component of logarithmic coefficients.

    Unconditional formula; it inverts sp everywhere and kills exact forms,
    but is only the cohomological inverse on closed forms (use ``cartier``
    for the checked variant).
    """
    zero_j = (0,) * omega.field.nvars
    out = {idx: g for idx, j, g in _log_grades(omega) if j == zero_j}
    return from_log(omega.field, omega.degree, out)


def cartier(omega: DiffForm) -> DiffForm:
    """Cartier operator; requires d(omega) = 0."""
    if not d(omega).is_zero():
        raise NotClosed("Cartier operator applied to a non-closed form")
    return cartier_raw(omega)


class FormClass(NamedTuple):
    """Whether a form is closed, exact, and in nu (the kernel of wp modulo
    exact forms)."""

    closed: bool
    exact: bool
    nu: bool


def form_class(omega: DiffForm) -> FormClass:
    """Closed, exact and nu membership from one d and at most one Cartier image.

    exact <=> closed with vanishing Cartier image; nu <=> closed and fixed
    by Cartier.
    """
    if not d(omega).is_zero():
        return FormClass(False, False, False)
    c = cartier_raw(omega)
    return FormClass(True, c.is_zero(), c == omega)


def is_exact(omega: DiffForm) -> bool:
    """omega in d(Omega^(n-1)): closed with vanishing Cartier image."""
    return form_class(omega).exact


def nu_member(omega: DiffForm) -> bool:
    """Kernel of wp modulo exact forms: closed and fixed by Cartier."""
    return form_class(omega).nu


# -- grading and explicit integration ----------------------------------------


def grade_decompose(omega: DiffForm) -> dict[tuple[int, ...], DiffForm]:
    """Split by the Frobenius grade j of the logarithmic coefficients.

    Each piece has logarithmic coefficients of the shape g^p x^j; d preserves
    the grade, so the de Rham complex splits accordingly.
    """
    field = omega.field
    pieces: dict[tuple[int, ...], dict] = {}
    for idx, j, g in _log_grades(omega):
        pieces.setdefault(j, {})[idx] = frobenius_compose(field, {j: g})
    return {
        j: from_log(field, omega.degree, coeffs) for j, coeffs in pieces.items()
    }


def integrate(omega: DiffForm) -> DiffForm:
    """Explicit eta with d(eta) = omega; raises NotExact otherwise.

    On the grade-j piece (j != 0) the differential is exterior multiplication
    by sum_i j_i dlog x_i, so contraction against the dual vector at the
    first index of j is a homotopy and eta is obtained in closed form.
    """
    if omega.degree > 0 and not omega.is_zero() and not d(omega).is_zero():
        raise NotExact("form is not closed")
    return _integrate_closed(omega)


def _integrate_closed(omega: DiffForm) -> DiffForm:
    """``integrate`` of a form its caller knows to be closed: the same
    antiderivative, without taking d(omega)."""
    field = omega.field
    n = omega.degree
    if omega.is_zero():
        return DiffForm.zero(field, n - 1)
    if n == 0:
        raise NotExact("nonzero degree-0 form is never exact")
    p = field.p
    zero_j = (0,) * field.nvars
    eta_log: dict = {}
    for idx, j, g in _log_grades(omega):
        if j == zero_j:
            raise NotExact("closed form with nonzero Cartier image")
        i0 = next(i for i, e in enumerate(j) if e)
        if i0 not in idx:
            continue
        inv = field.inv(j[i0])
        r = idx.index(i0)
        part = frobenius_compose(field, {j: g})
        rest = idx[:r] + idx[r + 1 :]
        accumulate(eta_log, rest, part.scale(inv if r % 2 == 0 else (-inv) % p))
    return from_log(field, n - 1, eta_log)


# -- randomized forms (test support) -----------------------------------------


def random_form(
    field: FunctionField,
    n: int,
    max_degree: int,
    term_count: int,
    seed: int,
    den_pool: Optional[list[MultiPoly]] = None,
) -> DiffForm:
    """Deterministic for a fixed seed; degree bound applies per variable."""
    rng = random.Random(seed)
    return random_form_rng(field, n, max_degree, term_count, rng, den_pool)


def random_form_rng(
    field: FunctionField,
    n: int,
    max_degree: int,
    term_count: int,
    rng: random.Random,
    den_pool: Optional[list[MultiPoly]] = None,
) -> DiffForm:
    if n > field.nvars or n < 0:
        return DiffForm.zero(field, n)
    indices = list(range(field.nvars))
    coeffs: dict = {}
    for _ in range(term_count):
        idx = tuple(sorted(rng.sample(indices, n)))
        c = random_ratfunc(field, rng, max_degree, rng.randint(1, 3), den_pool)
        accumulate(coeffs, idx, c)
    return DiffForm(field, n, coeffs)
