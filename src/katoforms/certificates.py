"""Machine-checkable congruence certificates modulo wp(Omega^n) + d(Omega^(n-1)).

Class equality in the cokernel of wp is never decided here; it is only ever
*witnessed*.  A certificate is a pair (u, eta) with

    lhs - rhs = wp(u) + d(eta)

as an exact form identity in the ambient field with its fixed variable
p-basis, and ``verify_certificate`` is the sole notion of validity.

Constructive rewriting rules, each producing certificates that verify by
construction:

* ``power_certificate`` — v is congruent to its iterated semilinear power
  sp^i(v); the witness telescopes as u = sum_{j<i} sp^j(v).
* ``monomial_split_certificate`` — a monomial times an exact form splits
  into "element times exact" pieces; the witness is one exact form.
* ``exponent_reduction`` — exponents of the monomial in front of an
  iterated power (dv)^[p^t] are reduced below p^t.  The reduction peels one
  Frobenius digit per recursion step; byproducts land in the analogous
  slots of lower power levels (exponents k mod p^j at level j) and in
  "element times exact" pieces, and the whole identity is exact (u = 0).
  The right-hand side is single-level whenever no byproducts arise.
* ``congruence_witness`` — generic witness search for forms expected to be
  congruent to zero, via a Neumann-type sum of Cartier iterates; results
  are verified before being returned and None means "not found", never
  "refuted".
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from .errors import BadExponent, DegreeMismatch
from .fields import FunctionField, RatFunc
from .forms import (
    DiffForm,
    accumulate,
    cartier_raw,
    d,
    integrate,
    sp,
    sp_iter,
    wp,
)
from .records import Record


class Certificate(Record):
    """Witness pair: lhs - rhs = wp(u) + d(eta) in the ambient field."""

    __slots__ = ("u", "eta", "field")

    @staticmethod
    def trivial(field: FunctionField, degree: int) -> "Certificate":
        return Certificate(
            u=DiffForm.zero(field, degree),
            eta=DiffForm.zero(field, degree - 1),
            field=field,
        )

    def __add__(self, other: "Certificate") -> "Certificate":
        """Certificates compose additively because wp and d are additive."""
        return Certificate(self.u + other.u, self.eta + other.eta, self.field)

    def __neg__(self) -> "Certificate":
        return Certificate(-self.u, -self.eta, self.field)


def verify_certificate(lhs: DiffForm, rhs: DiffForm, cert: Certificate) -> bool:
    """Exact check of lhs - rhs - wp(u) - d(eta) = 0."""
    if lhs.degree != rhs.degree or lhs.degree != cert.u.degree:
        raise DegreeMismatch(
            f"lhs degree {lhs.degree}, rhs degree {rhs.degree}, u degree {cert.u.degree}"
        )
    if cert.eta.degree != cert.u.degree - 1:
        raise DegreeMismatch("eta must have degree one less than u")
    return (lhs - rhs - wp(cert.u) - d(cert.eta)).is_zero()


# -- iterated powers -----------------------------------------------------------


def power_certificate(v: DiffForm, i: int) -> tuple[DiffForm, Certificate]:
    """sp^i(v) together with a witness that it is congruent to v."""
    if i < 0:
        raise BadExponent("power must be nonnegative")
    field = v.field
    u = DiffForm.zero(field, v.degree)
    cur = v
    for _ in range(i):
        u = u + cur
        cur = sp(cur)
    return cur, Certificate(u=u, eta=DiffForm.zero(field, v.degree - 1), field=field)


# -- monomial times exact form ---------------------------------------------------


def monomial(field: FunctionField, bs: Sequence[RatFunc], ks: Sequence[int]) -> RatFunc:
    """prod b_i^k_i, one for no nonzero exponent; a unit vector picks b_j itself."""
    factors = [b**k for b, k in zip(bs, ks) if k]
    return math.prod(factors[1:], start=factors[0]) if factors else field.one()


def pattern_value(
    bs: Sequence[RatFunc], t: int, k: Sequence[int], inst: DiffForm
) -> DiffForm:
    """(prod b^k) (d inst)^[p^t]; at level 0 with k = e_j this is b_j d(inst)."""
    return sp_iter(d(inst), t).scale(monomial(inst.field, bs, k))


def monomial_split_parts(
    bs: Sequence[RatFunc], ks: Sequence[int], v: DiffForm
) -> tuple[list[DiffForm], DiffForm]:
    """Slot forms w_j and eta with prod b^k dv = sum_j b_j d(w_j) + d(eta).

    w_j = k_j b^(k - e_j) v, zero when p divides k_j (a zero exponent
    included), and eta = (1 - sum k_j) b^k v; the identity is checked by
    expanding both sides and is exact, no wp part involved.
    """
    field = v.field
    p = field.p
    parts = [
        v.scale(monomial(field, bs, [k - (l == j) for l, k in enumerate(ks)]).scale(kj))
        if kj % p else DiffForm.zero(field, v.degree)
        for j, kj in enumerate(ks)
    ]
    total = sum(ks) % p
    eta = v.scale(monomial(field, bs, ks).scale((1 - total) % p))
    return parts, eta


def monomial_split_certificate(
    bs: Sequence[RatFunc], ks: Sequence[int], v: DiffForm
) -> tuple[DiffForm, Certificate]:
    """Split b_1^k_1 ... b_r^k_r d(v) into sum_j b_j d(k_j b^(k - e_j) v)."""
    if len(bs) != len(ks):
        raise BadExponent("length mismatch between bases and exponents")
    if any(k < 1 for k in ks):
        raise BadExponent("all exponents must be >= 1")
    field = v.field
    parts, eta = monomial_split_parts(bs, ks, v)
    rhs = DiffForm.zero(field, v.degree + 1)
    for bj, w in zip(bs, parts):
        rhs = rhs + d(w).scale(bj)
    cert = Certificate(u=DiffForm.zero(field, v.degree + 1), eta=eta, field=field)
    return rhs, cert


# -- semilinear power of a differential -------------------------------------------


def sp_differential_shift(b: RatFunc) -> RatFunc:
    """The exact correction x with sp(db) = b^(p-1) db + dx.

    Both sides are closed with Cartier image db, so the difference is exact
    and integrates in closed form.  Variables and p-th powers have zero
    correction.
    """
    field = b.field
    db = d(DiffForm.scalar(field, b))
    delta = sp(db) - db.scale(b ** (field.p - 1))
    if delta.is_zero():
        return field.zero()
    return integrate(delta).scalar_value()


# -- exponent reduction ------------------------------------------------------------


class _Accumulator:
    """Right-hand side under assembly: level slots, linear slots, exact part."""

    def __init__(self, field: FunctionField, nslots: int, vdegree: int):
        self.field = field
        self.levels: dict[int, DiffForm] = {}
        self.linear: list[DiffForm] = [
            DiffForm.zero(field, vdegree) for _ in range(nslots)
        ]
        self.eta = DiffForm.zero(field, vdegree)

    def add_level(self, j: int, w: DiffForm) -> None:
        accumulate(self.levels, j, w)

    def add_linear(self, i: int, w: DiffForm) -> None:
        self.linear[i] = self.linear[i] + w

    def add_eta(self, w: DiffForm) -> None:
        self.eta = self.eta + w


def _absorb_monomial_exact(
    acc: _Accumulator, bs: Sequence[RatFunc], ks: Sequence[int], g: DiffForm
) -> None:
    """Register (prod b^ks) d(g) into linear slots plus an exact remainder."""
    parts, eta = monomial_split_parts(bs, ks, g)
    for j, w in enumerate(parts):
        acc.add_linear(j, w)
    acc.add_eta(eta)


def _pass_level_one(
    acc: _Accumulator, bs: Sequence[RatFunc], ks: Sequence[int], v: DiffForm
) -> DiffForm:
    """Lower all exponents below p at power level 1; returns the final v.

    One step with k_i >= p uses the exact identity (W = b^(k - p e_i),
    c = b^(k - e_i), Z = sp(v), x_i the shift of sp(d b_i)):

        b^k (dv)^[p] = W (d(b_i v))^[p] + b_i d(c Z) - d(b_i c Z) - W d(x_i Z)

    after which v := b_i v and k := k - p e_i.  The final state contributes
    the level-1 term b^(k mod p) (dv)^[p].
    """
    field = v.field
    p = field.p
    ks = list(ks)
    while True:
        try:
            i = next(j for j, k in enumerate(ks) if k >= p)
        except StopIteration:
            return v
        z = sp(v)
        c = monomial(field, bs, [k - 1 if j == i else k for j, k in enumerate(ks)])
        acc.add_linear(i, z.scale(c))
        acc.add_eta(-z.scale(c * bs[i]))
        ks[i] -= p
        x_corr = sp_differential_shift(bs[i])
        if not x_corr.is_zero():
            _absorb_monomial_exact(acc, bs, ks, -z.scale(x_corr))
        v = v.scale(bs[i])


def _reduce(
    acc: _Accumulator, bs: Sequence[RatFunc], ks: Sequence[int], t: int, v: DiffForm
) -> None:
    """Certify b^ks (dv)^[p^t] = sum_j b^(ks mod p^j) (d levels[j])^[p^j]
    + sum_i b_i d(linear[i]) + d(eta), peeling one Frobenius digit per level.
    """
    field = v.field
    p = field.p
    if t == 1:
        acc.add_level(1, _pass_level_one(acc, bs, ks, v))
        return
    low = [k % p for k in ks]
    high = [(k - a) // p for k, a in zip(ks, low)]
    inner = _Accumulator(field, len(bs), v.degree)
    _reduce(inner, bs, high, t - 1, v)
    # apply b^low * sp(.) to the inner identity: level j -> level j+1 with
    # exponents low + p*(high mod p^j) = ks mod p^(j+1), which is exactly the
    # implicit exponent convention of the accumulator
    for j, w in inner.levels.items():
        acc.add_level(j + 1, w)
    for i, w in enumerate(inner.linear):
        if w.is_zero():
            continue
        # b^low b_i^p (dw)^[p]: one more level-one pass brings it to b^low
        ks_i = list(low)
        ks_i[i] += p
        acc.add_level(1, _pass_level_one(acc, bs, ks_i, w))
    if not inner.eta.is_zero():
        # b^low (d eta')^[p] is already a level-1 term
        acc.add_level(1, inner.eta)


class ReductionResult(Record):
    """Certified decomposition of (prod b^k) (d v)^[p^t].

    levels maps j to w_j, standing for (prod b^(k mod p^j)) (d w_j)^[p^j];
    the main slot is level t with exponents q = k mod p^t.  linear_parts
    holds pairs (i, w) standing for b_i d(w).  The certificate witnesses

        lhs = sum_j level_value(j) + sum_i b_i d(w) + wp(u) + d(eta)

    with u = 0.  ``single_level`` reports whether the right-hand side has
    the plain single-(q, omega) shape.
    """

    __slots__ = ("bs", "ks", "t", "source_form", "levels", "linear_parts", "certificate")

    @property
    def field(self) -> FunctionField:
        return self.certificate.field

    @property
    def q(self) -> tuple[int, ...]:
        pt = self.field.p**self.t
        return tuple(k % pt for k in self.ks)

    @property
    def omega(self) -> DiffForm:
        main = self.levels.get(self.t)
        if main is None:
            return DiffForm.zero(self.field, self.source_form.degree)
        return main

    @property
    def single_level(self) -> bool:
        return all(j == self.t for j in self.levels)

    def level_value(self, j: int) -> DiffForm:
        w = self.levels.get(j)
        if w is None:
            return DiffForm.zero(self.field, self.source_form.degree + 1)
        pj = self.field.p**j
        return pattern_value(self.bs, j, [k % pj for k in self.ks], w)

    def lhs_value(self) -> DiffForm:
        return pattern_value(self.bs, self.t, self.ks, self.source_form)

    def rhs_value(self) -> DiffForm:
        out = DiffForm.zero(self.field, self.source_form.degree + 1)
        for j in self.levels:
            out = out + self.level_value(j)
        for i, w in self.linear_parts:
            out = out + d(w).scale(self.bs[i])
        return out


def exponent_reduction(
    bs: Sequence[RatFunc], ks: Sequence[int], t: int, v: DiffForm
) -> ReductionResult:
    """Certified reduction of (prod b^k)(dv)^[p^t] to exponents below p^t.

    Exponents already below p^t come back untouched with a trivial witness.
    """
    if t < 1:
        raise BadExponent("power level t must be >= 1")
    if len(bs) != len(ks):
        raise BadExponent("length mismatch between bases and exponents")
    if any(k < 0 for k in ks):
        raise BadExponent("exponents must be nonnegative")
    field = v.field
    n = v.degree + 1
    if all(k < field.p**t for k in ks):
        return ReductionResult(
            tuple(bs), tuple(ks), t, v, {t: v}, (), Certificate.trivial(field, n)
        )
    acc = _Accumulator(field, len(bs), v.degree)
    _reduce(acc, bs, ks, t, v)
    linear = tuple((i, w) for i, w in enumerate(acc.linear) if not w.is_zero())
    cert = Certificate(u=DiffForm.zero(field, n), eta=acc.eta, field=field)
    return ReductionResult(tuple(bs), tuple(ks), t, v, dict(acc.levels), linear, cert)


# -- generic witness construction ----------------------------------------------


_WITNESS_LIMIT = 64


def congruence_witness(omega: DiffForm) -> Optional[Certificate]:
    """Try to produce a verified witness that omega is congruent to zero.

    Iterates two self-correcting moves: when the running form is not closed
    its differential must be exact and an integration step absorbs it into
    the u slot; when it is closed but not exact, subtracting wp(C(cur))
    replaces the unknown residual witness U by C(U), which shrinks under
    iteration until it stabilizes on a log-fixed form and the remainder
    integrates.  Sound but not complete: the certificate is verified before
    being returned, and None only means "not found", never "refuted".  Each
    step depends on the running form alone, so once a form repeats the loop
    cycles through forms that are not exact and the search stops there.
    """
    field = omega.field
    zero_n = DiffForm.zero(field, omega.degree)
    u_total = zero_n
    cur = omega
    seen: set[DiffForm] = set()
    for _ in range(_WITNESS_LIMIT):
        if cur in seen:
            return None
        seen.add(cur)
        d_cur = d(cur)
        if not d_cur.is_zero():
            # d(cur) is exact, and with d(u0) = -d(cur) the new cur is closed
            # because d o sp = 0
            u0 = -integrate(d_cur)
            u_total = u_total + u0
            cur = cur - wp(u0)
        # cur is closed, so it is exact exactly when C(cur) = 0 (C o d = 0
        # and d o sp = 0 are checked by test_core_identities_random in
        # tests/test_forms.py)
        c = cartier_raw(cur)
        if c.is_zero():
            cert = Certificate(u=u_total, eta=integrate(cur), field=field)
            if not verify_certificate(omega, zero_n, cert):
                return None
            return cert
        u_total = u_total + c
        cur = cur - wp(c)
    return None
