"""Independent bounded brute-force ground truth.

Because a -> a^p is additive in characteristic p, the witness equation

    wp(u) + d(eta) = omega

is F_p-linear in the coefficients of u and eta once those are drawn from a
finite set of candidate functions (monomials up to a degree bound over a
fixed finite set of allowed denominators).  Solving the resulting linear
system over F_p is an exhaustive search of that space: a solution is a
verified certificate, and absence means no witness exists *within the
bounds* — a semi-decision, never an unqualified negative.

The system is written over one fixed denominator D = lcm(L^p, denominators
of omega), where L is the lcm of the candidate denominators.  A candidate
is a/b with a a single term, so its images have closed forms over D:

    wp(a/b dx_I) = (a^p x_I^(p-1) - a b^(p-1)) * D/b^p          at I,
    d(a/b dx_J)  = sum_i sign * (d_i a * b - a * d_i b) * D/b^2   at i + J,

and every column is a shifted, scaled copy of a few cofactors computed once
per distinct b; no gcd is taken per column.  A row, dx_I times a monomial,
is one int (``Packing``), so a shift is one integer add, and the columns go
straight into the sparse rows that ``gauss_solve`` takes; no dense matrix is
built.  ``gauss_solve`` eliminates the columns from left to right, so the
pivot columns are the leftmost independent ones and the solution (free
variables zero) does not depend on D, on the row order, on the packing or
on the pivot rows chosen.

This module is deliberately independent of the constructive rewriting in
``certificates``; the two are played against each other in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Optional

from .certificates import Certificate, verify_certificate
from .errors import CertificateFailed, DegreeMismatch, FieldMismatch, ZeroDenominator
from .fields import (
    FunctionField,
    MultiPoly,
    RatFunc,
    all_monomials,
    poly_exact_div,
    poly_gcd,
)
from .forms import DiffForm
from .kernels import gauss_solve


@dataclass(frozen=True)
class SearchBounds:
    """Finite candidate space: numerator degree bound and allowed denominators."""

    max_degree: int
    denominators: tuple[MultiPoly, ...] = dc_field(default=())

    def __post_init__(self) -> None:
        if self.max_degree < 0:
            raise ValueError(f"degree bound {self.max_degree} is negative")

    def describe(self) -> str:
        dens = ", ".join(repr(dn) for dn in self.denominators) or "1"
        return f"numerator total degree <= {self.max_degree}, denominators {{{dens}}}"

    def candidate_functions(self, field: FunctionField) -> list[RatFunc]:
        """Every mono/den in lowest terms, once, in (den, graded-lex) order.

        gcd(x^e, den) = x^min(e, ord(den)), where ord(den) is the largest
        monomial dividing den, so each fraction is reduced without a gcd.
        A fraction is told apart by (numerator exponent, numerator
        coefficient, reduced denominator); each reduced denominator caches
        its hash, so no fraction is hashed whole.
        """
        dens = list(self.denominators) or [field.const_poly(1)]
        exps = [next(iter(mono.terms)) for mono in all_monomials(field, self.max_degree)]
        p = field.p
        seen = set()
        out = []
        for den in dens:
            if den.field != field:
                raise FieldMismatch(f"{den.field} vs {field}")
            if den.is_zero():
                raise ZeroDenominator("zero denominator")
            order = tuple(min(column) for column in zip(*den.terms))
            inv = field.prime.inv(den.leading()[1])
            reduced: dict = {}
            for e in exps:
                g = tuple(map(min, e, order))
                rden = reduced.get(g)
                if rden is None:
                    rden = reduced[g] = MultiPoly(
                        field,
                        {_minus(exp, g): (c * inv) % p for exp, c in den.terms.items()},
                    )
                num = _minus(e, g)
                key = (num, inv, rden)
                if key in seen:
                    continue
                seen.add(key)
                out.append(RatFunc(field, MultiPoly(field, {num: inv}), rden))
        return out


def _minus(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _poly_lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return poly_exact_div(a * b, poly_gcd(a, b)).monic()


def _common_denominator(dens: list[MultiPoly], omega: DiffForm) -> MultiPoly:
    """D = lcm(L^p, denominators of omega), L the lcm of the candidate denominators."""
    lcm = omega.field.const_poly(1)
    for b in dens:
        lcm = _poly_lcm(lcm, b)
    common = lcm.frobenius_power()
    for c in omega.coeffs.values():
        common = _poly_lcm(common, c.den)
    return common


class Packing:
    """The rows of the system as single ints (Monagan–Pearce 2011).

    The row of ``dx_I`` times ``x^e`` is the number with base-``radix``
    digits ``mask(I), e_1, ..., e_m``, where ``mask(I) = sum 2^i`` over
    ``i`` in ``I`` is the top digit.  Keys add like the vectors they pack
    while no digit reaches the radix, so a shift by a monomial is one
    integer add.
    """

    __slots__ = ("nvars", "radix", "units", "top")

    def __init__(self, nvars: int, radix: int):
        self.nvars = nvars
        self.radix = radix
        self.units = [radix ** (nvars - 1 - i) for i in range(nvars)]
        self.top = radix ** nvars

    @classmethod
    def for_system(
        cls, common: MultiPoly, candidates: list[RatFunc], targets: list[dict]
    ) -> "Packing":
        """The radix for the columns over ``common`` and the target terms.

        Every cofactor (D/b^p, D/b, d_i(b) D/b^2) has degree at most
        deg_i(D) in each x_i, and a column shifts it by at most p*k + p - 1
        for its numerator x^k, so the largest digit a row key can reach is
        the larger of that and the largest target exponent.
        """
        p = common.field.p
        top_common = max(max(exp) for exp in common.terms)
        top_num = max((max(next(iter(f.num.terms))) for f in candidates), default=0)
        top_target = max((max(exp) for terms in targets for exp in terms), default=0)
        radix = 1 + max(top_common + p * top_num + p - 1, top_target)
        return cls(common.field.nvars, radix)

    def exp(self, exp: tuple[int, ...]) -> int:
        key = 0
        for e in exp:
            key = key * self.radix + e
        return key

    def slot(self, idx: tuple[int, ...]) -> int:
        mask = 0
        for i in idx:
            mask |= 1 << i
        return mask * self.top

    def terms(self, terms: dict) -> dict:
        return {self.exp(exp): c for exp, c in terms.items()}

    def unpack(self, key: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """(idx, exponent vector) of a packed key."""
        mask, rest = divmod(key, self.top)
        exp = []
        for u in self.units:
            e, rest = divmod(rest, u)
            exp.append(e)
        return tuple(i for i in range(self.nvars) if mask >> i & 1), tuple(exp)


class Cofactors:
    """D/b^p, D/b and d_i(b) * D/b^2 for one candidate denominator b, packed."""

    __slots__ = ("over_bp", "over_b", "d_over_b2")

    def __init__(self, common: MultiPoly, b: MultiPoly, packing: Packing):
        p = b.field.p
        over_bp = poly_exact_div(common, b ** p)
        over_b2 = over_bp * b ** (p - 2)
        self.over_bp = packing.terms(over_bp.terms)
        self.over_b = packing.terms((over_b2 * b).terms)
        self.d_over_b2 = [
            packing.terms((b.partial(i) * over_b2).terms) for i in range(b.field.nvars)
        ]


def _add_shifted(col: dict, terms: dict, shift: int, c: int, p: int) -> None:
    """col[key + shift] += c * terms[key] over F_p, dropping zeros."""
    for key, v in terms.items():
        key += shift
        s = (col.get(key, 0) + c * v) % p
        if s:
            col[key] = s
        else:
            col.pop(key, None)


def wp_column(idx: tuple[int, ...], fn: RatFunc, cof: Cofactors, packing: Packing) -> dict:
    """wp(fn dx_idx) times D as {packed key: coeff}; fn = c x^k / b."""
    p = fn.field.p
    ((k, c),) = fn.num.terms.items()
    packed = packing.exp(k)
    at = packing.slot(idx) + packed
    shift = at + (p - 1) * (packed + sum(packing.units[i] for i in idx))
    # distinct keys stay distinct under one shift: the first copy needs no merging
    col = {key + shift: (c * v) % p for key, v in cof.over_bp.items()}
    _add_shifted(col, cof.over_b, at, -c, p)
    return col


def d_column(idx: tuple[int, ...], fn: RatFunc, cof: Cofactors, packing: Packing) -> dict:
    """d(fn dx_idx) times D as {packed key: coeff}; fn = c x^k / b."""
    p = fn.field.p
    ((k, c),) = fn.num.terms.items()
    at = packing.slot(idx) + packing.exp(k)
    col: dict = {}
    below = 0
    for i in range(fn.field.nvars):
        if i in idx:
            below += 1
            continue
        # dx_i ^ dx_idx = (-1)^below dx_(idx + i), below = #{j in idx : j < i}
        sc = -c if below % 2 else c
        merged = at + (1 << i) * packing.top
        if k[i] % p:
            _add_shifted(col, cof.over_b, merged - packing.units[i], sc * k[i], p)
        _add_shifted(col, cof.d_over_b2[i], merged, -sc, p)
    return col


def _solve_columns(
    omega: DiffForm, bounds: SearchBounds, with_wp: bool
) -> tuple[list[tuple[int, tuple, RatFunc]], Optional[list[int]]]:
    """The columns (kind, idx, fn) with a nonzero image, and the lambda with
    sum lambda_j * image_j = omega, or None if there is none.

    Kind 0 is wp(fn dx_idx), built only ``with_wp``; kind 1 is d(fn dx_idx).
    """
    field = omega.field
    n = omega.degree
    candidates = bounds.candidate_functions(field)
    dens = list(dict.fromkeys(f.den for f in candidates))
    common = _common_denominator(dens, omega)
    targets = {
        idx: (c.num * poly_exact_div(common, c.den)).terms for idx, c in omega.coeffs.items()
    }
    packing = Packing.for_system(common, candidates, list(targets.values()))
    cofactors = {b: Cofactors(common, b, packing) for b in dens}
    columns: list[tuple[int, tuple, RatFunc]] = []
    rows: dict = {}
    kinds = ([(0, n, wp_column)] if with_wp else []) + [(1, n - 1, d_column)]
    for kind, degree, image in kinds:
        if degree < 0:
            continue
        for idx in itertools.combinations(range(field.nvars), degree):
            for fn in candidates:
                vec = image(idx, fn, cofactors[fn.den], packing)
                if not vec:
                    continue
                # transposed on the fly: rows[key] is the sparse row {column: coeff}
                j = len(columns)
                columns.append((kind, idx, fn))
                for key, v in vec.items():
                    row = rows.get(key)
                    if row is None:
                        rows[key] = {j: v}
                    else:
                        row[j] = v
    target = {}
    for idx, terms in targets.items():
        at = packing.slot(idx)
        for exp, v in terms.items():
            target[at + packing.exp(exp)] = v
    # a target key that no column reaches is an empty row: infeasible
    for key in target:
        rows.setdefault(key, {})
    rhs = [target.get(key, 0) for key in rows]
    return columns, gauss_solve(list(rows.values()), rhs, field.p, len(columns))


def solve_wp_plus_d(omega: DiffForm, bounds: SearchBounds) -> Optional[Certificate]:
    """Search for (u, eta) with wp(u) + d(eta) = omega inside the bounds.

    A positive answer always passes verify_certificate; a negative answer is
    relative to the bounds by design.
    """
    field = omega.field
    n = omega.degree
    if n < 0 or n > field.nvars:
        raise DegreeMismatch(f"degree {n} out of range")
    columns, sol = _solve_columns(omega, bounds, with_wp=True)
    if sol is None:
        return None
    u = DiffForm.zero(field, n)
    eta = DiffForm.zero(field, n - 1)
    for lam, (kind, idx, fn) in zip(sol, columns):
        if lam % field.p == 0:
            continue
        piece_degree = n if kind == 0 else n - 1
        piece = DiffForm.from_coeffs(field, piece_degree, {idx: fn.scale(lam)})
        if kind == 0:
            u = u + piece
        else:
            eta = eta + piece
    cert = Certificate(u=u, eta=eta, field=field)
    if not verify_certificate(omega, DiffForm.zero(field, n), cert):
        raise CertificateFailed("oracle solution failed to verify")
    return cert


def exhaustive_exactness(omega: DiffForm, bounds: SearchBounds) -> bool:
    """Search for eta with d(eta) = omega inside the bounds."""
    field = omega.field
    n = omega.degree
    if n < 1 or n > field.nvars:
        return omega.is_zero()
    return _solve_columns(omega, bounds, with_wp=False)[1] is not None


def artin_schreier_search(c: RatFunc, bounds: SearchBounds) -> Optional[RatFunc]:
    """Bounded search for u with u^p - u = c; absence is bound-relative.

    This is the degree-0 specialization of the solver.
    """
    field = c.field
    cert = solve_wp_plus_d(DiffForm.scalar(field, c), bounds)
    if cert is None:
        return None
    return cert.u.scalar_value()
