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
per distinct b; no gcd is taken per column.  ``gauss_solve`` eliminates the
columns from left to right, so the pivot columns are the leftmost
independent ones and the solution (free variables zero) does not depend on
D, on the row order or on the pivot rows chosen.

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
from .forms import DiffForm, _merge_sign
from .kernels import gauss_solve

# The shared exact linear solver, exported under its oracle name.
solve_linear_fp = gauss_solve


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
                if g not in reduced:
                    reduced[g] = MultiPoly(
                        field,
                        {_minus(exp, g): (c * inv) % p for exp, c in den.terms.items()},
                    )
                f = RatFunc(field, MultiPoly(field, {_minus(e, g): inv}), reduced[g])
                if f in seen:
                    continue
                seen.add(f)
                out.append(f)
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


class Cofactors:
    """D/b^p, D/b and d_i(b) * D/b^2 for one candidate denominator b."""

    __slots__ = ("over_bp", "over_b", "d_over_b2")

    def __init__(self, common: MultiPoly, b: MultiPoly):
        p = b.field.p
        over_bp = poly_exact_div(common, b ** p)
        over_b2 = over_bp * b ** (p - 2)
        self.over_bp = over_bp.terms
        self.over_b = (over_b2 * b).terms
        self.d_over_b2 = [(b.partial(i) * over_b2).terms for i in range(b.field.nvars)]


def _add_shifted(
    col: dict, idx: tuple, terms: dict, shift: tuple[int, ...], c: int, p: int
) -> None:
    """col[(idx, exp + shift)] += c * terms[exp] over F_p, dropping zeros."""
    for exp, v in terms.items():
        key = (idx, tuple(e + s for e, s in zip(exp, shift)))
        s = (col.get(key, 0) + c * v) % p
        if s:
            col[key] = s
        else:
            col.pop(key, None)


def wp_column(idx: tuple[int, ...], fn: RatFunc, cof: Cofactors) -> dict:
    """wp(fn dx_idx) times D as {(idx, exp): coeff}; fn = c x^k / b."""
    p = fn.field.p
    ((k, c),) = fn.num.terms.items()
    shift = [p * e for e in k]
    for i in idx:
        shift[i] += p - 1
    col: dict = {}
    _add_shifted(col, idx, cof.over_bp, tuple(shift), c, p)
    _add_shifted(col, idx, cof.over_b, k, -c, p)
    return col


def d_column(idx: tuple[int, ...], fn: RatFunc, cof: Cofactors) -> dict:
    """d(fn dx_idx) times D as {(merged idx, exp): coeff}; fn = c x^k / b."""
    p = fn.field.p
    ((k, c),) = fn.num.terms.items()
    col: dict = {}
    for i in range(fn.field.nvars):
        merged, sign = _merge_sign((i,), idx)
        if merged is None:
            continue
        if k[i] % p:
            shift = tuple(e - (j == i) for j, e in enumerate(k))
            _add_shifted(col, merged, cof.over_b, shift, sign * c * k[i], p)
        _add_shifted(col, merged, cof.d_over_b2[i], k, -sign * c, p)
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
    cofactors = {b: Cofactors(common, b) for b in dens}
    columns: list[tuple[int, tuple, RatFunc]] = []
    vecs: list[dict] = []
    kinds = ([(0, n, wp_column)] if with_wp else []) + [(1, n - 1, d_column)]
    for kind, degree, image in kinds:
        if degree < 0:
            continue
        for idx in itertools.combinations(range(field.nvars), degree):
            for fn in candidates:
                vec = image(idx, fn, cofactors[fn.den])
                if vec:
                    columns.append((kind, idx, fn))
                    vecs.append(vec)
    target = {}
    for idx, c in omega.coeffs.items():
        for exp, v in (c.num * poly_exact_div(common, c.den)).terms.items():
            target[(idx, exp)] = v
    row_of: dict = {}
    for vec in vecs + [target]:
        for key in vec:
            row_of.setdefault(key, len(row_of))
    if not row_of:
        return columns, [0] * len(columns)
    rows = [[0] * len(vecs) for _ in range(len(row_of))]
    for j, vec in enumerate(vecs):
        for key, v in vec.items():
            rows[row_of[key]][j] = v
    rhs = [0] * len(row_of)
    for key, v in target.items():
        rhs[row_of[key]] = v
    return columns, gauss_solve(rows, rhs, field.p)


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

    This is the degree-0 specialization of the solver; ``witt`` exports it
    as ``artin_schreier_solve``.
    """
    field = c.field
    cert = solve_wp_plus_d(DiffForm.scalar(field, c), bounds)
    if cert is None:
        return None
    return cert.u.scalar_value()
