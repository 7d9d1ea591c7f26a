"""Independent bounded brute-force ground truth.

Because a -> a^p is additive in characteristic p, the witness equation

    wp(u) + d(eta) = omega

is F_p-linear in the coefficients of u and eta once those are drawn from a
finite set of candidate functions (monomials up to a degree bound over a
fixed finite set of allowed denominators).  Solving the resulting linear
system over F_p is an exhaustive search of that space: a solution is a
verified certificate, and absence means no witness exists *within the
bounds* — a semi-decision, never an unqualified negative.

This module is deliberately independent of the constructive rewriting in
``certificates``; the two are played against each other in the test suite.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .certificates import Certificate, verify_certificate
from .errors import CertificateFailed, DegreeMismatch
from .fields import (
    FunctionField,
    MultiPoly,
    RatFunc,
    all_monomials,
    poly_exact_div,
    poly_gcd,
    ratfunc_normalize,
)
from .forms import DiffForm, d, wp
from .kernels import gauss_solve

# The shared exact linear solver, exported under its oracle name.
solve_linear_fp = gauss_solve


@dataclass(frozen=True)
class SearchBounds:
    """Finite candidate space: numerator degree bound and allowed denominators."""

    max_degree: int
    denominators: tuple[MultiPoly, ...] = dc_field(default=())

    def describe(self) -> str:
        dens = ", ".join(repr(dn) for dn in self.denominators) or "1"
        return f"numerator total degree <= {self.max_degree}, denominators {{{dens}}}"

    def candidate_functions(self, field: FunctionField) -> list[RatFunc]:
        dens = list(self.denominators) or [field.const_poly(1)]
        seen = set()
        out = []
        for den in dens:
            for mono in all_monomials(field, self.max_degree):
                f = ratfunc_normalize(mono, den)
                if f.is_zero() or f in seen:
                    continue
                seen.add(f)
                out.append(f)
        return out


def _poly_lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return poly_exact_div(a * b, poly_gcd(a, b)).monic()


def _vectorize(
    forms: Sequence[DiffForm], field: FunctionField
) -> tuple[list[dict], MultiPoly]:
    """Coefficient dictionaries of the forms over one common denominator."""
    common = field.const_poly(1)
    for f in forms:
        for c in f.coeffs.values():
            common = _poly_lcm(common, c.den)
    vecs = []
    for f in forms:
        entries: dict = {}
        for idx, c in f.coeffs.items():
            cleared = c.num * poly_exact_div(common, c.den)
            for exp, coeff in cleared.terms.items():
                entries[(idx, exp)] = coeff
        vecs.append(entries)
    return vecs, common


def _solve_for_combination(
    target: DiffForm, columns: list[tuple[DiffForm, int, object]]
) -> Optional[list[int]]:
    """Coefficients lambda with sum lambda_i * col_i = target, or None."""
    field = target.field
    vecs, _ = _vectorize([c[0] for c in columns] + [target], field)
    col_vecs, target_vec = vecs[:-1], vecs[-1]
    keys = sorted(set().union(target_vec, *col_vecs)) if col_vecs else sorted(target_vec)
    if not keys:
        return [0] * len(columns)
    rows = [[vec.get(key, 0) for vec in col_vecs] for key in keys]
    rhs = [target_vec.get(key, 0) for key in keys]
    return gauss_solve(rows, rhs, field.p)


def solve_wp_plus_d(omega: DiffForm, bounds: SearchBounds) -> Optional[Certificate]:
    """Search for (u, eta) with wp(u) + d(eta) = omega inside the bounds.

    A positive answer always passes verify_certificate; a negative answer is
    relative to the bounds by design.
    """
    field = omega.field
    n = omega.degree
    if n < 0 or n > field.nvars:
        raise DegreeMismatch(f"degree {n} out of range")
    candidates = bounds.candidate_functions(field)
    columns: list[tuple[DiffForm, int, object]] = []
    for idx in itertools.combinations(range(field.nvars), n):
        for fn in candidates:
            basis = DiffForm.from_coeffs(field, n, {idx: fn})
            image = wp(basis)
            if not image.is_zero():
                columns.append((image, 0, (idx, fn)))
    if n >= 1:
        for idx in itertools.combinations(range(field.nvars), n - 1):
            for fn in candidates:
                basis = DiffForm.from_coeffs(field, n - 1, {idx: fn})
                image = d(basis)
                if not image.is_zero():
                    columns.append((image, 1, (idx, fn)))
    sol = _solve_for_combination(omega, columns)
    if sol is None:
        return None
    u = DiffForm.zero(field, n)
    eta = DiffForm.zero(field, n - 1)
    for lam, (_, kind, (idx, fn)) in zip(sol, columns):
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
    candidates = bounds.candidate_functions(field)
    columns: list[tuple[DiffForm, int, object]] = []
    for idx in itertools.combinations(range(field.nvars), n - 1):
        for fn in candidates:
            basis = DiffForm.from_coeffs(field, n - 1, {idx: fn})
            image = d(basis)
            if not image.is_zero():
                columns.append((image, 1, (idx, fn)))
    return _solve_for_combination(omega, columns) is not None


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
