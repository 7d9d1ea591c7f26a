"""Independent bounded brute-force ground truth.

Because a -> a^p is additive in characteristic p, the witness equation

    wp(u) + d(eta) = omega

is F_p-linear in the coefficients of u and eta once those are drawn from a
finite set of candidate functions (monomials up to a degree bound over a
fixed finite set of allowed denominators).  Solving the resulting linear
system over F_p is an exhaustive search of that space: a solution is a
verified certificate, and absence means no witness exists *within the
bounds* — a semi-decision, never an unqualified negative.

The system is written over one denominator fixed by the bounds alone,
D = L^p, where L is the lcm of the candidate denominators.  A candidate is
a/b with a a single term, so its images have closed forms over D:

    wp(a/b dx_I) = (a^p x_I^(p-1) - a b^(p-1)) * D/b^p          at I,
    d(a/b dx_J)  = sum_i sign * (d_i a * b - a * d_i b) * D/b^2   at i + J,

Every image's denominator divides b^p (p >= 2 covers the b^2 of d), and
b^p divides L^p, so every F_p-combination of the columns is a form whose
coefficients, in lowest terms, have denominators dividing D.  A target
coefficient whose denominator does not divide D is therefore absent within
the bounds at once: no columns are built and nothing is eliminated.  For
any other target, D is also the lcm of L^p and the target's denominators.

Every column is a shifted, scaled copy of a few cofactors computed once
per distinct b; no gcd is taken per column.  A candidate is carried as
(numerator exponent, coefficient, reduced denominator) and becomes a
``RatFunc`` only when it enters a solution, as the reduced fraction
(c * lambda) x^k / b.  A row, dx_I times a monomial, is one int
(``Packing``), so a shift is one integer add, and the columns go straight
into sparse rows {column: coeff}; no dense matrix is built.  The
elimination (``kernels.Factorization``, the one behind ``gauss_solve``)
takes the columns from left to right, so the pivot columns are the
leftmost independent ones and the solution (free variables zero) does not
depend on D, on the row order, on the packing or on the pivot rows chosen.

The system is a function of the bounds: the candidates, D, the packing and
the columns depend on (bounds, field, form degree, with or without wp) and
not on omega, which only picks the right-hand side.  So each system is
built once per bounds value and memoized (``Space``, ``System``) by
``_spaces``, an ``lru_cache`` keyed by the bounds value: equal bounds
share one system, whether or not the caller holds the bounds object, so
in-process callers that make fresh equal bounds for every call, as
``cli.run`` does for each job, build it once.  The memo keeps the 8 most
recently used values and drops the least recently used one beyond that.
The cap of 8 is set by memory.  An entry keeps a ``Space`` per field
and a ``System`` per (form
degree, with_wp) used on it, up to 2 nvars + 1 systems per field.  A
system retains about 1/8 of its build's peak (22 MB against 174 MB at
degree bound 20), so eight values used at one form degree each retain
about one build's peak: on F3(x,y,z) at degree bound 20, n = 2, they
raise a process's peak RSS from 203 MB (one build) to 348 MB, and further
values leave it near 358 MB.  A value used at several form degrees keeps
a system for each.  A system is factored when it is built and keeps only
its columns, its row index and the factorization, not the rows.  Per
call, the target is packed into a right-hand side and the recorded
elimination is replayed on it alone: the pivots and the arithmetic are
those of ``gauss_solve`` on the same rows, so the solution is the same.
Packing a coefficient a/b reads D/b, packed, and the headroom
radix - deg_i(D/b) of each variable from the space's memo of quotients,
checks the degrees of a against that headroom, and forms a * D/b on
packed keys, one int add per pair of terms, with no product polynomial
built.  The memo divides D by b (``kernels.poly_exact_div``) the first
time b is seen and keeps the result only when b divides D, so it holds
at most one entry per monic divisor of D; a b that does not divide D is
absent, as above, and is not kept.  The right-hand side is a dict over
the target's rows alone, and the replay costs only what those rows
reach: the pivot steps reached from them, one test per row outside the
pivots that it touched, and a back-substitution that starts from the
reached pivots and scatters only the nonzero variables; the answer is
assembled from the nonzero lambda alone, in column order.  Each such
test is made as soon as the replay has passed the last step that writes
to the row, so an absent target stops at its first settled
contradiction: y dlog x on F3(x,y) at degree bound 20 reads 3 of the 12
pivot steps it reaches, and a two-key target there reads at most 5 of
the 852.  A target key in no row (an exponent at or above the radix, or
a monomial no column reaches) is absent at once, as the empty row it
would fill is infeasible.  Two threads may both build a missing system,
or both fill a missing quotient; the build and the quotient are
deterministic, a system is frozen once built, and a space's memo of
quotients only grows, up to the divisors of D, so either result serves.
The ``lru_cache`` keeps its own order of use consistent across threads.

This module is deliberately independent of the constructive rewriting in
``certificates``; the two are played against each other in the test suite.
"""

from __future__ import annotations

import functools
import itertools
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
from .forms import DiffForm, accumulate
from .kernels import Factorization
from .records import Record


# (numerator exponent k, coefficient c, denominator b): the reduced fraction c x^k / b
Candidate = tuple[tuple[int, ...], int, MultiPoly]


class SearchBounds(Record):
    """Finite candidate space: numerator degree bound and allowed denominators."""

    __slots__ = ("max_degree", "denominators")

    def __init__(self, max_degree: int, denominators: tuple[MultiPoly, ...] = ()) -> None:
        # bounds key the oracle's memo of systems: hashable, and equal
        # whatever sequence the denominators came in
        if isinstance(max_degree, bool) or not isinstance(max_degree, int):
            raise ValueError(f"degree bound {max_degree!r} is not an integer")
        if max_degree < 0:
            raise ValueError(f"degree bound {max_degree} is negative")
        super().__init__(max_degree, tuple(denominators))

    def candidate_terms(self, field: FunctionField) -> list[Candidate]:
        """Every mono/den in lowest terms, once, in (den, graded-lex) order,
        as (numerator exponent, numerator coefficient, reduced denominator).

        gcd(x^e, den) = x^min(e, ord(den)), where ord(den) is the largest
        monomial dividing den, so each fraction is reduced without a gcd;
        dividing den by a monomial keeps its leading term, so scaling by
        the inverse of its leading coefficient makes it monic.  Each
        reduced denominator caches its hash, so no fraction is hashed whole.
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
            inv = field.inv(den.leading()[1])
            reduced: dict = {}
            for e in exps:
                g = tuple(map(min, e, order))
                rden = reduced.get(g)
                if rden is None:
                    rden = reduced[g] = MultiPoly(
                        field,
                        {_minus(exp, g): (c * inv) % p for exp, c in den.terms.items()},
                    )
                cand = (_minus(e, g), inv, rden)
                if cand in seen:
                    continue
                seen.add(cand)
                out.append(cand)
        return out

    def candidate_functions(self, field: FunctionField) -> list[RatFunc]:
        """The candidates of ``candidate_terms`` as reduced fractions."""
        return [_candidate_value(field, cand, 1) for cand in self.candidate_terms(field)]


def _candidate_value(field: FunctionField, cand: Candidate, lam: int) -> RatFunc:
    """lam times a candidate, lam nonzero mod p: still in lowest terms, so no gcd."""
    k, c, b = cand
    return RatFunc(field, MultiPoly(field, {k: c * lam % field.p}), b)


def _minus(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(x - y for x, y in zip(a, b))


def _poly_lcm(a: MultiPoly, b: MultiPoly) -> MultiPoly:
    return poly_exact_div(a * b, poly_gcd(a, b)).monic()


def _common_denominator(dens: list[MultiPoly]) -> MultiPoly:
    """D = L^p, L the lcm of the candidate denominators."""
    lcm = dens[0].field.const_poly(1)
    for b in dens:
        lcm = _poly_lcm(lcm, b)
    return lcm.frobenius_power()


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
    def for_system(cls, common: MultiPoly, candidates: list[Candidate]) -> "Packing":
        """The radix for the columns over ``common``.

        Every cofactor (D/b^p, D/b, d_i(b) D/b^2) has degree at most
        deg_i(D) in each x_i, and a column shifts it by at most p*k + p - 1
        for its numerator x^k, so no row key has a digit above that.  A
        target exponent at or above the radix is in no row.
        """
        p = common.field.p
        top_common = max(max(exp) for exp in common.terms)
        top_num = max((max(k) for k, _, _ in candidates), default=0)
        return cls(common.field.nvars, 1 + top_common + p * top_num + p - 1)

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


def wp_column(idx: tuple[int, ...], cand: Candidate, cof: Cofactors, packing: Packing) -> dict:
    """wp(c x^k / b dx_idx) times D as {packed key: coeff}; cand = (k, c, b)."""
    k, c, b = cand
    p = b.field.p
    packed = packing.exp(k)
    at = packing.slot(idx) + packed
    shift = at + (p - 1) * (packed + sum(packing.units[i] for i in idx))
    # distinct keys stay distinct under one shift: the first copy needs no merging
    col = {key + shift: (c * v) % p for key, v in cof.over_bp.items()}
    _add_shifted(col, cof.over_b, at, -c, p)
    return col


def d_column(idx: tuple[int, ...], cand: Candidate, cof: Cofactors, packing: Packing) -> dict:
    """d(c x^k / b dx_idx) times D as {packed key: coeff}; cand = (k, c, b)."""
    k, c, b = cand
    p = b.field.p
    at = packing.slot(idx) + packing.exp(k)
    col: dict = {}
    below = 0
    for i in range(packing.nvars):
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


class Space:
    """What the bounds fix over one field: the candidates, their distinct
    denominators, D = L^p, the packing of the row keys, the systems built
    so far, one per (form degree, with_wp), and the quotients of D by the
    target denominators seen so far that divide it."""

    __slots__ = ("candidates", "dens", "common", "packing", "systems", "quotients")

    def __init__(self, bounds: SearchBounds, field: FunctionField):
        self.candidates = bounds.candidate_terms(field)
        self.dens = list(dict.fromkeys(b for _, _, b in self.candidates))
        self.common = _common_denominator(self.dens)
        self.packing = Packing.for_system(self.common, self.candidates)
        self.systems: dict[tuple[int, bool], System] = {}
        # {b: (packed D/b, per-variable headroom)}, b a monic divisor of D
        self.quotients: dict[MultiPoly, tuple[dict, tuple[int, ...]]] = {}

    def system(self, n: int, with_wp: bool) -> "System":
        system = self.systems.get((n, with_wp))
        if system is None:
            system = self.systems[n, with_wp] = System(self, n, with_wp)
        return system

    def target(self, omega: DiffForm) -> Optional[dict]:
        """omega times D as {packed key: coeff}, or None if a coefficient's
        denominator does not divide D or an exponent reaches the radix: no
        combination of columns is omega then (module docstring).

        Each coefficient a/b becomes a * D/b on packed keys, one int add
        per pair of terms.  D/b is divided out and packed the first time b
        is seen, and kept only if b divides D.  Degrees add over a domain,
        so a product exponent reaches the radix exactly when deg_i(a)
        reaches the headroom radix - deg_i(D/b) for some i."""
        packing = self.packing
        quotients = self.quotients
        p = omega.field.p
        target = {}
        for idx, c in omega.coeffs.items():
            entry = quotients.get(c.den)
            if entry is None:
                try:
                    terms = poly_exact_div(self.common, c.den).terms
                except ValueError:
                    return None
                headroom = tuple(packing.radix - max(column) for column in zip(*terms))
                entry = quotients[c.den] = (packing.terms(terms), headroom)
            over_b, headroom = entry
            num = c.num.terms
            if any(max(a) >= h for a, h in zip(zip(*num), headroom)):
                return None
            at = packing.slot(idx)
            product: dict = {}
            for exp, u in num.items():
                shift = at + packing.exp(exp)
                for key, v in over_b.items():
                    key += shift
                    product[key] = product.get(key, 0) + u * v
            for key, v in product.items():
                v %= p
                if v:
                    target[key] = v
        return target


class System:
    """The linear system of one space at form degree n, all but its
    right-hand side: the columns (kind, idx, candidate) with a nonzero
    image, the index of each row key, and the ``Factorization`` of the
    sparse rows {column: coeff}.  The rows themselves are not kept.

    Kind 0 is wp(c x^k/b dx_idx), built only ``with_wp``; kind 1 is d(c x^k/b dx_idx).
    """

    __slots__ = ("columns", "row_index", "factorization")

    def __init__(self, space: Space, n: int, with_wp: bool):
        field = space.common.field
        packing = space.packing
        cofactors = {b: Cofactors(space.common, b, packing) for b in space.dens}
        columns: list[tuple[int, tuple, Candidate]] = []
        rows: dict = {}
        kinds = ([(0, n, wp_column)] if with_wp else []) + [(1, n - 1, d_column)]
        for kind, degree, image in kinds:
            if degree < 0:
                continue
            for idx in itertools.combinations(range(field.nvars), degree):
                for cand in space.candidates:
                    vec = image(idx, cand, cofactors[cand[2]], packing)
                    if not vec:
                        continue
                    # transposed on the fly: rows[key] is the sparse row {column: coeff}
                    j = len(columns)
                    columns.append((kind, idx, cand))
                    for key, v in vec.items():
                        row = rows.get(key)
                        if row is None:
                            rows[key] = {j: v}
                        else:
                            row[j] = v
        self.columns = columns
        self.row_index = {key: i for i, key in enumerate(rows)}
        self.factorization = Factorization(list(rows.values()), field.p, len(columns))

    def rhs(self, target: dict) -> Optional[dict]:
        """The right-hand side ``{row: value}`` of a packed target, or None
        if one of its keys is in no row: an empty row with a nonzero target
        is infeasible."""
        row_index = self.row_index
        rhs = {}
        for key, v in target.items():
            i = row_index.get(key)
            if i is None:
                return None
            rhs[i] = v
        return rhs


@functools.lru_cache(maxsize=8)
def _spaces(bounds: SearchBounds) -> dict:
    """The memo entry {field: Space} of a bounds value."""
    return {}


def _solve_columns(
    omega: DiffForm, bounds: SearchBounds, with_wp: bool
) -> tuple[list[tuple[int, tuple, Candidate]], Optional[dict]]:
    """The columns of the system at the bounds (``System``), and the nonzero
    lambda ``{j: lambda_j}`` with sum lambda_j * image_j = omega, or None if
    there is none."""
    field = omega.field
    memo = _spaces(bounds)
    space = memo.get(field)
    if space is None:
        space = memo[field] = Space(bounds, field)
    target = space.target(omega)
    if target is None:
        return [], None
    system = space.system(omega.degree, with_wp)
    rhs = system.rhs(target)
    if rhs is None:
        return system.columns, None
    return system.columns, system.factorization.solve(rhs)


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
    u: dict = {}
    eta: dict = {}
    # sol holds the nonzero lambda only, reduced mod p
    for j in sorted(sol):
        kind, idx, cand = columns[j]
        accumulate(u if kind == 0 else eta, idx, _candidate_value(field, cand, sol[j]))
    cert = Certificate(u=DiffForm(field, n, u), eta=DiffForm(field, n - 1, eta), field=field)
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
