"""The hot kernels: sparse F_p polynomial arithmetic and Gaussian elimination.

Polynomial terms are plain dicts mapping exponent tuples to coefficients
in ``1..p-1``.  Zero coefficients are never stored.  Exact division
(``poly_exact_div``) keeps its remainder in one dict and takes the leading
term off a heap, so each step costs the divisor's other terms, not a new
remainder.  A linear system is sparse too: each row a dict mapping column
indices to coefficients.  Its elimination is recorded once
(``Factorization``) and replayed for each right-hand side, given as a dict
``{row: value}``: a replay runs only the steps its nonzero rows reach and
returns ``{column: value}``.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from operator import add, lt, neg, sub

# Named in every selftest report and in the benchmark's result files.
IMPL_NAME = "python (fallback)"


def poly_add(a: dict, b: dict, p: int) -> dict:
    """Sum of two sparse term dicts over F_p."""
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    out = dict(a)
    for exp, c in b.items():
        s = (out.get(exp, 0) + c) % p
        if s:
            out[exp] = s
        else:
            out.pop(exp, None)
    return out


def poly_mul(a: dict, b: dict, p: int) -> dict:
    """Product of two sparse term dicts over F_p."""
    if not a or not b:
        return {}
    if len(a) > len(b):
        a, b = b, a
    out: dict = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            exp = tuple(x + y for x, y in zip(ea, eb))
            s = (out.get(exp, 0) + ca * cb) % p
            if s:
                out[exp] = s
            else:
                out.pop(exp, None)
    return out


def poly_exact_div(a: dict, b: dict, p: int) -> dict:
    """Quotient of two sparse term dicts over F_p when b divides a; raises
    ValueError when it does not, and ZeroDivisionError when b is empty.

    The exact quotient is unique, so any monomial order gives it; this one
    uses graded lex, the order of ``MultiPoly.leading``.  A monomial
    divisor shifts every term at once.  Otherwise the remainder is one
    dict; its leading term comes off a heap keyed on the negated degree
    and exponent (Johnson 1974; Monagan–Pearce 2007), and each step
    subtracts the quotient term times the divisor's other terms only.
    """
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if len(b) == 1:
        ((eb, cb),) = b.items()
        inv = pow(cb, p - 2, p)
        out = {}
        for e, c in a.items():
            if any(map(lt, e, eb)):
                raise ValueError("inexact polynomial division")
            out[tuple(map(sub, e, eb))] = c * inv % p
        return out
    lead = max(b, key=lambda e: (sum(e), e))
    inv = pow(b[lead], p - 2, p)
    rest = [(e, c) for e, c in b.items() if e != lead]
    rem = dict(a)
    heap = [(-sum(e), tuple(map(neg, e)), e) for e in rem]
    heapify(heap)
    quo = {}
    while heap:
        e = heappop(heap)[2]
        c = rem.pop(e, 0)
        if not c:
            # a stale entry: the term cancelled, or a duplicate came off before
            continue
        if any(map(lt, e, lead)):
            raise ValueError("inexact polynomial division")
        q = tuple(map(sub, e, lead))
        qc = c * inv % p
        quo[q] = qc
        # every new term is below the leading one, so it is still to come off
        for f, v in rest:
            e = tuple(map(add, q, f))
            s = rem.get(e)
            if s is None:
                rem[e] = -qc * v % p
                heappush(heap, (-sum(e), tuple(map(neg, e)), e))
            else:
                s = (s - qc * v) % p
                if s:
                    rem[e] = s
                else:
                    del rem[e]
    return quo


class Factorization:
    """The elimination of a sparse system ``rows * x = rhs`` over F_p,
    recorded once so that each right-hand side only replays it.

    ``rows[i]`` is the sparse row ``{column: coeff}`` with columns in
    ``range(ncols)``; coefficients are read mod p and the rows are not
    modified.

    Elimination runs over the nonzero entries only.  Columns are taken
    from left to right; the pivot of a column is the lightest row not yet
    used as a pivot that has a nonzero entry there (ties go to the lower
    row index), as in structured Gaussian elimination.  The pivot columns
    are therefore the leftmost independent ones, and back-substitution
    gives the unique solution supported on them, whatever rows were chosen.

    Each pivot step is kept, in step order, as (pivot row, inverse of its
    pivot entry, the rows it eliminated, their multipliers), and
    ``step_of[i]`` is the step whose pivot row is i, or None for a row that
    never became a pivot.  For back-substitution each step also keeps
    (its column, its pivot row, the pivot rows whose reduced row
    references that column, their entries there): the transpose of the
    reduced pivot rows, restricted to the pivot columns, since a free
    column's variable is zero.  All of it is frozen after construction,
    so one factorization serves any number of callers.

    ``solve`` takes the right-hand side as ``{row: value}`` and replays
    only what its nonzero rows reach (Gilbert–Peierls 1988).  A step
    changes the right-hand side only through its pivot row, and it writes
    only to rows that become pivots at later steps, so the steps reached
    from the nonzero rows, taken in step order off a heap, are all the
    forward pass needs; a reached step whose pivot entry comes out zero
    writes nothing.  Only the rows it touched can break consistency.
    Back-substitution scatters: a pivot row's reduced row has no column
    left of its own pivot, so walking the reached pivots from the last
    step back, each variable is final when reached, and a nonzero one is
    subtracted along its list, which reaches the pivots of earlier steps.
    So a replay costs the steps and entries the target reaches, not the
    whole system.
    """

    __slots__ = ("p", "ncols", "nrows", "steps", "pivots", "step_of")

    def __init__(self, rows: list, p: int, ncols: int):
        n = len(rows)
        a = [{j: r for j, v in row.items() if (r := v % p)} for row in rows]
        # holders[j]: the rows not yet used as pivots with a nonzero entry in column j
        holders: list[set] = [set() for _ in range(ncols)]
        for i, row in enumerate(a):
            for j in row:
                holders[j].add(i)

        steps = []
        pivots = []
        for col in range(ncols):
            if not holders[col]:
                continue
            r = min(holders[col], key=lambda i: (len(a[i]), i))
            pr = a[r]
            for j in pr:
                holders[j].discard(r)
            inv = pow(pr[col], p - 2, p)
            if inv != 1:
                for j in pr:
                    pr[j] = (pr[j] * inv) % p
            eliminated = list(holders[col])
            factors = []
            for i in eliminated:
                ri = a[i]
                f = ri[col]
                for j, v in pr.items():
                    s = (ri.get(j, 0) - f * v) % p
                    if s:
                        if j not in ri:
                            holders[j].add(i)
                        ri[j] = s
                    elif j in ri:
                        del ri[j]
                        holders[j].discard(i)
                factors.append(f)
            steps.append((r, inv, tuple(eliminated), tuple(factors)))
            pivots.append((col, r))
            if len(pivots) == n:
                break
        # users[col]: (pivot row, entry) for each reduced pivot row with an
        # entry in pivot column col, other than col's own
        users: dict = {col: ([], []) for col, _ in pivots}
        for col, r in pivots:
            for j, v in a[r].items():
                if j != col and j in users:
                    rows_j, entries_j = users[j]
                    rows_j.append(r)
                    entries_j.append(v)
        step_of: list = [None] * n
        for s, (_, r) in enumerate(pivots):
            step_of[r] = s
        self.p = p
        self.ncols = ncols
        self.nrows = n
        self.steps = tuple(steps)
        self.pivots = tuple((col, r, *map(tuple, users[col])) for col, r in pivots)
        self.step_of = tuple(step_of)

    def solve(self, rhs: dict) -> dict | None:
        """One solution ``{column: value}`` for the right-hand side
        ``{row: value}`` (values read mod p), its values nonzero and free
        variables zero, or None if infeasible.  ``rhs`` is not modified;
        a row outside the system raises ValueError."""
        p = self.p
        nrows = self.nrows
        steps = self.steps
        step_of = self.step_of
        b = {}
        reached = []
        for i, v in rhs.items():
            if not 0 <= i < nrows:
                raise ValueError(f"right-hand side at row {i} of {nrows}")
            v %= p
            if v:
                b[i] = v
                s = step_of[i]
                if s is not None:
                    reached.append(s)
        heapify(reached)
        # b holds unreduced values, reduced where they are read
        while reached:
            r, inv, eliminated, factors = steps[heappop(reached)]
            br = b[r] * inv % p
            b[r] = br
            if not br:
                continue
            for i, f in zip(eliminated, factors):
                v = b.get(i)
                if v is None:
                    b[i] = -f * br
                    s = step_of[i]
                    if s is not None:
                        heappush(reached, s)
                else:
                    b[i] = v - f * br
        if any(v % p for i, v in b.items() if step_of[i] is None):
            return None
        # max-heap of the reached steps, last first
        reached = [-s for i in b if (s := step_of[i]) is not None]
        heapify(reached)
        pivots = self.pivots
        x = {}
        while reached:
            col, r, rows, entries = pivots[-heappop(reached)]
            v = b[r] % p
            if not v:
                continue
            x[col] = v
            for i, e in zip(rows, entries):
                w = b.get(i)
                if w is None:
                    b[i] = -e * v
                    heappush(reached, -step_of[i])
                else:
                    b[i] = w - e * v
        return x


def gauss_solve(rows: list, rhs: list, p: int, ncols: int) -> list | None:
    """One solution of ``rows * x = rhs`` over F_p, or None if infeasible:
    the ``Factorization`` of the rows, solved for ``rhs`` as ``{row: value}``
    and returned as a list.

    Free variables are set to zero, so underdetermined systems still return
    a witness of length ``ncols``.  Inputs are not modified.
    """
    if len(rhs) != len(rows):
        raise ValueError(f"{len(rhs)} right-hand sides for {len(rows)} rows")
    sol = Factorization(rows, p, ncols).solve(dict(enumerate(rhs)))
    if sol is None:
        return None
    x = [0] * ncols
    for j, v in sol.items():
        x[j] = v
    return x
