"""The hot kernels: sparse F_p polynomial arithmetic and Gaussian elimination.

Polynomial terms are plain dicts mapping exponent tuples to coefficients
in ``1..p-1``.  Zero coefficients are never stored.  A linear system is
sparse too: each row a dict mapping column indices to coefficients.  Its
elimination is recorded once (``Factorization``) and replayed for each
right-hand side.
"""

from __future__ import annotations

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

    Each pivot step is kept as (pivot row, inverse of its pivot entry,
    the rows it eliminated, their multipliers), and the rows that never
    became pivots for the consistency check.  For back-substitution each
    pivot is kept, last column first, as (column, row, the pivot rows
    whose reduced row references that column, their entries there): the
    transpose of the reduced pivot rows, restricted to the pivot columns,
    since a free column's variable is zero.  All of it is frozen after
    construction, so one factorization serves any number of callers.

    ``solve`` scatters (Gilbert–Peierls 1988): a pivot row's reduced row
    has no column left of its own pivot, so walking the pivots from the
    last column back, each variable is final when reached, and a nonzero
    one is subtracted along its list.  A zero one costs a single test, so
    back-substitution costs the pivots plus the entries under the nonzero
    variables, not the whole reduced system.
    """

    __slots__ = ("p", "ncols", "nrows", "steps", "pivots", "rest")

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
        back = [(col, r, *map(tuple, users[col])) for col, r in reversed(pivots)]
        pivot_rows = {r for _, r in pivots}
        self.p = p
        self.ncols = ncols
        self.nrows = n
        self.steps = tuple(steps)
        self.pivots = tuple(back)
        self.rest = tuple(i for i in range(n) if i not in pivot_rows)

    def solve(self, rhs: list) -> list | None:
        """One solution for the right-hand side ``rhs`` (read mod p), free
        variables zero, or None if infeasible.  ``rhs`` is not modified.

        The recorded steps act on ``rhs`` alone; a step whose pivot entry
        of the right-hand side is zero changes nothing and is skipped, and
        so is the scatter of a variable that comes out zero.
        """
        if len(rhs) != self.nrows:
            raise ValueError(f"{len(rhs)} right-hand sides for {self.nrows} rows")
        p = self.p
        b = [v % p for v in rhs]
        for r, inv, eliminated, factors in self.steps:
            br = b[r]
            if not br:
                continue
            if inv != 1:
                br = b[r] = (br * inv) % p
            for i, f in zip(eliminated, factors):
                b[i] = (b[i] - f * br) % p
        if any(b[i] for i in self.rest):
            return None
        x = [0] * self.ncols
        for col, r, rows, entries in self.pivots:
            v = b[r] % p
            if v:
                x[col] = v
                for i, e in zip(rows, entries):
                    b[i] -= e * v
        return x


def gauss_solve(rows: list, rhs: list, p: int, ncols: int) -> list | None:
    """One solution of ``rows * x = rhs`` over F_p, or None if infeasible:
    the ``Factorization`` of the rows, solved for ``rhs``.

    Free variables are set to zero, so underdetermined systems still return
    a witness of length ``ncols``.  Inputs are not modified.
    """
    return Factorization(rows, p, ncols).solve(rhs)
