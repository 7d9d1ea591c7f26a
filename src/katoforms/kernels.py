"""The hot kernels: sparse F_p polynomial arithmetic and Gaussian elimination.

Polynomial terms are plain dicts mapping exponent tuples to coefficients
in ``1..p-1``.  Zero coefficients are never stored.  A linear system is
sparse too: each row a dict mapping column indices to coefficients.
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


def gauss_solve(rows: list, rhs: list, p: int, ncols: int) -> list | None:
    """One solution of ``rows * x = rhs`` over F_p, or None if infeasible.

    ``rows[i]`` is the sparse row ``{column: coeff}`` with columns in
    ``range(ncols)``; coefficients and ``rhs`` are read mod p.  Free
    variables are set to zero, so underdetermined systems still return a
    witness of length ``ncols``.  Inputs are not modified.

    Elimination runs over the nonzero entries only.  Columns are taken
    from left to right; the pivot of a column is the lightest row not yet
    used as a pivot that has a nonzero entry there (ties go to the lower
    row index), as in structured Gaussian elimination.  The pivot columns
    are therefore the leftmost independent ones, and back-substitution
    gives the unique solution supported on them, whatever rows were chosen.
    """
    n = len(rows)
    a = [{j: r for j, v in row.items() if (r := v % p)} for row in rows]
    b = [v % p for v in rhs]
    # holders[j]: the rows not yet used as pivots with a nonzero entry in column j
    holders: list[set] = [set() for _ in range(ncols)]
    for i, row in enumerate(a):
        for j in row:
            holders[j].add(i)

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
            b[r] = (b[r] * inv) % p
        for i in list(holders[col]):
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
            b[i] = (b[i] - f * b[r]) % p
        pivots.append((col, r))
        if len(pivots) == n:
            break
    pivot_rows = {r for _, r in pivots}
    if any(b[i] for i in range(n) if i not in pivot_rows):
        return None
    x = [0] * ncols
    for col, r in reversed(pivots):
        x[col] = (b[r] - sum(v * x[j] for j, v in a[r].items() if j != col)) % p
    return x
