"""The hot kernels: sparse F_p polynomial arithmetic and Gaussian elimination.

Polynomial terms are plain dicts mapping exponent tuples to coefficients
in ``1..p-1``.  Zero coefficients are never stored.
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


def gauss_solve(rows: list, rhs: list, p: int) -> list | None:
    """One solution of ``rows * x = rhs`` over F_p, or None if infeasible.

    Free variables are set to zero, so underdetermined systems still
    return a witness.  Inputs are not modified.
    """
    n = len(rows)
    if n == 0:
        return []
    m = len(rows[0])
    a = [[v % p for v in row] for row in rows]
    b = [v % p for v in rhs]

    pivot_cols = []
    r = 0
    for col in range(m):
        piv = None
        for i in range(r, n):
            if a[i][col]:
                piv = i
                break
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        b[r], b[piv] = b[piv], b[r]
        inv = pow(a[r][col], p - 2, p)
        if inv != 1:
            a[r] = [(v * inv) % p for v in a[r]]
            b[r] = (b[r] * inv) % p
        for i in range(n):
            if i != r and a[i][col]:
                f = a[i][col]
                ri = a[i]
                rr = a[r]
                for j in range(col, m):
                    ri[j] = (ri[j] - f * rr[j]) % p
                b[i] = (b[i] - f * b[r]) % p
        pivot_cols.append(col)
        r += 1
        if r == n:
            break
    for i in range(r, n):
        if b[i] % p:
            return None
    x = [0] * m
    for i, col in enumerate(pivot_cols):
        x[col] = b[i]
    return x
