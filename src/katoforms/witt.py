"""Quadratic and bilinear form calculus in characteristic 2.

Quadratic forms are stored as upper-triangular coefficient matrices with
q(v) = v^T M v; the polar form M + M^T is alternating and nonsingularity
means its determinant is nonzero.  Witt-class equality is never decided:
hyperbolicity and metabolicity are always *certified* — by an explicit
chain of isometry matrices ending in a Lagrangian basis, or by an isotropic
vector in dimension two.

The restriction-kernel generators mirror the differential-form ones: for
extension data (b_1, m_1), ..., (b_r, m_r) the kernel of the quadratic Witt
group restriction is generated (as a module over the bilinear Witt ring) by
the two-fold Pfister forms << s, s^(2^t) b^k ]] at the same levels (t, k) as
the form-class generators (<< s, s b_j ]] at level 0, k = e_j), and the
bilinear kernel by the diagonal forms <1, x> for x a square in the extended
field, each with its isotropic vector (y, 1), y = sqrt(phi(x)) in E.  Both
take their roots from the embedding, so they certify over every certified
extension whose data have the roots.  A quadratic generator's chain starts
from ``pfister_quad`` over E and is checked by ``HyperbolicityChain.verify``.

``kato_e`` and ``kato_f`` are the symbol-level maps from Pfister symbols to
logarithmic differential forms; they are transported maps only, with no
well-definedness check across isometric symbols.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from .certificates import monomial
from .errors import CertificateFailed, FieldMismatch
from .extensions import ExtensionSpec
from .fields import FunctionField, RatFunc
from .forms import DiffForm, dlog_wedge
from .generators import Level, Pattern, admissible_level, generator_levels, root_monomial
from .records import Record

Matrix = list  # list of list of RatFunc


class Singular(CertificateFailed):
    """Quadratic form with singular polar form where nonsingularity is needed."""


# -- matrix helpers -----------------------------------------------------------


def _mat_zero(field: FunctionField, n: int, m: int) -> Matrix:
    """n x m zeros; entries are immutable, so every row holds one zero."""
    zero = field.zero()
    return [[zero] * m for _ in range(n)]


def _add(a: RatFunc, b: RatFunc) -> RatFunc:
    """a + b, with no addition when either is zero."""
    if b.is_zero():
        return a
    return b if a.is_zero() else a + b


def _sum(terms: Iterable[RatFunc], field: FunctionField) -> RatFunc:
    """The sum of the nonzero terms, started from the first one, not from zero."""
    total = None
    for term in terms:
        if not term.is_zero():
            total = term if total is None else total + term
    return field.zero() if total is None else total


def _mat_mul(a: Matrix, b: Matrix, field: FunctionField) -> Matrix:
    k = len(b)
    return [
        [_sum((row[l] * b[l][j] for l in range(k)
               if not row[l].is_zero() and not b[l][j].is_zero()), field)
         for j in range(len(b[0]))]
        for row in a
    ]


def _mat_transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def _mat_vec(a: Matrix, v: Sequence[RatFunc], field: FunctionField) -> list[RatFunc]:
    return [_sum((e * vj for e, vj in zip(row, v) if not vj.is_zero()), field) for row in a]


def _pairing(
    m: Matrix, u: Sequence[RatFunc], v: Sequence[RatFunc], field: FunctionField
) -> RatFunc:
    """u^T m v."""
    mv = _mat_vec(m, v, field)
    return _sum((ui * wi for ui, wi in zip(u, mv)), field)


def _rank(rows: Sequence[Sequence[RatFunc]]) -> int:
    """The rank of the rows, by forward elimination."""
    m = [list(row) for row in rows]
    rank = 0
    for col in range(len(m[0]) if m else 0):
        piv = next((r for r in range(rank, len(m)) if not m[r][col].is_zero()), None)
        if piv is None:
            continue
        m[piv], m[rank] = m[rank], m[piv]
        inv = m[rank][col].inv()
        for r in range(rank + 1, len(m)):
            if not m[r][col].is_zero():
                f = m[r][col] * inv
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
    return rank


def _nonsingular(polar: Matrix) -> bool:
    """An alternating matrix is nonsingular when it has even size and full rank."""
    return len(polar) % 2 == 0 and _rank(polar) == len(polar)


# -- forms -------------------------------------------------------------------


class GramForm:
    """A form given by a dim x dim matrix M over a field.  Forms of one
    kind are equal when their matrices are."""

    __slots__ = ("field", "dim", "matrix")

    def __init__(self, field: FunctionField, dim: int, matrix: Matrix):
        if len(matrix) != dim or any(len(row) != dim for row in matrix):
            raise ValueError("matrix shape mismatch")
        if any(e.field != field for row in matrix for e in row):
            raise FieldMismatch(f"a matrix entry is not over {field}")
        self.field = field
        self.dim = dim
        self.matrix = [list(row) for row in matrix]

    def __eq__(self, other: object) -> bool:
        return (
            type(other) is type(self)
            and self.field == other.field
            and self.dim == other.dim
            and self.matrix == other.matrix
        )

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class QuadForm(GramForm):
    """Quadratic form v -> v^T M v, stored with M upper-triangular."""

    __slots__ = ()

    def __init__(self, field: FunctionField, dim: int, matrix: Matrix):
        super().__init__(field, dim, matrix)
        # fold the strict lower triangle onto the upper one: v^T M v only
        # sees M[i][j] + M[j][i]
        zero = field.zero()
        folded = self.matrix
        for i in range(1, dim):
            row = folded[i]
            for j in range(i):
                e = row[j]
                if not e.is_zero():
                    folded[j][i] = folded[j][i] + e
                    row[j] = zero

    @staticmethod
    def binary(field: FunctionField, e: RatFunc, f: RatFunc) -> "QuadForm":
        """[e, f]: the form e X^2 + X Y + f Y^2."""
        return QuadForm(field, 2, [[e, field.one()], [field.zero(), f]])

    @staticmethod
    def hyperbolic_plane(field: FunctionField) -> "QuadForm":
        return QuadForm.binary(field, field.zero(), field.zero())

    def evaluate(self, v: Sequence[RatFunc]) -> RatFunc:
        return _pairing(self.matrix, v, v, self.field)

    def polar_matrix(self) -> Matrix:
        # M is upper-triangular, so off the diagonal one half of M + M^T is zero
        mt = _mat_transpose(self.matrix)
        return [[_add(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.matrix, mt)]

    def polar(self, u: Sequence[RatFunc], v: Sequence[RatFunc]) -> RatFunc:
        return _pairing(self.polar_matrix(), u, v, self.field)

    def is_nonsingular(self) -> bool:
        return _nonsingular(self.polar_matrix())

    def perp(self, other: "QuadForm") -> "QuadForm":
        if self.field != other.field:
            raise FieldMismatch("orthogonal sum over different fields")
        n = self.dim + other.dim
        m = _mat_zero(self.field, n, n)
        for i in range(self.dim):
            for j in range(self.dim):
                m[i][j] = self.matrix[i][j]
        for i in range(other.dim):
            for j in range(other.dim):
                m[self.dim + i][self.dim + j] = other.matrix[i][j]
        return QuadForm(self.field, n, m)

    def scale(self, c: RatFunc) -> "QuadForm":
        return QuadForm(
            self.field, self.dim,
            [[c * e for e in row] for row in self.matrix],
        )


class BilForm(GramForm):
    """Symmetric bilinear form given by its Gram matrix."""

    __slots__ = ()

    def __init__(self, field: FunctionField, dim: int, matrix: Matrix):
        super().__init__(field, dim, matrix)
        for i in range(dim):
            for j in range(i + 1, dim):
                if matrix[i][j] != matrix[j][i]:
                    raise ValueError("Gram matrix must be symmetric")

    @staticmethod
    def diagonal(field: FunctionField, entries: Sequence[RatFunc]) -> "BilForm":
        n = len(entries)
        m = _mat_zero(field, n, n)
        for i, e in enumerate(entries):
            m[i][i] = e
        return BilForm(field, n, m)

    def evaluate(self, u: Sequence[RatFunc], v: Sequence[RatFunc]) -> RatFunc:
        return _pairing(self.matrix, u, v, self.field)


# -- Pfister builders ------------------------------------------------------------


class PfisterSymbol(Record):
    """Slots a_1, ..., a_n (nonzero) and optional quadratic tail b."""

    __slots__ = ("slots", "tail")

    def __init__(self, slots: tuple[RatFunc, ...], tail: Optional[RatFunc] = None) -> None:
        if any(a.is_zero() for a in slots):
            raise ValueError("Pfister slots must be nonzero")
        super().__init__(slots, tail)


def _slot_products(field: FunctionField, slots: Sequence[RatFunc]) -> list[RatFunc]:
    """The products of the subsets of the slots, 1 first: the diagonal of
    << a_1, ..., a_n >>_b, built as <1, a_1> x ... x <1, a_n>."""
    products = [field.one()]
    for a in slots:
        products = products + [c * a for c in products]
    return products


def pfister_bil(sym: PfisterSymbol) -> BilForm:
    """<< a_1, ..., a_n >>_b of dimension 2^n (char 2: <1, a> blocks)."""
    if not sym.slots:
        raise ValueError("bilinear Pfister form needs at least one slot")
    field = sym.slots[0].field
    return BilForm.diagonal(field, _slot_products(field, sym.slots))


def pfister_quad(sym: PfisterSymbol) -> QuadForm:
    """<< a_1, ..., a_n, b ]] of dimension 2^(n+1): iterated q -> q perp a q.

    Built in one matrix: the iteration leaves the blocks c [1, b], one for
    each product c of a subset of the slots, in the order of pfister_bil.
    """
    if sym.tail is None:
        raise ValueError("quadratic Pfister form needs a tail")
    field = sym.tail.field
    coeffs = _slot_products(field, sym.slots)
    m = _mat_zero(field, 2 * len(coeffs), 2 * len(coeffs))
    for i, c in enumerate(coeffs):
        m[2 * i][2 * i] = m[2 * i][2 * i + 1] = c
        m[2 * i + 1][2 * i + 1] = c * sym.tail
    return QuadForm(field, 2 * len(coeffs), m)


# -- invariants and certificates ----------------------------------------------------


def arf(q: QuadForm) -> RatFunc:
    """Arf invariant representative via symplectic block reduction.

    Returns sum a_i b_i for a reduction to perp [a_i, b_i]; equality of the
    class in F/wp(F) is only ever tested through the bounded solver.
    """
    field = q.field
    if field.p != 2:
        raise ValueError("Arf invariant lives in characteristic 2")
    polar = q.polar_matrix()
    if not _nonsingular(polar):
        raise Singular("Arf invariant needs a nonsingular even-dimensional form")
    basis = [
        [field.one() if i == j else field.zero() for j in range(q.dim)]
        for i in range(q.dim)
    ]
    total = field.zero()
    while basis:
        v = basis[0]
        w_idx = next(
            (i for i in range(1, len(basis))
             if not _pairing(polar, v, basis[i], field).is_zero()),
            None,
        )
        if w_idx is None:
            raise Singular("polar form degenerate on the remaining space")
        scale = _pairing(polar, v, basis[w_idx], field).inv()
        w = [scale * c for c in basis[w_idx]]
        total = total + q.evaluate(v) * q.evaluate(w)
        rest = []
        for i, z in enumerate(basis):
            if i == 0 or i == w_idx:
                continue
            zw, zv = _pairing(polar, z, w, field), _pairing(polar, z, v, field)
            rest.append([zc + zw * vc + zv * wc for zc, vc, wc in zip(z, v, w)])
        basis = rest
    return total


class IsometryCert(Record):
    """Invertible T with q2(v) = q1(T v) as a polynomial identity."""

    __slots__ = ("matrix",)


def is_isometry(q1: QuadForm, q2: QuadForm, cert: IsometryCert) -> bool:
    """Check T^T M1 T = M2 modulo alternating matrices, T invertible."""
    if q1.dim != q2.dim or q1.field != q2.field:
        return False
    field = q1.field
    t = [list(row) for row in cert.matrix]
    if len(t) != q1.dim or any(len(row) != q1.dim for row in t):
        return False
    if _rank(t) < q1.dim:
        return False
    delta = _mat_mul(_mat_mul(_mat_transpose(t), q1.matrix, field), t, field)
    for i in range(q1.dim):
        for j in range(q1.dim):
            delta[i][j] = _add(delta[i][j], -q2.matrix[i][j])
    # alternating: symmetric with zero diagonal (char 2)
    for i in range(q1.dim):
        if not delta[i][i].is_zero():
            return False
        for j in range(i + 1, q1.dim):
            if delta[i][j] != delta[j][i]:
                return False
    return True


class LagrangianCert(Record):
    """Half-dimensional totally singular subspace, given by a basis."""

    __slots__ = ("basis",)


def lagrangian_check(q: QuadForm, cert: LagrangianCert) -> bool:
    """q vanishes on the span: q(v_i) = 0, polar(v_i, v_j) = 0, independent."""
    vecs = [list(v) for v in cert.basis]
    if len(vecs) * 2 != q.dim:
        return False
    if any(len(v) != q.dim for v in vecs):
        return False
    if _rank(vecs) != len(vecs):
        return False
    for i, v in enumerate(vecs):
        if not q.evaluate(v).is_zero():
            return False
        for w in vecs[i + 1 :]:
            if not q.polar(v, w).is_zero():
                return False
    return True


def hyperbolic_lagrangian(q: QuadForm) -> LagrangianCert:
    """Lagrangian for a literal orthogonal sum of hyperbolic planes [0,0]."""
    field = q.field
    if q.dim % 2:
        raise Singular("odd dimension")
    hh = QuadForm.hyperbolic_plane(field)
    expected = hh
    for _ in range(q.dim // 2 - 1):
        expected = expected.perp(hh)
    if q != expected:
        raise CertificateFailed("form is not a literal sum of hyperbolic planes")
    basis = []
    for i in range(q.dim // 2):
        v = [field.zero()] * q.dim
        v[2 * i] = field.one()
        basis.append(tuple(v))
    return LagrangianCert(tuple(basis))


# -- kernel generators ------------------------------------------------------------


class WittGenerator(Pattern, Record):
    """One quadratic kernel generator << s, tail ]] at its level (t, k)."""

    __slots__ = ("pairs", "s", "level", "tail", "form")

    @property
    def symbol(self) -> PfisterSymbol:
        return PfisterSymbol(slots=(self.s,), tail=self.tail)


def quad_kernel_generator(
    pairs: Sequence[tuple[RatFunc, int]], s: RatFunc, level: Level
) -> WittGenerator:
    """The generator << s, s^(2^t) b^k ]] at one level (t, k) of the system."""
    pairs = tuple(pairs)
    field = pairs[0][0].field
    if field.p != 2:
        raise ValueError("quadratic Witt kernel generators live in characteristic 2")
    if s.is_zero():
        raise ValueError("s must be nonzero")
    t, k = admissible_level(pairs, level)
    tail = s ** (2**t) * monomial(field, [b for b, _ in pairs], k)
    form = pfister_quad(PfisterSymbol((s,), tail))
    return WittGenerator(pairs, s, (t, k), tail, form)


def quad_kernel_generators(
    pairs: Sequence[tuple[RatFunc, int]], s_list: Sequence[RatFunc]
) -> list[WittGenerator]:
    """Generators << s, s^(2^t) b^k ]] at every level; << s, s b_j ]] at level 0."""
    pairs = tuple(pairs)
    levels = generator_levels(pairs, 2)
    return [quad_kernel_generator(pairs, s, level) for s in s_list for level in levels]


class HyperbolicityChain(Record):
    """Chain of verified isometries ending in a Lagrangian.

    steps are triples (lhs, rhs, T) with rhs = lhs o T; the first rhs is the
    restricted generator and the last lhs carries the Lagrangian.
    """

    __slots__ = ("restricted", "steps", "final_form", "lagrangian")

    def verify(self) -> bool:
        if self.steps and self.steps[0][1] != self.restricted:
            return False
        for (lhs, rhs, cert), nxt in zip(self.steps, self.steps[1:]):
            if nxt[1] != lhs:
                return False
        for lhs, rhs, cert in self.steps:
            if not is_isometry(lhs, rhs, cert):
                return False
        if self.steps and self.steps[-1][0] != self.final_form:
            return False
        return lagrangian_check(self.final_form, self.lagrangian)


def restrict_quad(q: QuadForm, ext: ExtensionSpec) -> QuadForm:
    zero = ext.target.zero()
    return QuadForm(
        ext.target,
        q.dim,
        [[zero if e.is_zero() else ext.apply(e) for e in row] for row in q.matrix],
    )


def hyperbolicity_certificate(
    g: WittGenerator, ext: ExtensionSpec
) -> HyperbolicityChain:
    """Verified hyperbolicity of a kernel generator over the extension.

    Over E the tail becomes w^(2^t) with w = s g0^2 a square multiple of s
    (g0 collects the roots of the b_i).  The chain is: an Arf twist
    << s, w^(2^t) ]] ~ << s, w ]] on both blocks, then a represented-value
    move on the first block and a scaling absorption on the second, landing
    on [s, g0^2] perp [g0^2, s], which carries the diagonal Lagrangian
    {(1,0,0,1), (0,1,1,0)}.  The restricted form is checked only by the
    chain's verify: its first isometry fails unless the restriction is
    << s, w^(2^t) ]].
    """
    t, k = g.level
    g0 = root_monomial(g.pairs, k, t + 1, ext)
    target = ext.target
    one = target.one()
    zero = target.zero()
    q_e = restrict_quad(g.form, ext)
    s_e = ext.apply(g.s)
    w = s_e * g0 * g0
    steps = []
    # step 1: Arf twist with h = sum_{j<t} w^(2^j) on both blocks
    h = zero
    cur = w
    for _ in range(t):
        h = _add(h, cur)
        cur = cur * cur
    phi1 = pfister_quad(PfisterSymbol((s_e,), w))
    t1 = IsometryCert(
        (
            (one, h, zero, zero),
            (zero, one, zero, zero),
            (zero, zero, one, h),
            (zero, zero, zero, one),
        )
    )
    steps.append((phi1, q_e, t1))
    # step 2, recorded from the phi2 side: [s, g0^2] o T_a = [1, s g0^2]
    # with the involution T_a: (x, y) -> (g0 y, x/g0) on the first block,
    # and [g0^2, s] o T_b = s[1, s g0^2] with T_b: (x, y) -> (s y, x) on the
    # second (the scaling absorption read backwards).
    g0_inv = g0.inv()
    phi2 = QuadForm.binary(target, s_e, g0 * g0).perp(
        QuadForm.binary(target, g0 * g0, s_e)
    )
    t2 = IsometryCert(
        (
            (zero, g0, zero, zero),
            (g0_inv, zero, zero, zero),
            (zero, zero, zero, s_e),
            (zero, zero, one, zero),
        )
    )
    steps.append((phi2, phi1, t2))
    lagr = LagrangianCert(((one, zero, zero, one), (zero, one, one, zero)))
    chain = HyperbolicityChain(
        restricted=q_e, steps=tuple(steps), final_form=phi2, lagrangian=lagr
    )
    if not chain.verify():
        raise CertificateFailed("hyperbolicity chain failed to verify")
    return chain


class BilGenerator(Record):
    """Bilinear kernel generator <1, x> with its isotropic vector over E."""

    __slots__ = ("x", "form", "vector")


def bilinear_kernel_generators(
    ext: ExtensionSpec, x_list: Sequence[RatFunc]
) -> list[BilGenerator]:
    """Forms <1, x> for x whose image is a p-th power over E, with verified
    isotropic vectors.

    The vector (y, 1) with y = ext.root(x, 1) satisfies B(v, v) = y^2 + x
    = 0 over E.
    """
    source, target = ext.source, ext.target
    out = []
    for x in x_list:
        if x.is_zero():
            raise CertificateFailed("x must be nonzero")
        y = ext.root(x, 1)
        if y is None:
            raise CertificateFailed(f"{x!r} is not a {source.p}-th power over E")
        form = pfister_bil(PfisterSymbol((x,)))
        vector = (y, target.one())
        form_e = pfister_bil(PfisterSymbol((ext.apply(x),)))
        if not form_e.evaluate(vector, vector).is_zero():
            raise CertificateFailed("isotropic vector failed to verify")
        out.append(BilGenerator(x=x, form=form, vector=vector))
    return out


# -- symbol maps -----------------------------------------------------------------


def kato_e(sym: PfisterSymbol) -> DiffForm:
    """Symbol map on bilinear Pfister symbols: dlog a_1 ^ ... ^ dlog a_n."""
    if sym.tail is not None:
        raise ValueError("kato_e takes a symbol without tail")
    if not sym.slots:
        raise ValueError("empty symbol")
    return dlog_wedge(sym.slots[0].field, sym.slots)


def kato_f(sym: PfisterSymbol) -> DiffForm:
    """Symbol map on quadratic Pfister symbols: b dlog a_1 ^ ... ^ dlog a_n.

    With no slots this is the degree-0 identification through the Arf
    invariant: the symbol [1, b] maps to the scalar b.
    """
    if sym.tail is None:
        raise ValueError("kato_f takes a symbol with tail")
    return dlog_wedge(sym.tail.field, sym.slots).scale(sym.tail)
