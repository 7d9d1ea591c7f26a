"""Purely inseparable extensions as explicit, validated re-coordinatizations.

An extension E/F is given by a fresh rational function field E together with
images phi(x_i) in E for the source variables and, per target variable z_j,
a certified identity z_j^(p^n_j) = phi(g_j) with g_j in F.  The identities
are checked symbolically at construction time, which certifies that every
target variable is purely inseparable over the image of F; no membership
search is ever performed.

The adapted case (distinguished source variables x_i mapped to z_i^(p^m_i),
all others fixed, a shape checked against the images at construction time)
is the one for which syntactic kernel tests are available:
a form restricts to zero exactly when every stored index tuple meets the
distinguished set, and the kernel of the restriction on log-fixed forms and
on square classes is read off the Frobenius support.
"""

from __future__ import annotations

import json
from typing import Optional, Union

from .errors import CertificateFailed, FieldMismatch, NotAdapted, ParseError
from .fields import FunctionField, RatFunc, pth_root, subfield_membership
from .forms import DiffForm, d, nu_member, wedge
from . import sexpr
from .records import Record

EXT_FORMAT = "katoforms-ext-1"

_FRESH_NAMES = "uvwrsqabcefgh"


class AdaptedData(Record):
    """Distinguished (variable index, exponent) pairs; indices distinct, m >= 1."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple[tuple[int, int], ...]) -> None:
        idxs = [i for i, _ in pairs]
        if len(set(idxs)) != len(idxs):
            raise ValueError("duplicate distinguished indices")
        if any(m < 1 for _, m in pairs):
            raise ValueError("exponents must be >= 1")
        super().__init__(pairs)

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.pairs)

    def exponent_of(self, i: int) -> Optional[int]:
        for j, m in self.pairs:
            if j == i:
                return m
        return None


class InsepCert(Record):
    """Claim z^(p^n) = phi(g) for a target variable z and g in the source field."""

    __slots__ = ("var", "n", "g")


class ExtensionSpec(Record):
    """Validated embedding of F into a fresh rational function field E.

    ``adapted`` records how the embedding was built; equality and the hash
    ignore it, so equal embeddings are equal however they were made.
    """

    __slots__ = ("source", "target", "images", "insep_certs", "exponent", "adapted")
    _compared = ("source", "target", "images", "insep_certs", "exponent")
    _defaults = {"adapted": None}

    def apply(self, f: RatFunc) -> RatFunc:
        """Pull a source element through the embedding."""
        if f.field != self.source:
            raise FieldMismatch("element does not live over the source field")
        return f.substitute(self.images, self.target)

    def root(self, b: RatFunc, m: int) -> Optional[RatFunc]:
        """The p^m-th root of phi(b) in E, or None when phi(b) has none."""
        root = self.apply(b)
        for _ in range(m):
            root = pth_root(root)
            if root is None:
                return None
        return root


def _verify_certs(
    source: FunctionField,
    target: FunctionField,
    images: tuple[RatFunc, ...],
    certs: tuple[InsepCert, ...],
) -> None:
    if len(images) != source.nvars:
        raise CertificateFailed("one image per source variable required")
    for img in images:
        if img.is_zero():
            raise CertificateFailed("variable images must be nonzero")
    cert_vars = [c.var for c in certs]
    if sorted(cert_vars) != sorted(target.vars):
        raise CertificateFailed("need exactly one certificate per target variable")
    for cert in certs:
        if cert.n < 0:
            raise CertificateFailed(f"negative exponent for {cert.var}")
        z = target.var_named(cert.var)
        lhs = z ** (source.p ** cert.n)
        rhs = cert.g.substitute(images, target)
        if lhs != rhs:
            raise CertificateFailed(
                f"identity {cert.var}^(p^{cert.n}) = phi(g) fails"
            )


def _verify_adapted(
    source: FunctionField,
    target: FunctionField,
    images: tuple[RatFunc, ...],
    adapted: AdaptedData,
) -> None:
    """The adapted shape: x_i -> z_i^(p^m_i) on distinguished i, z_i elsewhere."""
    if target.nvars != source.nvars:
        raise CertificateFailed("adapted data needs one target variable per source one")
    for i in adapted.indices:
        if not 0 <= i < source.nvars:
            raise CertificateFailed(f"adapted variable index {i} out of range")
    for i, img in enumerate(images):
        m = adapted.exponent_of(i) or 0
        if img != target.var(i) ** (source.p**m):
            raise CertificateFailed(
                f"image of {source.vars[i]} does not match the adapted data"
            )


def build_embedding(
    source: FunctionField,
    target: FunctionField,
    images: tuple[RatFunc, ...],
    insep_certs: tuple[InsepCert, ...],
    adapted: Optional[AdaptedData] = None,
) -> ExtensionSpec:
    """Validate the certificate identities and any adapted data; return the extension."""
    if source.p != target.p:
        raise CertificateFailed("characteristic mismatch")
    _verify_certs(source, target, images, insep_certs)
    if adapted is not None:
        _verify_adapted(source, target, images, adapted)
    exponent = max((c.n for c in insep_certs), default=0)
    return ExtensionSpec(source, target, images, insep_certs, exponent, adapted)


def build_adapted(source: FunctionField, data: AdaptedData) -> ExtensionSpec:
    """Adapted extension: x_i -> z_i^(p^m_i) on distinguished i, identity elsewhere."""
    for i, _ in data.pairs:
        if not 0 <= i < source.nvars:
            raise ValueError(f"variable index {i} out of range")
    taken = set(source.vars)
    fresh_pool = [c for c in _FRESH_NAMES if c not in taken]
    target_names = list(source.vars)
    for i, _ in data.pairs:
        name = fresh_pool.pop(0) if fresh_pool else f"u{i}"
        if name in taken:
            raise ValueError(f"fresh name {name!r} collides")
        taken.add(name)
        target_names[i] = name
    target = FunctionField.make(source.p, target_names)
    images = []
    certs = []
    for i in range(source.nvars):
        m = data.exponent_of(i)
        z = target.var(i)
        if m is None:
            images.append(z)
            certs.append(InsepCert(target_names[i], 0, source.var(i)))
        else:
            images.append(z ** (source.p ** m))
            certs.append(InsepCert(target_names[i], m, source.var(i)))
    return build_embedding(source, target, tuple(images), tuple(certs), adapted=data)


# -- restriction ---------------------------------------------------------------


def restrict(omega: DiffForm, ext: ExtensionSpec) -> DiffForm:
    """Pull a form over F back through the embedding into E.

    Coefficients map through phi and each dx_i expands as
    sum_j (d phi(x_i)/d z_j) dz_j; the operation commutes with d and the
    wedge product.
    """
    if omega.field != ext.source:
        raise FieldMismatch("form does not live over the source field")
    target = ext.target
    dimg = [d(DiffForm.scalar(target, img)) for img in ext.images]
    out = DiffForm.zero(target, omega.degree)
    for idx, a in omega.coeffs.items():
        term = DiffForm.scalar(target, ext.apply(a))
        for i in idx:
            term = wedge(term, dimg[i])
        out = out + term
    return out


# -- kernel tests (adapted case) ------------------------------------------------


def _adapted_data(
    ext_or_data: Union[ExtensionSpec, AdaptedData]
) -> AdaptedData:
    if isinstance(ext_or_data, AdaptedData):
        return ext_or_data
    if ext_or_data.adapted is None:
        raise NotAdapted(
            "syntactic kernel test needs an adapted extension; "
            "use restrict(omega) == 0 for general embeddings"
        )
    return ext_or_data.adapted


def omega_kernel_member(
    omega: DiffForm, ext_or_data: Union[ExtensionSpec, AdaptedData]
) -> bool:
    """Membership in sum_i dx_i ^ Omega^(n-1) over the distinguished indices.

    For adapted extensions this equals restrict(omega) == 0; the test is
    purely syntactic on the stored index tuples.
    """
    data = _adapted_data(ext_or_data)
    distinguished = set(data.indices)
    return all(distinguished & set(idx) for idx in omega.coeffs)


def nu_kernel_member(
    omega: DiffForm, ext_or_data: Union[ExtensionSpec, AdaptedData]
) -> bool:
    """Log-fixed forms killed by restriction: nu membership plus kernel membership."""
    return nu_member(omega) and omega_kernel_member(omega, ext_or_data)


def square_class_kernel(
    f: RatFunc, ext_or_data: Union[ExtensionSpec, AdaptedData]
) -> bool:
    """Does f become a p-th power over E?  Equivalent to f in F^p(x_S)."""
    data = _adapted_data(ext_or_data)
    names = [f.field.vars[i] for i in data.indices]
    return subfield_membership(f, names)


def square_class_kernel_oracle(f: RatFunc, ext: ExtensionSpec) -> bool:
    """Cross-check: p-th root of the restricted element exists over E."""
    return ext.root(f, 1) is not None


# -- JSON interchange ------------------------------------------------------------


def extension_to_json(ext: ExtensionSpec) -> str:
    doc = {
        "format": EXT_FORMAT,
        "p": ext.source.p,
        "source_vars": list(ext.source.vars),
        "target_vars": list(ext.target.vars),
        "images": {
            name: sexpr.print_ratfunc(img)
            for name, img in zip(ext.source.vars, ext.images)
        },
        "certs": [
            {"var": c.var, "n": c.n, "g": sexpr.print_ratfunc(c.g)}
            for c in ext.insep_certs
        ],
    }
    if ext.adapted is not None:
        doc["adapted"] = [[i, m] for i, m in ext.adapted.pairs]
    return json.dumps(doc, indent=2, sort_keys=True)


def extension_from_json(text: str) -> ExtensionSpec:
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nested too deeply
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != EXT_FORMAT:
        raise ParseError(f"expected format tag {EXT_FORMAT!r}")
    try:
        p = int(doc["p"])
        source = FunctionField.make(p, doc["source_vars"])
        target = FunctionField.make(p, doc["target_vars"])
        images = tuple(
            sexpr.parse_ratfunc(doc["images"][name], target) for name in source.vars
        )
        certs = tuple(
            InsepCert(
                var=c["var"], n=int(c["n"]), g=sexpr.parse_ratfunc(c["g"], source)
            )
            for c in doc["certs"]
        )
        adapted = None
        if "adapted" in doc:
            adapted = AdaptedData(tuple((int(i), int(m)) for i, m in doc["adapted"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed extension spec: {exc}") from exc
    return build_embedding(source, target, images, certs, adapted=adapted)
