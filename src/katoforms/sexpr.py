"""S-expression serialization for field elements, forms and certificates.

Grammar (all printers emit canonical order, so print/parse round-trips are
bit-exact):

    field   (field p (x y ...))
    rat     (rat (poly p (term c (e1 e2 ...)) ...) (poly p ...))
    form    (form n ((idx i1 i2 ...) <rat>) ...)
    cert    (cert (u <form>) (eta <form>) <field>)
    quad    (quad dim ((i j) <rat>) ...)
    bil     (bil dim ((i j) <rat>) ...)

Indices in form tuples are 1-based in the textual format (matching the
variable numbering x_1 < ... < x_m); in memory they are 0-based.

A small infix reader (``parse_form_text``) accepts human notation such as
``x dx`` or ``dX^dY`` for CLI convenience; the S-expression syntax remains
the formal interface.
"""

from __future__ import annotations

import re
from typing import Union

from .errors import ParseError
from .fields import FunctionField, MultiPoly, RatFunc, _grlex_key, ratfunc_normalize
from .forms import DiffForm, wedge

Node = Union[str, list]


# -- generic reader/writer ---------------------------------------------------


def tokenize(text: str) -> list[str]:
    return re.findall(r"[()]|[^\s()]+", text)


def parse_sexpr(text: str) -> Node:
    """The node of one S-expression: an atom, or a list of nodes.

    One left-to-right scan with an explicit stack of the open lists, so any
    nesting depth reads without recursion.
    """
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("unexpected end of input")
    last = len(tokens) - 1
    stack: list[list] = []
    for pos, tok in enumerate(tokens):
        if tok == "(":
            stack.append([])
            continue
        if tok != ")":
            node: Node = tok
        elif stack:
            node = stack.pop()
        else:  # only the first token can close a list that was never opened
            raise ParseError("unexpected ')'")
        if not stack:
            if pos != last:
                raise ParseError("trailing tokens after expression")
            return node
        stack[-1].append(node)
    raise ParseError("unbalanced parentheses")


def _as_int(node: Node, what: str) -> int:
    if not isinstance(node, str):
        raise ParseError(f"expected integer for {what}")
    try:
        return int(node)
    except ValueError as exc:
        raise ParseError(f"expected integer for {what}, got {node!r}") from exc


def _expect_head(node: Node, head: str) -> list:
    if not isinstance(node, list) or not node or node[0] != head:
        raise ParseError(f"expected ({head} ...)")
    return node


# -- field -------------------------------------------------------------------


def print_field(field: FunctionField) -> str:
    return f"(field {field.p} ({' '.join(field.vars)}))"


def field_from_node(node: Node) -> FunctionField:
    items = _expect_head(node, "field")
    if len(items) != 3 or not isinstance(items[2], list):
        raise ParseError("malformed field")
    p = _as_int(items[1], "prime")
    names = [v for v in items[2]]
    if not all(isinstance(v, str) for v in names):
        raise ParseError("malformed variable list")
    return FunctionField.make(p, names)


def parse_field(text: str) -> FunctionField:
    return field_from_node(parse_sexpr(text))


def parse_field_text(text: str) -> FunctionField:
    """Compact field notation: F2(x,y) or GF(3)(x)."""
    text = text.strip()
    if not text.startswith("F"):
        raise ParseError(f"cannot read field {text!r}")
    head, _, rest = text.partition("(")
    if not rest.endswith(")"):
        raise ParseError(f"cannot read field {text!r}")
    try:
        p = int(head[1:])
    except ValueError as exc:
        raise ParseError(f"cannot read characteristic in {text!r}") from exc
    names = [v.strip() for v in rest[:-1].split(",") if v.strip()]
    if not names:
        raise ParseError("field needs at least one variable")
    return FunctionField.make(p, names)


# -- polynomials and rational functions ---------------------------------------


def _print_poly(poly: MultiPoly) -> str:
    terms = poly.terms
    order = sorted(terms, key=_grlex_key, reverse=True) if len(terms) > 1 else terms
    body = "".join([f" (term {terms[exp]} ({' '.join(map(str, exp))}))" for exp in order])
    return f"(poly {poly.field.p}{body})"


def _poly_from_node(node: Node, field: FunctionField) -> MultiPoly:
    items = _expect_head(node, "poly")
    if len(items) < 2:
        raise ParseError("malformed poly")
    p = _as_int(items[1], "poly characteristic")
    if p != field.p:
        raise ParseError(f"poly characteristic {p} does not match field {field.p}")
    terms: dict = {}
    for term in items[2:]:
        titems = _expect_head(term, "term")
        if len(titems) != 3 or not isinstance(titems[2], list):
            raise ParseError("malformed term")
        c = _as_int(titems[1], "coefficient") % p
        exp = tuple(_as_int(e, "exponent") for e in titems[2])
        if len(exp) != field.nvars:
            raise ParseError(
                f"exponent vector length {len(exp)} does not match {field.nvars} variables"
            )
        if any(e < 0 for e in exp):
            raise ParseError("negative exponent")
        if c:
            if exp in terms:
                raise ParseError(f"duplicate exponent vector {exp}")
            terms[exp] = c
    return MultiPoly(field, terms)


def print_ratfunc(f: RatFunc) -> str:
    return f"(rat {_print_poly(f.num)} {_print_poly(f.den)})"


def ratfunc_from_node(node: Node, field: FunctionField) -> RatFunc:
    items = _expect_head(node, "rat")
    if len(items) != 3:
        raise ParseError("malformed rat")
    num = _poly_from_node(items[1], field)
    den = _poly_from_node(items[2], field)
    return ratfunc_normalize(num, den)


def parse_ratfunc(text: str, field: FunctionField) -> RatFunc:
    return ratfunc_from_node(parse_sexpr(text), field)


# -- differential forms --------------------------------------------------------


def print_form(omega: DiffForm) -> str:
    parts = [f"(form {omega.degree}"]
    for idx in sorted(omega.coeffs):
        ones = " ".join(str(i + 1) for i in idx)
        parts.append(f" ((idx {ones}) {print_ratfunc(omega.coeffs[idx])})")
    return "".join(parts) + ")"


def form_from_node(node: Node, field: FunctionField) -> DiffForm:
    items = _expect_head(node, "form")
    if len(items) < 2:
        raise ParseError("malformed form")
    degree = _as_int(items[1], "degree")
    coeffs: dict = {}
    for entry in items[2:]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError("malformed form entry")
        idx_items = _expect_head(entry[0], "idx")
        idx = tuple(_as_int(i, "index") - 1 for i in idx_items[1:])
        coeff = ratfunc_from_node(entry[1], field)
        if idx in coeffs:
            raise ParseError(f"duplicate index tuple {idx}")
        coeffs[idx] = coeff
    return DiffForm.from_coeffs(field, degree, coeffs)


def parse_form(text: str, field: FunctionField) -> DiffForm:
    return form_from_node(parse_sexpr(text), field)


# -- certificates ---------------------------------------------------------------


def print_certificate(cert) -> str:
    return (
        f"(cert (u {print_form(cert.u)}) (eta {print_form(cert.eta)}) "
        f"{print_field(cert.field)})"
    )


def certificate_from_node(node: Node):
    from .certificates import Certificate

    items = _expect_head(node, "cert")
    if len(items) != 4:
        raise ParseError("malformed cert")
    field = field_from_node(items[3])
    u_items = _expect_head(items[1], "u")
    eta_items = _expect_head(items[2], "eta")
    if len(u_items) != 2 or len(eta_items) != 2:
        raise ParseError("malformed cert slots")
    u = form_from_node(u_items[1], field)
    eta = form_from_node(eta_items[1], field)
    return Certificate(u=u, eta=eta, field=field)


def parse_certificate(text: str):
    return certificate_from_node(parse_sexpr(text))


# -- matrices (quadratic / bilinear forms) ---------------------------------------


def _print_matrix(head: str, form) -> str:
    """``(head dim ((i j) entry) ...)`` over the nonzero entries, row by row."""
    parts = [f"({head} {form.dim}"]
    for i, row in enumerate(form.matrix):
        for j, entry in enumerate(row):
            if not entry.is_zero():
                parts.append(f" (({i} {j}) {print_ratfunc(entry)})")
    return "".join(parts) + ")"


def print_quadform(q) -> str:
    return _print_matrix("quad", q)


def print_bilform(b) -> str:
    return _print_matrix("bil", b)


def _matrix_from_node(node: Node, head: str, field: FunctionField):
    items = _expect_head(node, head)
    if len(items) < 2:
        raise ParseError(f"malformed {head}")
    dim = _as_int(items[1], "dimension")
    rows = [[field.zero() for _ in range(dim)] for _ in range(dim)]
    for entry in items[2:]:
        if not isinstance(entry, list) or len(entry) != 2:
            raise ParseError(f"malformed {head} entry")
        pos = entry[0]
        if not isinstance(pos, list) or len(pos) != 2:
            raise ParseError(f"malformed {head} position")
        i = _as_int(pos[0], "row")
        j = _as_int(pos[1], "column")
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError("matrix position out of range")
        rows[i][j] = ratfunc_from_node(entry[1], field)
    return dim, rows


def quadform_from_node(node: Node, field: FunctionField):
    from .witt import QuadForm

    dim, rows = _matrix_from_node(node, "quad", field)
    return QuadForm(field, dim, rows)


def parse_quadform(text: str, field: FunctionField):
    return quadform_from_node(parse_sexpr(text), field)


def bilform_from_node(node: Node, field: FunctionField):
    from .witt import BilForm

    dim, rows = _matrix_from_node(node, "bil", field)
    return BilForm(field, dim, rows)


def parse_bilform(text: str, field: FunctionField):
    return bilform_from_node(parse_sexpr(text), field)


# -- human-readable form expressions ----------------------------------------------


# an operator, a parenthesis or a word (letters, digits, ``_``), or any
# other character, which is refused
_EXPR_TOKEN = re.compile(r"\s*(?:([-+*/^()]|\w+)|(\S))")


def _lex_expr(text: str) -> list[str]:
    out = []
    for tok, bad in _EXPR_TOKEN.findall(text):
        if bad:
            raise ParseError(f"unexpected character {bad!r}")
        out.append(tok)
    return out


# parentheses and unary minus signs an infix expression may nest; each level
# of parentheses takes four frames of the recursive descent, so this keeps a
# reader far below the interpreter's recursion limit
MAX_EXPR_NESTING = 100


class _ExprParser:
    """Infix reader producing a DiffForm (scalars are degree-0 forms).

    ``*`` and juxtaposition multiply (wedge for positive-degree operands),
    ``^`` is exponentiation on scalars and the wedge on differentials, and
    ``dNAME`` denotes the differential of the variable NAME.
    """

    def __init__(self, tokens: list[str], field: FunctionField):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.field = field

    def peek(self) -> str | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ParseError("unexpected end of expression")
        self.pos += 1
        return tok

    def parse(self) -> DiffForm:
        value = self.expr()
        if self.peek() is not None:
            raise ParseError(f"trailing input at {self.peek()!r}")
        return value

    def expr(self) -> DiffForm:
        value = self.product()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.product()
            value = value + rhs if op == "+" else value - rhs
        return value

    def product(self) -> DiffForm:
        value = self.power()
        while True:
            tok = self.peek()
            if tok in ("*", "/"):
                self.take()
                rhs = self.power()
                if tok == "/":
                    if rhs.degree != 0:
                        raise ParseError("cannot divide by a differential form")
                    value = value.scale(rhs.scalar_value().inv())
                else:
                    value = self._mul(value, rhs)
            elif tok is not None and tok not in ("+", "-", ")", "^"):
                rhs = self.power()
                value = self._mul(value, rhs)
            else:
                return value

    def _mul(self, a: DiffForm, b: DiffForm) -> DiffForm:
        if a.degree == 0:
            return b.scale(a.scalar_value())
        if b.degree == 0:
            return a.scale(b.scalar_value())
        return wedge(a, b)

    def power(self) -> DiffForm:
        value = self.atom()
        while self.peek() == "^":
            self.take()
            tok = self.peek()
            if tok is not None and (tok.isdecimal() or tok == "("):
                if tok.isdecimal():
                    n = int(self.take())
                else:
                    rhs = self.atom()
                    if rhs.degree != 0:
                        value = wedge(value, rhs)
                        continue
                    raise ParseError("parenthesized exponents must be integers")
                if value.degree != 0:
                    raise ParseError("cannot raise a differential to a power")
                value = DiffForm.scalar(self.field, value.scalar_value() ** n)
            else:
                rhs = self.atom()
                value = wedge(value, rhs)
        return value

    def atom(self) -> DiffForm:
        tok = self.take()
        if tok in ("(", "-"):
            if self.depth == MAX_EXPR_NESTING:
                raise ParseError(f"expression nested deeper than {MAX_EXPR_NESTING} levels")
            self.depth += 1
            if tok == "(":
                value = self.expr()
                if self.take() != ")":
                    raise ParseError("expected ')'")
            else:
                value = -self.atom()
            self.depth -= 1
            return value
        if tok.isdecimal():
            return DiffForm.scalar(self.field, self.field.const(int(tok)))
        if tok in self.field.vars:
            return DiffForm.scalar(self.field, self.field.var_named(tok))
        if len(tok) > 1 and tok[0] == "d" and tok[1:] in self.field.vars:
            return DiffForm.basis(self.field, (self.field.vars.index(tok[1:]),))
        raise ParseError(f"unknown symbol {tok!r}")


def parse_form_text(text: str, field: FunctionField) -> DiffForm:
    """Read human notation like ``x dx`` or ``dX^dY``; S-expressions also accepted."""
    text = text.strip()
    if text.startswith("(form"):
        return parse_form(text, field)
    return _ExprParser(_lex_expr(text), field).parse()
