"""Serialization round-trips and the infix form reader."""

import random

import pytest

from katoforms import Certificate, DiffForm, FunctionField, ParseError, dlog
from katoforms import sexpr
from katoforms.fields import random_ratfunc
from katoforms.forms import random_form_rng
from katoforms.witt import BilForm, PfisterSymbol, pfister_quad


def test_field_round_trip(f2xy):
    text = sexpr.print_field(f2xy)
    assert sexpr.parse_field(text) == f2xy
    assert sexpr.print_field(sexpr.parse_field(text)) == text


def test_field_text():
    fld = sexpr.parse_field_text("F2(x,y)")
    assert fld.p == 2 and fld.vars == ("x", "y")
    with pytest.raises(ParseError):
        sexpr.parse_field_text("Q(x)")
    with pytest.raises(ParseError):
        sexpr.parse_field_text("F2()")


def test_ratfunc_round_trip(f3xy, rng):
    pool = [f3xy.const_poly(1), f3xy.var_poly(0), (f3xy.var(0) * f3xy.var(1)).num]
    for _ in range(60):
        f = random_ratfunc(f3xy, rng, 3, 3, pool)
        text = sexpr.print_ratfunc(f)
        back = sexpr.parse_ratfunc(text, f3xy)
        assert back == f
        assert sexpr.print_ratfunc(back) == text


def test_form_round_trip(rng):
    for p, m in [(2, 2), (3, 3)]:
        fld = FunctionField.make(p, [f"x{i}" for i in range(m)])
        for _ in range(40):
            w = random_form_rng(fld, rng.randint(0, m), 2, 2, rng)
            text = sexpr.print_form(w)
            back = sexpr.parse_form(text, fld)
            assert back == w
            assert sexpr.print_form(back) == text


def test_certificate_round_trip(f2xy, rng):
    u = random_form_rng(f2xy, 1, 2, 2, rng)
    eta = random_form_rng(f2xy, 0, 2, 2, rng)
    cert = Certificate(u=u, eta=eta, field=f2xy)
    text = sexpr.print_certificate(cert)
    back = sexpr.parse_certificate(text)
    assert back.u == u and back.eta == eta and back.field == f2xy
    assert sexpr.print_certificate(back) == text


def test_matrix_round_trips(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    q = pfister_quad(PfisterSymbol((y,), x))
    text = sexpr.print_quadform(q)
    back = sexpr.parse_quadform(text, f2xy)
    assert back == q
    assert sexpr.print_quadform(back) == text
    b = BilForm.diagonal(f2xy, [f2xy.one(), x])
    text = sexpr.print_bilform(b)
    assert sexpr.parse_bilform(text, f2xy) == b


def test_malformed_inputs(f2xy):
    for bad in ["((", "(form 1", "(rat)", "(form x)", "(field 2 x)"]:
        with pytest.raises(ParseError):
            sexpr.parse_form(bad, f2xy)


def test_poly_characteristic_checked(f2xy):
    with pytest.raises(ParseError):
        sexpr.parse_ratfunc(
            "(rat (poly 3 (term 1 (0 0))) (poly 3 (term 1 (0 0))))", f2xy
        )


def test_infix_reader(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    dx, dy = DiffForm.basis(f2xy, (0,)), DiffForm.basis(f2xy, (1,))
    assert sexpr.parse_form_text("x dx", f2xy) == dx.scale(x)
    assert sexpr.parse_form_text("dx^dy", f2xy) == DiffForm.basis(f2xy, (0, 1))
    assert sexpr.parse_form_text("dx/x", f2xy) == dlog(x)
    assert sexpr.parse_form_text("x^2 y + y", f2xy) == DiffForm.scalar(
        f2xy, x * x * y + y
    )
    assert sexpr.parse_form_text("(x + y) dy", f2xy) == dy.scale(x + y)
    assert sexpr.parse_form_text("x dy + y dx", f2xy) == dy.scale(x) + dx.scale(y)
    with pytest.raises(ParseError):
        sexpr.parse_form_text("z dx", f2xy)


def test_infix_reader_explicit_products_and_signs(f2xy):
    x, y = f2xy.var(0), f2xy.var(1)
    dx, dy = DiffForm.basis(f2xy, (0,)), DiffForm.basis(f2xy, (1,))
    dxdy = DiffForm.basis(f2xy, (0, 1))
    assert sexpr.parse_form_text("x * dx", f2xy) == dx.scale(x)
    assert sexpr.parse_form_text("dx * x", f2xy) == dx.scale(x)
    assert sexpr.parse_form_text("dx * dy", f2xy) == dxdy
    assert sexpr.parse_form_text("dx^(dy)", f2xy) == dxdy
    assert sexpr.parse_form_text("-x dy", f2xy) == -dy.scale(x)
    assert sexpr.parse_form_text("x - -y", f2xy) == DiffForm.scalar(f2xy, x + y)
    f3 = FunctionField.make(3, ["x"])
    assert sexpr.parse_form_text("-x", f3) == DiffForm.scalar(f3, f3.var(0).scale(2))


@pytest.mark.parametrize(
    "text, message",
    [
        ("x^(2)", "parenthesized exponents must be integers"),
        ("dx^2", "cannot raise a differential to a power"),
        ("x / dy", "cannot divide by a differential form"),
        ("x ! y", "unexpected character '!'"),
        ("x\u00a0!", "unexpected character '!'"),
        # a superscript digit is a digit to str.isdigit but no integer to int()
        ("x + \u00b2", "unknown symbol '\u00b2'"),
        ("x^\u00b2", "unknown symbol '\u00b2'"),
    ],
)
def test_infix_reader_errors(f2xy, text, message):
    with pytest.raises(ParseError) as caught:
        sexpr.parse_form_text(text, f2xy)
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "text, sexpr_tokens, expr_tokens",
    [
        # letters and digits of any script are word characters, as is "_"
        ("\u00e9x_1+2", ["\u00e9x_1+2"], ["\u00e9x_1", "+", "2"]),
        ("x\u00b2 (y)", ["x\u00b2", "(", "y", ")"], ["x\u00b2", "(", "y", ")"]),
        # no-break space and the file separator \x1c are white space
        ("x\u00a0y\x1c(z)", ["x", "y", "(", "z", ")"], ["x", "y", "(", "z", ")"]),
        ("\t(dx^dy)\n", ["(", "dx^dy", ")"], ["(", "dx", "^", "dy", ")"]),
        ("", [], []),
    ],
)
def test_token_lists(text, sexpr_tokens, expr_tokens):
    assert sexpr.tokenize(text) == sexpr_tokens
    assert sexpr._lex_expr(text) == expr_tokens


def test_infix_uppercase_vars():
    fld = FunctionField.make(2, ["X", "Y", "Z"])
    w = sexpr.parse_form_text("dX^dY", fld)
    assert w == DiffForm.basis(fld, (0, 1))


# -- the reader at any depth ------------------------------------------------------


def _recursive_reader(text):
    """The recursive-descent reader that the one-scan reader replaced,
    kept as the reference for shallow inputs."""
    tokens = sexpr.tokenize(text)
    pos = 0

    def rec():
        nonlocal pos
        if pos >= len(tokens):
            raise ParseError("unexpected end of input")
        tok = tokens[pos]
        pos += 1
        if tok == "(":
            items = []
            while pos < len(tokens) and tokens[pos] != ")":
                items.append(rec())
            if pos >= len(tokens):
                raise ParseError("unbalanced parentheses")
            pos += 1
            return items
        if tok == ")":
            raise ParseError("unexpected ')'")
        return tok

    node = rec()
    if pos != len(tokens):
        raise ParseError("trailing tokens after expression")
    return node


def _read(reader, text):
    try:
        return reader(text)
    except ParseError as exc:
        return f"ParseError: {exc}"


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "unexpected end of input"),
        (" \n\t", "unexpected end of input"),
        (")", "unexpected ')'"),
        (") (a)", "unexpected ')'"),
        ("(", "unbalanced parentheses"),
        ("(a (b c)", "unbalanced parentheses"),
        ("((", "unbalanced parentheses"),
        ("a b", "trailing tokens after expression"),
        ("(a))", "trailing tokens after expression"),
        ("(a) (b)", "trailing tokens after expression"),
        ("a )", "trailing tokens after expression"),
        ("() (", "trailing tokens after expression"),
    ],
)
def test_malformed_sexpr_messages(text, message):
    with pytest.raises(ParseError) as caught:
        sexpr.parse_sexpr(text)
    assert str(caught.value) == message
    assert _read(_recursive_reader, text) == f"ParseError: {message}"


def test_reader_matches_the_recursive_reader_on_random_strings():
    gen = random.Random(20261020)
    pieces = ["(", ")", "a", "bc", "12", " ", "  ", "\n"]
    outcomes = set()
    for _ in range(4000):
        text = "".join(gen.choice(pieces) for _ in range(gen.randint(0, 16)))
        if gen.random() < 0.5:  # well-nested strings, which a random draw rarely makes
            text = "(" + text.replace(")", "") + " (x)" * gen.randint(0, 2) + ")" * (
                text.count("(") + 1)
        got = _read(sexpr.parse_sexpr, text)
        assert got == _read(_recursive_reader, text), text
        outcomes.add(got if isinstance(got, str) and got.startswith("ParseError") else "node")
    # every outcome was drawn: a node and each of the four messages
    assert len(outcomes) == 5


def test_reader_takes_any_depth():
    depth = 100000
    node = sexpr.parse_sexpr("(" * depth + "x" + ")" * depth)
    for _ in range(depth):
        assert isinstance(node, list) and len(node) == 1
        node = node[0]
    assert node == "x"
    with pytest.raises(ParseError, match="expected \\(cert ...\\)"):
        sexpr.parse_certificate("(" * 3000 + ")" * 3000)


@pytest.mark.parametrize(
    "text",
    ["(" * 400 + "x" + ")" * 400, "-" * 2000 + "x", "x^" + "(" * 200 + "dx" + ")" * 200,
     "(-" * 60 + "x" + ")" * 60],
    ids=["parentheses", "minus", "exponent", "mixed"],
)
def test_infix_reader_refuses_deep_nesting(f2xy, text):
    with pytest.raises(ParseError) as caught:
        sexpr.parse_form_text(text, f2xy)
    assert str(caught.value) == (
        f"expression nested deeper than {sexpr.MAX_EXPR_NESTING} levels"
    )


def test_infix_reader_takes_nesting_up_to_the_limit(f2xy):
    n = sexpr.MAX_EXPR_NESTING
    x = DiffForm.scalar(f2xy, f2xy.var(0))
    assert sexpr.parse_form_text("(" * n + "x" + ")" * n, f2xy) == x
    assert sexpr.parse_form_text("-" * n + "x", f2xy) == x
    assert sexpr.parse_form_text("(-" * (n // 2) + "x" + ")" * (n // 2), f2xy) == x
