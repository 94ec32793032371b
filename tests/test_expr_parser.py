"""Expression text: parsing, aliases, call resolution, precedence, and the
print/parse round trip."""

import random
from fractions import Fraction

import pytest

from conftest import random_expr
from hypersym.errors import CyclicBindingError, ParseError
from hypersym.expr import normal as N
from hypersym.expr import tree
from hypersym.expr.context import default_context
from hypersym.expr.parser import parse, print_expr, print_nf
from hypersym.expr.tree import Add, Const, Div, Mul, Name, Pow


def nf(ctx, text_or_expr):
    e = (parse(text_or_expr, ctx) if isinstance(text_or_expr, str)
         else text_or_expr)
    return N.normalize(ctx, e)


def assert_same(ctx, a, b):
    assert N.nf_equal(ctx, nf(ctx, a), nf(ctx, b))


def test_aliases_resolve_to_canonical_names(ctx):
    assert_same(ctx, "uy", "v1")
    assert_same(ctx, "uyy", "v2")
    assert_same(ctx, "uyyy", "v3")
    assert_same(ctx, "u0", "u")


def test_known_calls_resolve_to_tower_symbols(ctx):
    for text, name in [("sqrt(u1)", "r"), ("sqrt(uy)", "ry"),
                       ("f(u1)", "f"), ("f(v1)", "fy"),
                       ("fa(uy)", "fa"), ("fa(u1)", "fax"),
                       ("fa(uy + b)", "fb"), ("sqrt(uy + b)", "rb"),
                       ("exp(u)", "E"), ("w(u)", "W"), ("wp(u)", "P"),
                       ("ln(u1)", "L"), ("ln(v1)", "Ly")]:
        got = parse(text, ctx)
        assert isinstance(got, tree.Name) and got.name == name, text


def test_exp_multiples_become_powers(ctx):
    assert_same(ctx, "exp(2*u)", tree.pow_(Name("E"), 2))
    assert_same(ctx, "exp(-2*u)", tree.div(1, tree.pow_(Name("E"), 2)))
    assert_same(ctx, "exp(u)*exp(-2*u)", tree.div(1, Name("E")))


def test_precedence_and_associativity(ctx):
    assert_same(ctx, "2*u1^2", tree.mul(2, tree.pow_(Name("u1"), 2)))
    assert_same(ctx, "(2*u1)^2", tree.mul(4, tree.pow_(Name("u1"), 2)))
    assert_same(ctx, "-u1^2", tree.neg(tree.pow_(Name("u1"), 2)))
    assert_same(ctx, "2 - -3", Const(5))
    assert_same(ctx, "12/3/2", Const(2))  # division is left-associative
    assert_same(ctx, "u1 - u2 - u3",
                tree.sub(tree.sub(Name("u1"), Name("u2")),
                         Name("u3")))
    assert_same(ctx, "2^3", Const(8))
    assert_same(ctx, "1/2*u1", tree.mul(Fraction(1, 2), Name("u1")))


def test_parse_errors(ctx):
    with pytest.raises(ParseError):
        parse("qq3 + u1", ctx)
    with pytest.raises(ParseError):
        parse("(u1 + u2", ctx)
    with pytest.raises(ParseError):
        parse("u1 +", ctx)
    with pytest.raises(ParseError):
        parse("", ctx)
    with pytest.raises(ParseError):
        parse("f(u2)", ctx)  # no registered symbol for this call form
    with pytest.raises(ParseError):
        parse("u1 ^ v1", ctx)  # exponents must be integer literals


@pytest.mark.parametrize("text, message, position", [
    ("u4*u2/0", "constant zero denominator", 5),
    ("u1 + 1/(2 - 2)", "constant zero denominator", 6),
    ("0^-1", "0 raised to a negative power", 1),
    ("u1*(3 - 3)^(-2)", "0 raised to a negative power", 10),
])
def test_constant_zero_denominator_is_a_parse_error(ctx, text, message,
                                                    position):
    """The position is that of the operator that divides by zero."""
    with pytest.raises(ParseError, match=message) as exc:
        parse(text, ctx)
    assert exc.value.position == position


def test_print_parse_round_trip_catalog(catalog, ctx):
    for entry in catalog.list():
        printed = print_expr(entry.expression, ctx)
        again = parse(printed, ctx)
        assert N.nf_equal(ctx, N.normalize(ctx, entry.expression),
                          N.normalize(ctx, again)), entry.id


def test_print_parse_round_trip_tower_forms(ctx):
    samples = [
        "2*fa(uy + b)*sqrt(u1)",
        "(f(u1) - u1)/(2*f(u1)^2)",
        "exp(u) + exp(-2*u)",
        "wp(u)^2 - 4*w(u)^3 - c",
        "-5/4*u1*u2^2 + u3^2/(u1 + 1)",
        "u1*ln(u1) - sqrt(uy)",
    ]
    for text in samples:
        e = parse(text, ctx)
        assert N.nf_equal(ctx, N.normalize(ctx, e),
                          N.normalize(ctx, parse(print_expr(e, ctx), ctx)))


U1, U2, U3, E = Name("u1"), Name("u2"), Name("u3"), Name("E")


@pytest.mark.parametrize("e, text", [
    (Const(-3), "-3"),
    (Add((Const(-3), U1)), "-3 + u1"),
    (Add((U1, Const(-3))), "u1 - 3"),
    (Const(Fraction(-1, 2)), "-1/2"),
    (Add((Const(Fraction(-1, 2)), U1)), "-1/2 + u1"),
    (Add((U1, Const(Fraction(-1, 2)))), "u1 - 1/2"),
    (Mul((Const(-1), U1)), "-u1"),
    (Mul((Const(-1), U1, U2)), "-u1*u2"),
    (Mul((Const(-1), Add((U1, U2)))), "-(u1 + u2)"),
    (Add((Mul((Const(-1), U1)), U3)), "-u1 + u3"),
    (Add((U3, Mul((Const(-1), U1, U2)))), "u3 - u1*u2"),
    (Mul((Const(Fraction(-3, 2)), U1)), "-3/2*u1"),
    (Add((U3, Mul((Const(Fraction(-3, 2)), U1, U2)))), "u3 - 3/2*u1*u2"),
    (Div(Mul((Const(-1), U2)), U3), "(-u2)/u3"),
    (Div(Const(-2), Add((U1, U2))), "(-2)/(u1 + u2)"),
    (Add((U1, Div(Mul((Const(-1), U2)), U3))), "u1 - u2/u3"),
    (Add((U1, Div(Const(Fraction(-5, 3)), U3))), "u1 - 5/3/u3"),
    (Pow(E, 1), "exp(u)"),
    (Pow(E, -1), "exp(-u)"),
    (Pow(E, 3), "exp(3*u)"),
    (Add((U1, Mul((Const(-1), Pow(E, 3))))), "u1 - exp(3*u)"),
    (Pow(U1, -2), "u1^(-2)"),
    (Mul((U2, Pow(U1, -2))), "u2*u1^(-2)"),
    (Name("v1"), "uy"),
    (Name("v2"), "uyy"),
    (Mul((Name("v1"), Pow(Name("v2"), 2))), "uy*uyy^2"),
    (Name("f"), "f(u1)"),
    (Div(Add((Name("f"), Mul((Const(-1), U1)))),
         Mul((Const(2), Pow(Name("f"), 2)))), "(f(u1) - u1)/(2*f(u1)^2)"),
])
def test_printed_text_is_pinned(ctx, e, text):
    """The printer's exact text for each of its branches: signs of leading
    and later constants and products, negated numerators, exp powers,
    negative exponents, jet aliases and call forms."""
    assert print_expr(e, ctx) == text


def test_print_is_deterministic(ctx):
    e = parse("5*mu*(u1 + f(u1))^2*u3 + u2^4/f(u1)^6", ctx)
    assert print_expr(e, ctx) == print_expr(e, ctx)


def tree_route(ctx, a):
    """The text of a normal form printed through its expression tree."""
    return print_expr(N.nf_to_expr(ctx, a), ctx)


def test_print_nf_matches_the_tree_route_on_random_forms(ctx):
    """Seeded normal forms and their quotients by other seeded forms, so
    that denominators and negated numerators occur; each text also parses
    back to its form."""
    rng = random.Random(29)
    names = ["u", "u1", "u2", "v1", "b", "f", "r", "fb", "E", "W"]
    quotients = 0
    for _ in range(120):
        a = nf(ctx, random_expr(rng, names, 3))
        den = nf(ctx, random_expr(rng, names, 2))
        forms = [a, N.nf_mul(ctx, a, N.nf_inverse(ctx, den))] if den else [a]
        for form in forms:
            text = print_nf(form, ctx)
            assert text == tree_route(ctx, form)
            assert N.nf_equal(ctx, nf(ctx, text), form)
            quotients += "/" in text
    assert quotients > 100


@pytest.mark.parametrize("source, text", [
    ("0", "0"),
    ("-sqrt(u1)", "-sqrt(u1)"),
    ("-3*sqrt(u1)*f(u1)", "-3*sqrt(u1)*f(u1)"),
    ("u1 - sqrt(u1)", "-sqrt(u1) + u1"),
    ("-480*w(u)^6*f(u1)*wp(u)", "(-480*w(u)^6)*f(u1)*wp(u)"),
    ("exp(2*u)*u1 - exp(u)", "u1*exp(2*u) - exp(u)"),
    ("fa(uy + b)^2 - u1", "fa(uy + b)^2 - u1"),
    ("(u1 + u2)/(u + 1)", "(u2 + u1)/(u + 1)"),
    ("-u1/(2*u)", "(-u1)/(2*u)"),
    ("-u1/(u + 1) + sqrt(u1)", "sqrt(u1) - u1/(u + 1)"),
    ("(u1 + 1)*sqrt(u1) + u1 + 1", "(u1 + 1)*sqrt(u1) + (u1 + 1)"),
    ("-1/2", "(-1)/2"),
])
def test_print_nf_edge_cases(ctx, source, text):
    """The zero form, constants -1 and -c on a symbol, a negative term
    times symbols, exp powers, a call argument that is a sum, sum
    numerators and denominators, and a sum as the symbol-free coefficient
    of a longer sum."""
    a = nf(ctx, source)
    assert print_nf(a, ctx) == tree_route(ctx, a) == text
    assert N.nf_equal(ctx, nf(ctx, text), a)


def test_tree_printing_renders_each_call_argument_once():
    """print_expr reads a name's text from the context's atom memo, so a
    call argument such as uy + b is rendered once per context."""
    ctx = default_context()
    e = parse("fa(uy + b)^2 + fa(uy + b)*u1", ctx)
    assert print_expr(e, ctx) == "fa(uy + b)^2 + fa(uy + b)*u1"
    assert ctx._atom_texts[("fb", 1)] == ("fa(uy + b)", 4)
    ctx._atom_texts[("fb", 1)] = ("FB", 4)
    assert print_expr(e, ctx) == "FB^2 + FB*u1"


def test_substitute_rejects_cycles_but_not_shifts():
    """Bindings that mention each other would give a result that depends on
    the order of a one-pass substitution; a binding that mentions its own
    name is a shift and substitutes once."""
    u, u1, u2, b = Name("u"), Name("u1"), Name("u2"), Name("b")
    with pytest.raises(CyclicBindingError, match="substitution cycle"):
        tree.substitute(u1 + u2, {"u1": u2, "u2": u1})
    assert tree.substitute(u * u1, {"u": u - b}) == (u - b) * u1
