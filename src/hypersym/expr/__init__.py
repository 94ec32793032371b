"""Exact symbolic core: expression trees, packed polynomials, rational
functions with factored denominators, normal forms over the algebraic
symbol tower, and the text parser/printer.  Import each name from the
module that defines it (context, tree, poly, ratfunc, normal, parser)."""

# kept for perfbench/selftest.py, which asserts expr.parse is parser.parse
from .parser import parse

__all__ = ["parse"]
