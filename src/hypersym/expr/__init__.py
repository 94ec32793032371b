"""Exact symbolic core: expression trees, packed polynomials, rational
functions with factored denominators, normal forms over the algebraic
symbol tower, and the text parser/printer."""

from .context import Context, default_context, std_context
from .normal import (
    NF,
    deriv_nf,
    nf_add,
    nf_base,
    nf_const,
    nf_equal,
    nf_free_vars,
    nf_inverse,
    nf_is_zero,
    nf_mul,
    nf_neg,
    nf_partial,
    nf_pow,
    nf_scale,
    nf_size,
    nf_sub,
    nf_sum,
    nf_sum_products,
    nf_sym,
    nf_to_expr,
    nf_zero,
    normalize,
)
from .parser import parse, print_expr
from .tree import (
    Add,
    Const,
    Div,
    Expr,
    Mul,
    Name,
    Pow,
    add,
    const,
    div,
    free_names,
    map_names,
    mul,
    name,
    neg,
    pow_,
    sub,
    substitute,
)

__all__ = [
    "Context", "default_context", "std_context",
    "NF", "deriv_nf", "nf_add", "nf_base", "nf_const", "nf_equal",
    "nf_free_vars", "nf_inverse", "nf_is_zero", "nf_mul", "nf_neg",
    "nf_partial", "nf_pow", "nf_scale", "nf_size", "nf_sub", "nf_sum",
    "nf_sum_products", "nf_sym", "nf_to_expr", "nf_zero", "normalize",
    "parse", "print_expr",
    "Add", "Const", "Div", "Expr", "Mul", "Name", "Pow",
    "add", "const", "div", "free_names", "map_names", "mul", "name",
    "neg", "pow_", "sub", "substitute",
]
