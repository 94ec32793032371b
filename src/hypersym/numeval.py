"""Floating-point oracle for the exact engine.

A SamplePoint assigns a double to every base variable and algebraic symbol so
that all defining relations hold to machine precision: free variables are
drawn from the sampling band their definition in the context carries
(bounded away from 0, and from 1 where a logarithm or a root branch would
degenerate), transcendental symbols with a closed form are evaluated from the
head of their call form (exp, ln), dependent symbols are solved from their
minimal polynomials with a deterministic branch choice (largest real root),
and the Weierstrass triple (W, P, c) is closed by defining c = P^2 - 4W^3.
That closure and sc = sqrt(c) are the only symbols sampled by hand here.

Everything here is advisory: the exact normal-form route is authoritative,
and the two routes are kept independent (expression trees evaluated directly,
never through the normal form being tested).  A tree is compiled once per
zero test into a straight-line program over float slots, in which equal
subtrees share one slot, and the program is run at every sample.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from .errors import EvalError, SampleError
from .expr.context import (PARAM, POSITIVE_AWAY_FROM_ONE, SIGNED, TSYM,
                           Context, std_context)
from .expr.ratfunc import rf_eval
from .expr.tree import Add, Const, Div, Expr, Mul, Name, Pow

RELATION_TOL = 1e-12
FD_STEP = 1e-6
FD_TOL = 1e-6
SIMPLE_ROOT_GUARD = 0.1
MAX_ATTEMPTS = 100

# closed forms of transcendental symbols, by the head of their call form
_CALL_FUNCS = {"exp": math.exp, "ln": math.log}


@dataclass
class SamplePoint:
    assignment: Dict[str, float]
    seed: int
    relation_residuals: Dict[str, float] = field(default_factory=dict)

    def __getitem__(self, name: str) -> float:
        try:
            return self.assignment[name]
        except KeyError:
            raise EvalError(f"no value assigned for {name!r}")


def _draw(rng: random.Random, lo: float, hi: float) -> float:
    return lo + (hi - lo) * rng.random()


def _draw_band(rng: random.Random, band: str) -> float:
    """[1/2, 2] (minus (0.9, 1.1) when away from one), mirrored negative
    when signed."""
    if band == POSITIVE_AWAY_FROM_ONE:
        x = _draw(rng, 0.5, 0.9) if rng.random() < 0.5 else _draw(rng, 1.1, 2.0)
    else:
        x = _draw(rng, 0.5, 2.0)
    if band == SIGNED and rng.random() < 0.5:
        x = -x
    return x


def _closed_forms(ctx: Context):
    """(variable, function) for each transcendental symbol with a closed
    form, in registration order."""
    return [(v, _CALL_FUNCS[v.call[0]]) for v in ctx.base_vars
            if v.kind == TSYM and v.call is not None and v.call[0] in _CALL_FUNCS]


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _real_roots(coeffs: Sequence[float]) -> List[float]:
    """Real roots of c0 + c1 x + ... + cd x^d for d in {1, 2, 3}."""
    cs = list(coeffs)
    while cs and abs(cs[-1]) < 1e-300:
        cs.pop()
    d = len(cs) - 1
    if d <= 0:
        return []
    if d == 1:
        return [-cs[0] / cs[1]]
    if d == 2:
        c, b, a = cs
        disc = b * b - 4 * a * c
        if disc < 0:
            return []
        s = math.sqrt(disc)
        return sorted(((-b - s) / (2 * a), (-b + s) / (2 * a)))
    if d == 3:
        d0, c, b, a = cs
        # depress: x = t - b/(3a); t^3 + pt + q = 0
        p = (3 * a * c - b * b) / (3 * a * a)
        q = (2 * b ** 3 - 9 * a * b * c + 27 * a * a * d0) / (27 * a ** 3)
        shift = -b / (3 * a)
        disc = -(4 * p ** 3 + 27 * q * q)
        scale = max(abs(4 * p ** 3), 27 * q * q, 1e-300)
        if p < 0 and disc > -1e-14 * scale:
            # three real roots (repeated roots on the boundary disc = 0)
            m = 2 * math.sqrt(-p / 3)
            theta = math.acos(max(-1.0, min(1.0, 3 * q / (p * m)))) / 3
            return sorted(shift + m * math.cos(theta - 2 * math.pi * k / 3)
                          for k in range(3))
        # one real root: Cardano
        half_q = q / 2
        rad = math.sqrt(half_q * half_q + (p / 3) ** 3)
        t = _cbrt(-half_q + rad) + _cbrt(-half_q - rad)
        return [shift + t]
    raise SampleError(f"unsupported minimal-polynomial degree {d}")


def _polish(coeffs: Sequence[float], x: float, rounds: int = 4) -> float:
    for _ in range(rounds):
        v = dv = 0.0
        for c in reversed(coeffs):
            dv = dv * x + v
            v = v * x + c
        if dv == 0.0:
            break
        x -= v / dv
    return x


def _poly_at(coeffs: Sequence[float], x: float) -> Tuple[float, float, float]:
    """(value, derivative, magnitude scale) of the polynomial at x."""
    v = dv = 0.0
    scale = 0.0
    for k, c in enumerate(coeffs):
        scale = max(scale, abs(c * x ** k))
    for c in reversed(coeffs):
        dv = dv * x + v
        v = v * x + c
    return v, dv, scale


# op codes of a compiled program; _GUARD checks a denominator and has no slot
_CONST, _NAME, _ADD, _MUL, _POW, _DIV, _GUARD = range(7)


def _compile(roots: Sequence[Expr]) -> Tuple[List[tuple], List[int]]:
    """Straight-line program for the trees in roots, and the slot of each.

    Each node is visited once, in post-order (a quotient's denominator, its
    guard, then its numerator), and gets the slot of its op (code, a, b),
    built from child slots, so equal subtrees share one slot: exact, as
    equal float inputs give equal outputs.
    """
    prog: List[tuple] = []
    by_id: Dict[int, int] = {}
    by_key: Dict[tuple, int] = {}

    def visit(e: Expr) -> int:
        s = by_id.get(id(e))
        if s is not None:
            return s
        t = type(e)
        if t is Mul or t is Add:
            op = (_MUL if t is Mul else _ADD, tuple(map(visit, e.args)), None)
        elif t is Pow:
            op = (_POW, visit(e.base), e.exp)
        elif t is Name:
            op = (_NAME, e.name, None)
        elif t is Const:
            op = (_CONST, e.value.numerator, e.value.denominator)
        elif t is Div:
            den = visit(e.den)
            prog.append((_GUARD, den, None))
            op = (_DIV, visit(e.num), den)
            if op in by_key:
                prog.pop()  # an equal quotient already passed this guard
        else:
            raise EvalError(f"cannot evaluate node {t.__name__}")
        s = by_key.get(op)
        if s is None:
            s = by_key[op] = len(by_key)
            prog.append(op)
        by_id[id(e)] = s
        return s

    slots = [visit(r) for r in roots]
    del visit  # a recursive closure is a cycle; free the tables now
    return prog, slots


def _run(prog: List[tuple], slots: Sequence[int],
         assignment: Mapping[str, float]) -> List[float]:
    """Run prog at one point, op by op, and return the values of slots."""
    vals: List[float] = []
    put, fsum, isfinite = vals.append, math.fsum, math.isfinite
    try:
        for code, a, b in prog:
            if code == _MUL:
                v = 1.0
                for i in a:
                    v *= vals[i]
            elif code == _ADD:
                v = fsum([vals[i] for i in a])
            elif code == _POW:
                v = vals[a] ** b
            elif code == _DIV:
                v = vals[a] / vals[b]
            elif code == _GUARD:
                if abs(vals[a]) < 1e-300:
                    raise EvalError("denominator vanished at the sample point")
                continue
            elif code == _CONST:
                v = a / b  # float(Fraction(a, b))
            else:
                v = assignment[a]
            if not isfinite(v):
                raise EvalError("non-finite intermediate value")
            put(v)
    except OverflowError:  # from **, int / int and fsum
        raise EvalError("non-finite intermediate value") from None
    except ZeroDivisionError:  # only 0.0 ** negative raises it
        raise EvalError("denominator vanished at the sample point") from None
    except KeyError as ex:  # only a name lookup raises it
        raise EvalError(f"no value assigned for {ex.args[0]!r}") from None
    return [vals[s] for s in slots]


def _nf_terms(e, assignment: Mapping[str, float],
              ctx: Optional[Context]) -> List[float]:
    """Value of each term of a normal form {packed alg monomial -> RatFunc}."""
    if ctx is None:
        raise EvalError("evaluating a normal form requires its context")
    vec = [assignment.get(v.name, math.nan) for v in ctx.base_vars]
    lay = ctx.alg_layout
    out = []
    for mono, rf in e.items():
        val = rf_eval(ctx, rf, vec)
        for i in lay.mono_vars(mono):
            val *= assignment[ctx.alg_syms[i].name] ** lay.exp(mono, i)
        out.append(val)
    return out


def eval(e, p: Union[SamplePoint, Mapping[str, float]],
         ctx: Optional[Context] = None) -> float:
    """Evaluate an expression tree or a normal form at a sample point."""
    assignment = p.assignment if isinstance(p, SamplePoint) else p
    if isinstance(e, Expr):
        return _run(*_compile([e]), assignment)[0]
    v = math.fsum(_nf_terms(e, assignment, ctx))
    if not math.isfinite(v):
        raise EvalError("non-finite intermediate value")
    return v


def _solve_sym(coeffs: List[float], pick: str, near: float = 0.0) -> float:
    roots = _real_roots(coeffs)
    if not roots:
        raise SampleError("no real root for an algebraic relation")
    x = max(roots) if pick == "largest" else min(roots, key=lambda r: abs(r - near))
    x = _polish(coeffs, x)
    _v, dv, _ = _poly_at(coeffs, x)
    if abs(dv) < SIMPLE_ROOT_GUARD:
        raise SampleError("root too close to a branch point")
    return x


def _coeffs_at(ctx: Context, sym, assignment: Mapping[str, float]) -> List[float]:
    """Minimal-polynomial coefficients of sym at the assignment; each
    symbol's coefficient program is compiled once per context."""
    compiled = ctx._minpoly_progs.get(sym)
    if compiled is None:
        compiled = ctx._minpoly_progs[sym] = _compile(sym.minpoly_coeffs)
    return _run(*compiled, assignment)


def _try_sample(ctx: Context, pinned: Dict[str, float],
                rng: random.Random, seed: int) -> SamplePoint:
    a: Dict[str, float] = {}
    c_pinned = "c" in pinned

    for v in ctx.base_vars:
        if v.kind == PARAM and v.name in pinned:
            a[v.name] = pinned[v.name]
        elif v.kind != TSYM and v.name != "c":  # c is closed via (W, P) below
            a[v.name] = _draw_band(rng, v.band)
    closed = _closed_forms(ctx)
    for v, fn in closed:
        a[v.name] = fn(a[v.arg])

    if ctx.is_base("W"):
        if c_pinned:
            c_val = pinned["c"]
            if c_val <= 0:
                raise SampleError("pinned c must be positive to place the "
                                  "wave variables on a real branch")
            t = _draw(rng, 0.3, 0.9)
            a["W"] = -t * _cbrt(c_val / 4.0)
            a["P"] = math.sqrt(c_val + 4 * a["W"] ** 3)
            a["c"] = c_val
        else:
            a["W"] = -_draw(rng, 0.5, 2.0)
            a["P"] = _draw_band(rng, SIGNED)
            a["c"] = a["P"] ** 2 - 4 * a["W"] ** 3
    elif not c_pinned and ctx.is_base("c"):
        a["c"] = _draw(rng, 0.5, 2.0)

    relations: Dict[str, float] = {}
    for s in ctx.alg_syms:
        coeffs = _coeffs_at(ctx, s, a)
        if s.name in a:  # P: already placed on the curve by construction
            val = a[s.name]
        elif s.name == "sc":
            val = math.sqrt(a["c"])
            a[s.name] = val
        else:
            val = _solve_sym(coeffs, "largest")
            a[s.name] = val
        res, _dv, scale = _poly_at(coeffs, val)
        relations[s.name] = res
        if abs(res) > RELATION_TOL * (1.0 + scale):
            raise SampleError(f"relation for {s.name} violated at the sample")
    for v, _fn in closed:
        relations[v.name] = 0.0
    return SamplePoint(assignment=a, seed=seed, relation_residuals=relations)


def sample_point(ctx: Optional[Context] = None,
                 constraints: Optional[Mapping[str, object]] = None,
                 seed: int = 0) -> SamplePoint:
    """Draw a consistent assignment for every variable and symbol.

    constraints pins parameter values (Fractions, ints, or floats).  A bound
    context contributes its own bindings; conflicting pins are an error.
    """
    ctx = ctx or std_context()
    pinned: Dict[str, float] = {}
    bound = getattr(ctx, "bound", None) or {}
    for src in (bound, constraints or {}):
        for k, v in src.items():
            fv = float(Fraction(v)) if not isinstance(v, float) else v
            if k in pinned and pinned[k] != fv:
                raise SampleError(f"conflicting pinned values for {k}")
            pinned[k] = fv
    rng = random.Random(seed)
    last: Optional[SampleError] = None
    for _ in range(MAX_ATTEMPTS):
        try:
            return _try_sample(ctx, pinned, rng, seed)
        except SampleError as ex:
            last = ex
    raise SampleError(f"no consistent sample after {MAX_ATTEMPTS} attempts: {last}")


@dataclass
class NumericVerdict:
    zero_like: bool
    max_residual: float
    residuals: List[float]
    samples: int
    tolerance: float
    seed: int


def numeric_zero(e, samples: int, tol: float = 1e-9, seed: int = 0,
                 ctx: Optional[Context] = None,
                 constraints: Optional[Mapping[str, object]] = None
                 ) -> NumericVerdict:
    """Probabilistic zero test: relative residual at `samples` points,
    |value| / (1 + largest top-level term contribution)."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(e, Expr):
        if ctx is None:
            ctx = std_context()
        # the root gives the value, its top-level terms the contributions
        prog, roots = _compile([e, *(e.args if isinstance(e, Add) else (e,))])
    rng = random.Random(seed)
    residuals: List[float] = []
    for _ in range(samples):
        child = rng.getrandbits(48)
        p = sample_point(ctx, constraints, child)
        if isinstance(e, Expr):
            value, *contribs = _run(prog, roots, p.assignment)
        else:
            contribs = _nf_terms(e, p.assignment, ctx)
            value = math.fsum(contribs)
        scale = max((abs(c) for c in contribs), default=0.0)
        residuals.append(abs(value) / (1.0 + scale))
    mx = max(residuals)
    return NumericVerdict(zero_like=(mx < tol), max_residual=mx,
                          residuals=residuals, samples=samples,
                          tolerance=tol, seed=seed)


@dataclass
class FDCheck:
    name: str
    wrt: str
    fd: float
    symbolic: float
    rel_error: float


def fd_checks(ctx: Optional[Context] = None, p: Optional[SamplePoint] = None,
              names: Optional[Sequence[str]] = None,
              step: float = FD_STEP) -> List[FDCheck]:
    """Validate every derivative rule against central finite differences.

    Algebraic symbols are re-solved from their relation at the perturbed
    argument on the same branch (nearest root).  P has no direct functional
    dependence on its argument u at a point; its rule dP/du = 6W^2 is checked
    through the chain dP/dW * dW/du with dP/dW finite-differenced in W.
    sc is constant (argument-free) and has nothing to check.
    """
    ctx = ctx or std_context()
    if p is None:
        p = sample_point(ctx, None, 0)
    out: List[FDCheck] = []
    for v, fn in _closed_forms(ctx):
        if names and v.name not in names:
            continue
        x0 = p.assignment[v.arg]
        fd = (fn(x0 + step) - fn(x0 - step)) / (2 * step)
        symb = eval(v.derivative, p)
        out.append(FDCheck(v.name, v.arg, fd, symb,
                           abs(fd - symb) / (1 + abs(symb))))

    for s in ctx.alg_syms:
        if names and s.name not in names:
            continue
        if s.arg is None:
            continue
        if s.name == "P":
            wrt = "W"
        else:
            wrt = s.arg
        if wrt not in p.assignment:
            continue
        cur = p.assignment[s.name]
        vals = []
        for sgn in (+1, -1):
            shifted = dict(p.assignment)
            shifted[wrt] += sgn * step
            coeffs = _coeffs_at(ctx, s, shifted)
            vals.append(_solve_sym(coeffs, "nearest", near=cur))
        fd = (vals[0] - vals[1]) / (2 * step)
        symb = eval(s.derivative, p)
        if s.name == "P":
            # fd is dP/dW; the rule is dP/du = dP/dW * dW/du with dW/du = P
            fd = fd * p.assignment["P"]
        out.append(FDCheck(s.name, wrt, fd, symb,
                           abs(fd - symb) / (1 + abs(symb))))
    return out
