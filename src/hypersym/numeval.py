"""Floating-point oracle for the exact engine.

A SamplePoint assigns a double to every base variable and algebraic symbol so
that all defining relations hold to machine precision: free variables are
drawn from the sampling band their definition in the context carries
(bounded away from 0, and from 1 where a logarithm or a root branch would
degenerate), transcendental symbols with a closed form are evaluated from the
head of their call form (exp, ln), dependent symbols are solved from their
minimal polynomials with a deterministic branch choice (largest real root),
and the Weierstrass triple (W, P, c) is closed by defining c = P^2 - 4W^3.
That closure is the only placement by hand here: every other symbol comes
from its definition in the context, and fd_checks validates every
derivative rule by one finite-difference rule.

Everything here is advisory: the exact normal-form route is authoritative,
and the oracle shares no code and no normal form with it; it evaluates
trees and programs, never a normal form, all through _run.  Terms live in a
table of hash-consed ops (equal subterms share one op), emitted once per
zero test into a straight-line program over float slots that runs at every
sample.  The sample points depend on the context and the master seed alone,
not on the program (a random-point identity test, Schwartz 1980), so each
is drawn once per context and master seed and reused by every later zero
test; a context keeps the points of its last seed only.  _compile imports
trees as they are; residual_program builds the determining residual from
the trees of F and G by forward differentiation on the ops (Baur &
Strassen 1983; Griewank & Walther 2008), with the folding of expr.tree's
helpers, negation the product by -1 included.  The parser builds through
those helpers too, so an entry's tree compiles to the program of the
tree substitute rebuilds from it.  That differentiation, _Jet, is the one
derivative engine on terms: jet.JetEngine and jet.partial import their
trees into a table, derive with _Jet and read the result back as a tree
(_Ops.tree), so a residual built from their trees compiles to the program
residual_program makes.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction
from typing import (Dict, List, Mapping, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from .errors import EvalError, SampleError
from .expr.context import PARAM, POSITIVE_AWAY_FROM_ONE, SIGNED, TSYM, Context
from .expr.tree import Add, Const, Div, Expr, Mul, Name, Pow

RELATION_TOL = 1e-12
FD_STEP = 1e-6
SIMPLE_ROOT_GUARD = 0.1
MAX_ATTEMPTS = 100

# closed forms of transcendental symbols, by the head of their call form
_CALL_FUNCS = {"exp": math.exp, "ln": math.log}


class SamplePoint:
    __slots__ = ("assignment", "seed", "relation_residuals")

    def __init__(self, assignment: Dict[str, float], seed: int,
                 relation_residuals: Optional[Dict[str, float]] = None):
        self.assignment = assignment
        self.seed = seed
        self.relation_residuals = ({} if relation_residuals is None
                                   else relation_residuals)

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


def _polish(coeffs: Sequence[float], x: float) -> float:
    for _ in range(4):
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


class Program(NamedTuple):
    """A straight-line program and the slots of its roots."""
    ops: List[tuple]
    roots: List[int]


class _Ops:
    """A table of hash-consed ops (code, a, b) whose operands are op ids, so
    equal terms get one id.  The constructors follow expr.tree's folding
    helpers rule for rule, so a term built here is the hash-consed image
    of the tree those helpers would build."""

    def __init__(self):
        self.ops: List[tuple] = []
        self.ids: Dict[tuple, int] = {}
        self.value: Dict[int, Union[int, Fraction]] = {}  # of each constant
        self._imported: Dict[int, Tuple[Expr, int]] = {}
        self._trees: Dict[int, Expr] = {}  # of each op read back
        self.zero = self.const(0)

    def op(self, key: tuple) -> int:
        i = self.ids.get(key)
        if i is None:
            i = self.ids[key] = len(self.ops)
            self.ops.append(key)
        return i

    def const(self, v: Union[int, Fraction]) -> int:
        i = self.op((_CONST, v.numerator, v.denominator))
        self.value[i] = v
        return i

    def imp(self, e: Expr) -> int:
        """The id of a tree, shape kept as it is."""
        hit = self._imported.get(id(e))
        if hit is not None:
            return hit[1]
        t = type(e)
        if t is Mul or t is Add:
            i = self.op((_MUL if t is Mul else _ADD,
                         tuple(map(self.imp, e.args)), None))
        elif t is Pow:
            i = self.op((_POW, self.imp(e.base), e.exp))
        elif t is Name:
            i = self.name(e.name)
        elif t is Const:
            v = e.value
            i = self.const(v.numerator if v.denominator == 1 else v)
        elif t is Div:
            den = self.imp(e.den)
            i = self.op((_DIV, self.imp(e.num), den))
        else:
            raise EvalError(f"cannot evaluate node {t.__name__}")
        self._imported[id(e)] = (e, i)  # holding e keeps its id valid
        return i

    def name(self, nm: str) -> int:
        return self.op((_NAME, nm, None))

    def tree(self, i: int) -> Expr:
        """The tree of op i, one raw node per op, so that equal subterms come
        back as one node and importing the tree gives i again."""
        e = self._trees.get(i)
        if e is not None:
            return e
        code, a, b = self.ops[i]
        if code == _CONST:
            e = Const(self.value[i])
        elif code == _NAME:
            e = Name(a)
        elif code == _ADD or code == _MUL:
            e = (Add if code == _ADD else Mul)(map(self.tree, a))
        elif code == _POW:
            e = Pow(self.tree(a), b)
        else:
            e = Div(self.tree(a), self.tree(b))
        self._trees[i] = e
        self._imported[id(e)] = (e, i)
        return e

    # -- tree.add, tree.mul, tree.sub, tree.div, tree.pow_ ------------------

    def _gather(self, code: int, args, flat: List[int]):
        """Append the operands of args to flat, opening ops of the same code
        and folding constants: their sum for ADD, product for MUL."""
        ops, value = self.ops, self.value
        acc = 0 if code == _ADD else 1
        for a in args:
            c = ops[a][0]
            if c == code:
                k = self._gather(code, ops[a][1], flat)
            elif c == _CONST:
                k = value[a]
            else:
                flat.append(a)
                continue
            acc = acc + k if code == _ADD else acc * k
        return acc

    def add(self, args) -> int:
        flat: List[int] = []
        c = self._gather(_ADD, args, flat)
        if c != 0:
            flat.append(self.const(c))
        if not flat:
            return self.zero
        return flat[0] if len(flat) == 1 else self.op((_ADD, tuple(flat), None))

    def mul(self, args) -> int:
        flat: List[int] = []
        c = self._gather(_MUL, args, flat)
        if c == 0:
            return self.zero
        if c != 1 or not flat:
            flat.insert(0, self.const(c))
        return flat[0] if len(flat) == 1 else self.op((_MUL, tuple(flat), None))

    def sub(self, a: int, b: int) -> int:
        return self.add((a, self.mul((self.const(-1), b))))

    def div(self, a: int, b: int) -> int:
        value = self.value
        if b in value:
            if value[b] == 0:
                raise ZeroDivisionError("constant zero denominator")
            if a in value:
                return self.const(Fraction(value[a]) / value[b])
            if value[b] == 1:
                return a
        if a == self.zero:
            return a
        return self.op((_DIV, a, b))

    def pow_(self, a: int, k: int) -> int:
        if k == 1:
            return a
        if k == 0:
            return self.const(1)
        v = self.value.get(a)
        if v is not None:
            if k < 0 and v == 0:
                raise ZeroDivisionError("0 raised to a negative power")
            return self.const(Fraction(v) ** k if k < 0 else v ** k)
        return self.op((_POW, a, k))

    def derive(self, i: int, memo: Dict[int, int], name_rule) -> int:
        """Derivative by the sum, product, power and quotient rules, with
        name_rule giving the id of each name's derivative; memo maps op ids
        to derivative ids for one direction."""
        r = memo.get(i)
        if r is not None:
            return r
        code, a, b = self.ops[i]
        zero = self.zero
        if code == _CONST:
            r = zero
        elif code == _NAME:
            r = name_rule(a)
        elif code == _ADD:
            r = self.add([self.derive(t, memo, name_rule) for t in a])
        elif code == _MUL:
            parts = []
            for k, fk in enumerate(a):
                d = self.derive(fk, memo, name_rule)
                if d != zero:
                    parts.append(self.mul((d,) + a[:k] + a[k + 1:]))
            r = self.add(parts)
        elif code == _POW:
            db = self.derive(a, memo, name_rule)
            r = zero if db == zero else self.mul(
                (self.const(b), self.pow_(a, b - 1), db))
        else:  # _DIV, a over b
            dn = self.derive(a, memo, name_rule)
            dd = self.derive(b, memo, name_rule)
            if dd == zero:
                r = self.div(dn, b)
            else:
                r = self.sub(self.div(dn, b), self.div(
                    self.mul((a, dd)), self.pow_(b, 2)))
        memo[i] = r
        return r


class _Jet:
    """Total derivatives D_x, D_y modulo u_xy = F, and partial derivatives,
    on the ops of one table.  Every symbol's chain rule comes from
    Context.chain, every jet variable's total derivative from
    Context.jet_rule: D_x(v_k) = D_y^{k-1}F and D_y(u_k) = D_x^{k-1}F read
    the tables of D_x^k F and D_y^k F, grown on demand.  custom maps
    (axis, name) to the id of an override D_axis(name), which precedes the
    rules (adjoined auxiliaries such as V in the transform checks).  f, the
    id of F, is needed only by total."""

    def __init__(self, t: _Ops, ctx: Context, f: Optional[int] = None,
                 custom: Optional[Dict[Tuple[str, str], int]] = None):
        self.t, self.ctx = t, ctx
        self.custom = custom or {}
        self.memo: Dict[str, Dict[int, int]] = {"x": {}, "y": {}}
        self.powers = {"x": [f], "y": [f]}  # D_x^k F and D_y^k F

    def total(self, axis: str, i: int) -> int:
        """D_axis of op i, axis "x" or "y"; one memo per axis."""
        return self.t.derive(i, self.memo[axis],
                             functools.partial(self._total_name, axis))

    def partial(self, i: int, var: str) -> int:
        """Partial derivative of op i w.r.t. the jet variable var; every
        other jet variable is fixed."""
        return self.t.derive(i, {}, functools.partial(
            self._partial_name, self.ctx.resolve(var)))

    def _total_name(self, axis: str, nm: str) -> int:
        t = self.t
        r = self.custom.get((axis, nm))
        if r is None:
            r = self._chained(nm, functools.partial(self._total_name, axis))
        if r is not None:
            return r
        r = self.ctx.jet_rule(axis, nm)
        if r is None:
            return t.zero  # parameters and auxiliaries are constants
        if isinstance(r, str):
            return t.name(r)
        other = "y" if axis == "x" else "x"
        ks = self.powers[other]
        while len(ks) <= r:
            ks.append(self.total(other, ks[-1]))
        return ks[r]

    def _partial_name(self, var: str, nm: str) -> int:
        nm = self.ctx.resolve(nm)
        if nm == var:
            return self.t.const(1)
        r = self._chained(nm, functools.partial(self._partial_name, var))
        if r is None:
            self.ctx.base(nm)  # an unregistered name raises; the others are fixed
            return self.t.zero
        return r

    def _chained(self, nm: str, rule) -> Optional[int]:
        """D(nm) = its derivative rule * D(argument) for a symbol, with rule
        giving D(argument); None for every other name."""
        link = self.ctx.chain(nm)
        if link is None:
            return None
        arg, d = link
        t = self.t
        return t.zero if arg is None else t.mul((t.imp(d), rule(arg)))


def _emit(ops: List[tuple], roots: Sequence[int]) -> Program:
    """The program of the ops reachable from roots.  Each op is emitted once,
    in post-order (a quotient's denominator, its guard, then its
    numerator), into the next float slot."""
    prog: List[tuple] = []
    slot: Dict[int, int] = {}

    def visit(i: int) -> int:
        s = slot.get(i)
        if s is not None:
            return s
        code, a, b = op = ops[i]
        if code == _MUL or code == _ADD:
            op = (code, tuple(map(visit, a)), None)
        elif code == _POW:
            op = (code, visit(a), b)
        elif code == _DIV:
            den = visit(b)
            prog.append((_GUARD, den, None))
            op = (code, visit(a), den)
        s = slot[i] = len(slot)
        prog.append(op)
        return s

    out = Program(prog, [visit(r) for r in roots])
    del visit  # a recursive closure is a cycle; free the tables now
    return out


def _compile(roots: Sequence[Expr]) -> Program:
    """Straight-line program for the trees in roots, and the slot of each.
    Equal subtrees share one slot: exact, as equal float inputs give equal
    outputs."""
    table = _Ops()
    return _emit(table.ops, [table.imp(r) for r in roots])


def _residual(t: _Ops, F, G) -> int:
    """The id in t of the compatibility residual of u_xy = F.F and the
    x-direction flow u_t = u5 + G.G in one shared context,

        R = D_x(D_yH) - F_{u1} D_xH - F_{v1} D_yH - F_u H,   H = u5 + G."""
    f = t.imp(F.F)
    jet = _Jet(t, F.ctx, f)
    H = t.add((t.name("u5"), t.imp(G.G)))
    dyH = jet.total("y", H)
    dxH = jet.total("x", H)
    mixed = jet.total("x", dyH)
    Fu1, Fv1, Fu = (jet.partial(f, v) for v in ("u1", "v1", "u"))
    return t.sub(t.sub(t.sub(mixed, t.mul((Fu1, dxH))), t.mul((Fv1, dyH))),
                 t.mul((Fu, H)))


def residual_program(F, G) -> Program:
    """Program of the compatibility residual R of u_xy = F.F and the
    x-direction flow u_t = u5 + G.G (_residual), with R and its top-level
    terms as roots."""
    t = _Ops()
    R = _residual(t, F, G)
    code, terms, _ = t.ops[R]
    return _emit(t.ops, [R, *(terms if code == _ADD else (R,))])


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
    return list(map(vals.__getitem__, slots))


def eval(e: Expr, p: Union[SamplePoint, Mapping[str, float]]) -> float:
    """Evaluate an expression tree at a sample point."""
    assignment = p.assignment if isinstance(p, SamplePoint) else p
    return _run(*_compile([e]), assignment)[0]


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
    # The Weierstrass closure, the one placement by hand.  c is not drawn
    # with the other parameters: W is drawn on its negative branch, P from
    # its band, and c = P^2 - 4W^3 = P^2 + 4|W|^3 puts P on its curve as a
    # sum of two positive terms, so no float cancels and no draw is lost.
    # The placements that solve P from a drawn (W, c) were measured to lose
    # either accuracy on the oracle's residuals (on S6/ev21, worst points up
    # to 70 times larger, one above the 1e-9 tolerance) or draws (about 9
    # attempts per point).  A pinned c takes W = -t cbrt(c/4), so that
    # P^2 = c (1 - t^3) > 0.
    c_pinned = "c" in pinned

    for v in ctx.base_vars:
        if v.kind == PARAM and v.name in pinned:
            a[v.name] = pinned[v.name]
        elif v.kind != TSYM and v.name != "c":
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
        if s.name in a:  # placed on its curve by the closure above
            val = a[s.name]
        else:
            val = a[s.name] = _solve_sym(coeffs, "largest")
        res, _dv, scale = _poly_at(coeffs, val)
        relations[s.name] = res
        if abs(res) > RELATION_TOL * (1.0 + scale):
            raise SampleError(f"relation for {s.name} violated at the sample")
    for v, _fn in closed:
        relations[v.name] = 0.0
    return SamplePoint(assignment=a, seed=seed, relation_residuals=relations)


def sample_point(ctx: Context, seed: int = 0) -> SamplePoint:
    """Draw a consistent assignment for every variable and symbol.  The
    parameters bound on ctx (Context.bind) are pinned to their values."""
    pinned = {k: float(v) for k, v in ctx.bound.items()}
    rng = random.Random(seed)
    last: Optional[SampleError] = None
    for _ in range(MAX_ATTEMPTS):
        try:
            return _try_sample(ctx, pinned, rng, seed)
        except SampleError as ex:
            last = ex
    raise SampleError(f"no consistent sample after {MAX_ATTEMPTS} attempts: {last}")


class NumericVerdict(NamedTuple):
    zero_like: bool
    max_residual: float
    residuals: List[float]
    samples: int
    tolerance: float
    seed: int


def numeric_zero(e, samples: int, tol: float = 1e-9, seed: int = 0, *,
                 ctx: Context) -> NumericVerdict:
    """Probabilistic zero test: relative residual at `samples` points,
    |value| / (1 + largest top-level term contribution).  e is a tree or a
    Program (its first root the value, the others the terms).  A bound ctx
    pins its parameters at every sample.  The points of the last seed are
    kept on ctx, so every zero test of a context and seed runs at the same
    points, each drawn once."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    if isinstance(e, Expr):
        # the root gives the value, its top-level terms the contributions
        e = _compile([e, *(e.args if isinstance(e, Add) else (e,))])
    elif not isinstance(e, Program):
        raise EvalError(f"cannot evaluate a {type(e).__name__}: "
                        "expected a tree or a Program")
    kept_seed, points = ctx._sample_points
    if kept_seed != seed:
        points = []
        ctx._sample_points = (seed, points)
    rng = random.Random(seed)
    residuals: List[float] = []
    for k in range(samples):
        child = rng.getrandbits(48)
        if k == len(points):
            # drawn only now, so a bad point raises where it would unkept;
            # a draw that raises keeps nothing, and the children come from
            # a fresh rng, so the kept points stay a fresh context's
            points.append(sample_point(ctx, child).assignment)
        value, *contribs = _run(e.ops, e.roots, points[k])
        scale = max(map(abs, contribs), default=0.0)
        residuals.append(abs(value) / (1.0 + scale))
    mx = max(residuals)
    return NumericVerdict(zero_like=(mx < tol), max_residual=mx,
                          residuals=residuals, samples=samples,
                          tolerance=tol, seed=seed)


class FDCheck(NamedTuple):
    name: str
    wrt: str
    fd: float
    symbolic: float
    rel_error: float


def fd_checks(ctx: Context, p: Optional[SamplePoint] = None) -> List[FDCheck]:
    """Validate every derivative rule against central finite differences.

    A transcendental symbol with a closed form is evaluated at its shifted
    argument.  For an algebraic symbol the argument is shifted by +-h, every
    symbol chained to that argument moves by +-h times its own rule, and
    the relation is re-solved at the shifted point on the same branch
    (nearest root).  So a relation that reads another chained symbol is
    checked along the chain: dP/du = 6W^2 through W moving by P h.  An
    argument-free symbol has nothing to check.
    """
    if p is None:
        p = sample_point(ctx, 0)
    h = FD_STEP
    out: List[FDCheck] = []
    for v, fn in _closed_forms(ctx):
        x0 = p.assignment[v.arg]
        fd = (fn(x0 + h) - fn(x0 - h)) / (2 * h)
        symb = eval(v.derivative, p)
        out.append(FDCheck(v.name, v.arg, fd, symb,
                           abs(fd - symb) / (1 + abs(symb))))

    for s in ctx.alg_syms:
        if s.arg is None:
            continue
        rates = [(t.name, eval(t.derivative, p))
                 for t in ctx.symbols_with_arg(s.arg)]
        cur = p.assignment[s.name]
        vals = []
        for step in (h, -h):
            shifted = dict(p.assignment)
            shifted[s.arg] += step
            for name, rate in rates:
                shifted[name] += step * rate
            coeffs = _coeffs_at(ctx, s, shifted)
            vals.append(_solve_sym(coeffs, "nearest", near=cur))
        fd = (vals[0] - vals[1]) / (2 * h)
        symb = eval(s.derivative, p)
        out.append(FDCheck(s.name, s.arg, fd, symb,
                           abs(fd - symb) / (1 + abs(symb))))
    return out
