"""Equation catalog loaded from plain-text data files.

Each entry file carries header lines (``id:``, ``role:``, ``params:``,
``provenance:``) followed by an ``expr:`` block holding one expression in
the package grammar.  ``pairings.txt`` lists the shipped symmetry claims,
one per line: hyperbolic id, evolution id, direction, optional ``k=v``
parameter bindings, and a status tag.  Files whose header set includes
``relations:`` are transform definitions; they are collected here and
interpreted by the transforms module.
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from .errors import (AdmissibilityError, CatalogError, ParseError,
                     UnknownEntryError, UnknownNameError)
from .expr.context import PARAM, Context, default_context
from .expr.parser import parse
from .expr.tree import Const, Expr, free_names, substitute
from .jet import EvolutionEq, HyperbolicEq

VALID_ROLES = ("evolution", "hyperbolic")
VALID_STATUS = ("asserted-by-paper", "resolved-by-tool")


class ParamSpec(NamedTuple):
    """One declared parameter of an entry; nonzero marks 'name != 0'."""

    name: str
    nonzero: bool

    def __str__(self) -> str:
        return f"{self.name} != 0" if self.nonzero else self.name


class CatalogEntry(NamedTuple):
    id: str
    role: str
    params: Tuple[ParamSpec, ...]
    provenance: str
    expr_text: str
    expression: Expr
    path: str

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)


class PairingClaim(NamedTuple):
    hyperbolic_id: str
    evolution_id: str
    direction: str
    bindings: Tuple[Tuple[str, Fraction], ...]
    status: str

    @property
    def key(self) -> str:
        parts = [self.hyperbolic_id, self.evolution_id, self.direction]
        parts += [f"{k}={v}" for k, v in self.bindings]
        return " ".join(parts)


def parse_blocks(text: str, path: str = "<data>") -> Dict[str, object]:
    """Split a data file into header values and multi-line blocks.

    A line ``name: value`` sets a single-line field; ``name:`` with nothing
    after the colon starts a block collecting every following line up to the
    next header.  Block values are returned as lists of stripped lines.
    """
    import re

    header = re.compile(r"^([a-z_]+):(.*)$")
    fields: Dict[str, object] = {}
    block_key: Optional[str] = None
    for raw in text.splitlines():
        line = raw.rstrip()
        m = header.match(line)
        if m:
            key, rest = m.group(1), m.group(2).strip()
            if key in fields:
                raise CatalogError(f"{path}: duplicate field {key!r}")
            if rest:
                fields[key] = rest
                block_key = None
            else:
                fields[key] = []
                block_key = key
            continue
        if not line.strip():
            continue
        if block_key is None:
            raise CatalogError(f"{path}: stray line {line.strip()!r}")
        fields[block_key].append(line.strip())
    return fields


def _parse_params(text: object, path: str) -> Tuple[ParamSpec, ...]:
    if isinstance(text, list):  # empty `params:` line parsed as a block
        if text:
            raise CatalogError(f"{path}: params must be a single line")
        return ()
    out = []
    for piece in str(text).split(","):
        piece = piece.strip()
        if not piece:
            continue
        if piece.endswith("!= 0"):
            out.append(ParamSpec(piece[: -len("!= 0")].strip(), True))
        elif piece.endswith("!=0"):
            out.append(ParamSpec(piece[: -len("!=0")].strip(), True))
        else:
            if any(ch in piece for ch in " <>="):
                raise CatalogError(f"{path}: bad param spec {piece!r}")
            out.append(ParamSpec(piece, False))
    return tuple(out)


def parse_entry(fields: Mapping[str, object], path: str,
                ctx: Context) -> CatalogEntry:
    """The entry whose file parse_blocks split into fields."""
    for required in ("id", "role", "params", "provenance", "expr"):
        if required not in fields:
            raise CatalogError(f"{path}: missing field {required!r}")
    role = str(fields["role"])
    if role not in VALID_ROLES:
        raise CatalogError(f"{path}: role must be one of {VALID_ROLES}")
    expr_lines = fields["expr"]
    if not isinstance(expr_lines, list) or not expr_lines:
        raise CatalogError(f"{path}: expr block is empty")
    expr_text = " ".join(expr_lines)
    try:
        expression = parse(expr_text, ctx)
    except (ParseError, UnknownNameError) as exc:
        raise CatalogError(f"{path}: {exc}") from exc
    params = _parse_params(fields["params"], path)
    declared = {p.name for p in params}
    for p in declared:
        if not ctx.is_base(p) or ctx.base(p).kind != PARAM:
            raise CatalogError(f"{path}: {p!r} is not a registered parameter")
    entry = CatalogEntry(
        id=str(fields["id"]),
        role=role,
        params=params,
        provenance=str(fields["provenance"]),
        expr_text=expr_text,
        expression=expression,
        path=path,
    )
    # reject undeclared parameters appearing in the expression
    _check_entry_vars(entry, ctx)
    return entry


def _check_entry_vars(entry: CatalogEntry, ctx: Context) -> None:
    declared = set(entry.param_names())
    used = set()
    for nm in free_names(entry.expression):
        nm = ctx.resolve(nm)
        if ctx.is_base(nm) and ctx.base(nm).kind == PARAM:
            used.add(nm)
    extra = used - declared
    if extra:
        raise CatalogError(
            f"{entry.path}: undeclared parameters {sorted(extra)} in expr")
    # role-specific variable constraints; the constructors raise ValueError
    eq = HyperbolicEq if entry.role == "hyperbolic" else EvolutionEq
    try:
        eq(entry.id, entry.expression, ctx=ctx)
    except ValueError as exc:
        raise CatalogError(f"{entry.path}: {exc}") from exc


def _order_key(entry: CatalogEntry) -> Tuple[int, int, str]:
    """Deterministic catalog order: numeric provenance first (2,3,4,7..21),
    then the classified S-list, then the final list."""
    eid = entry.id
    if eid.startswith("hyp"):
        return (0, int(eid[3:]), eid)
    if eid.startswith("ev"):
        return (0, int(eid[2:]), eid)
    if eid.startswith("S"):
        return (1, int(eid[1:]), eid)
    if eid.startswith("final"):
        return (2, int(eid[5:]), eid)
    return (3, 0, eid)


def _parse_pairing_line(line: str, path: str,
                        entries: Mapping[str, CatalogEntry]) -> PairingClaim:
    tokens = line.split()
    if len(tokens) < 4:
        raise CatalogError(f"{path}: short pairing line {line!r}")
    hyp, ev, direction = tokens[0], tokens[1], tokens[2]
    status = tokens[-1]
    if status not in VALID_STATUS:
        raise CatalogError(f"{path}: bad status {status!r}")
    if direction not in ("x", "y"):
        raise CatalogError(f"{path}: bad direction {direction!r}")
    bindings = []
    for tok in tokens[3:-1]:
        if "=" not in tok:
            raise CatalogError(f"{path}: bad binding {tok!r}")
        k, _, v = tok.partition("=")
        try:
            bindings.append((k, Fraction(v)))
        except (ValueError, ZeroDivisionError) as exc:
            raise CatalogError(f"{path}: bad binding value {tok!r}") from exc
    for eid, role in ((hyp, "hyperbolic"), (ev, "evolution")):
        entry = entries.get(eid)
        if entry is None:
            raise CatalogError(f"{path}: pairing references unknown id {eid!r}")
        if entry.role != role:
            raise CatalogError(f"{path}: {eid!r} is not a {role} entry")
        for k, v in bindings:
            for spec in entry.params:
                if spec.name == k and spec.nonzero and v == 0:
                    raise CatalogError(
                        f"{path}: binding {k}=0 violates {eid!r} "
                        f"admissibility ({spec})")
    return PairingClaim(hyp, ev, direction, tuple(bindings), status)


class Catalog:
    """All shipped entries plus any user-supplied catalog files.  With no
    ctx it builds a context of its own, so no other catalog's factor base
    or memos reach its reports."""

    def __init__(self, extra_paths: Sequence[str] = (),
                 ctx: Optional[Context] = None):
        self.ctx = ctx or default_context()
        self.entries: Dict[str, CatalogEntry] = {}
        self.transform_texts: Dict[str, Dict[str, object]] = {}
        self._pairings: List[PairingClaim] = []
        self._load_builtin()
        for p in extra_paths:
            self.load_path(p)

    # -- loading -------------------------------------------------------------

    def _load_builtin(self) -> None:
        root = os.path.join(os.path.dirname(__file__), "catalog_data")
        for name in sorted(os.listdir(root)):
            if name.endswith(".txt"):
                self._load_file(os.path.join(root, name),
                                f"catalog_data/{name}")

    def load_path(self, path: str) -> None:
        """Load one extra catalog file or every *.txt file in a directory."""
        if os.path.isdir(path):
            for name in sorted(os.listdir(path)):
                if name.endswith(".txt"):
                    self._load_file(os.path.join(path, name))
        elif os.path.isfile(path):
            self._load_file(path)
        else:
            raise CatalogError(f"catalog path {path!r} does not exist")

    def _load_file(self, path: str, label: Optional[str] = None) -> None:
        with open(path, encoding="utf-8") as fh:
            self._load_text(fh.read(), label or path)

    def _load_text(self, text: str, path: str) -> None:
        body = "\n".join(
            ln for ln in text.splitlines() if not ln.lstrip().startswith("#"))
        if not body.strip():
            return
        first = body.strip().splitlines()[0]
        if ":" not in first:  # pairing list: bare claim lines
            for line in body.splitlines():
                line = line.strip()
                if line:
                    self._pairings.append(
                        _parse_pairing_line(line, path, self.entries))
            return
        fields = parse_blocks(body, path)
        if "relations" in fields:
            tid = str(fields.get("id", path))
            if tid in self.transform_texts:
                raise CatalogError(f"{path}: duplicate transform id {tid!r}")
            self.transform_texts[tid] = fields
            return
        entry = parse_entry(fields, path, self.ctx)
        if entry.id in self.entries:
            raise CatalogError(f"{path}: duplicate entry id {entry.id!r}")
        self.entries[entry.id] = entry

    # -- queries -------------------------------------------------------------

    def entry(self, id: str) -> CatalogEntry:
        e = self.entries.get(id)
        if e is None:
            raise UnknownEntryError(f"unknown catalog id {id!r}")
        return e

    def list(self, role: Optional[str] = None) -> List[CatalogEntry]:
        if role is not None and role not in VALID_ROLES:
            raise CatalogError(f"role filter must be one of {VALID_ROLES}")
        out = [e for e in self.entries.values()
               if role is None or e.role == role]
        out.sort(key=_order_key)
        return out

    def pairings(self) -> List[PairingClaim]:
        return list(self._pairings)

    def get(self, id: str, bindings: Optional[Mapping[str, object]] = None):
        """Entry as an equation object, with parameters bound or symbolic.

        Bindings are exact rationals substituted both in the expression and
        in the symbol relations (so e.g. the constant in the cubic of fa
        specializes).  A binding that violates a declared admissibility
        condition raises AdmissibilityError.  With nothing bound, the
        equation holds the entry's own tree.
        """
        e = self.entry(id)
        bound: Dict[str, Fraction] = {}
        for k, v in (bindings or {}).items():
            k = self.ctx.resolve(k)
            bound[k] = Fraction(v)
        for spec in e.params:
            if spec.nonzero and bound.get(spec.name) == 0:
                raise AdmissibilityError(
                    f"{id}: {spec.name} = 0 violates '{spec}'")
        ctx, expression = self.ctx, e.expression
        if bound:
            ctx = self.ctx.bind(bound)
            expression = substitute(
                expression, {k: Const(v) for k, v in bound.items()})
        params: Dict[str, Optional[Fraction]] = {
            p.name: bound.get(p.name) for p in e.params}
        if e.role == "hyperbolic":
            return HyperbolicEq(id, expression, params=params, ctx=ctx)
        return EvolutionEq(id, expression, params=params, ctx=ctx)
