"""Command-line front end: catalog browsing, pair verification, lemma
decomposition, transform checks, and numeric sampling.

Exit status: 0 when every requested check passed, 1 when a check failed
(a residual is nonzero where zero is claimed), 2 on usage or data errors.
Output comes in two formats: ``text`` (human-oriented, not stable) and
``structured`` (line-oriented ``key = value`` pairs, deterministic for a
fixed seed, safe to pin byte-for-byte in CI).
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from . import numeval, transforms, verify
from .catalog import Catalog
from .errors import HypersymError
from .expr import normal as N
from .expr.parser import print_expr

ENV_CATALOG = "HYPERSYM_CATALOG"


@dataclass
class RunConfig:
    command: str
    ids: Tuple[str, ...] = ()
    params: Dict[str, Fraction] = field(default_factory=dict)
    samples: int = 0
    tolerance: float = verify.DEFAULT_TOL
    seed: int = 0
    fmt: str = "text"
    catalog_paths: Tuple[str, ...] = ()
    direction: str = "x"
    jobs: int = 0
    role: Optional[str] = None

    def validate(self) -> None:
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.samples < 0:
            raise ValueError("samples must be nonnegative")


def _parse_param(text: str) -> Tuple[str, Fraction]:
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"parameter binding must look like name=value, got {text!r}")
    name, _, value = text.partition("=")
    try:
        return name.strip(), Fraction(value.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(
            f"parameter value {value!r} is not an exact rational") from exc


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hypersym",
        description=(
            "Exact checks of fifth-order symmetries of u_xy = F(u_x, u_y, u):"
            " catalog browsing, residual verification, lemma decomposition,"
            " substitution checks, numeric sampling."))
    top.add_argument(
        "--catalog", action="append", default=[], metavar="PATH",
        help="extra catalog file or directory (repeatable; the "
             f"{ENV_CATALOG} environment variable supplies defaults)")
    top.add_argument(
        "--format", choices=("text", "structured"), default="text",
        dest="fmt",
        help="output format: human-oriented text or stable key=value lines")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("list", help="list catalog entries")
    p.add_argument("--role", choices=("evolution", "hyperbolic"),
                   default=None)

    p = sub.add_parser("show", help="show one entry or transform")
    p.add_argument("id")

    def add_verify_opts(p, with_dir: bool) -> None:
        p.add_argument("--param", action="append", default=[],
                       type=_parse_param, metavar="NAME=VALUE",
                       help="bind a parameter to an exact rational")
        p.add_argument("--samples", type=int, default=0,
                       help="numeric cross-check sample count (0: exact only)")
        p.add_argument("--tol", type=float, default=verify.DEFAULT_TOL,
                       help="relative tolerance of the numeric verdict")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the numeric sampler (default 0)")
        if with_dir:
            p.add_argument("--dir", choices=("x", "y"), default="x",
                           dest="direction",
                           help="direction of the claimed symmetry")

    p = sub.add_parser("verify", help="verify one hyperbolic/evolution pair")
    p.add_argument("hyp")
    p.add_argument("ev")
    add_verify_opts(p, with_dir=True)

    p = sub.add_parser("verify-all", help="verify every shipped pairing")
    add_verify_opts(p, with_dir=False)
    p.add_argument("--jobs", type=int, default=0,
                   help="parallel worker count (0: auto)")

    p = sub.add_parser(
        "lemma",
        help="extract g from an evolution entry and, against a hyperbolic "
             "entry, split the top-order condition into its two parts")
    p.add_argument("ev")
    p.add_argument("--hyp", default=None)
    p.add_argument("--param", action="append", default=[],
                   type=_parse_param, metavar="NAME=VALUE")

    p = sub.add_parser("transform", help="check shipped substitutions")
    p.add_argument("id", nargs="?", default=None,
                   help="transform id (omit to check all)")

    p = sub.add_parser("sample", help="draw one consistent numeric point")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--param", action="append", default=[],
                   type=_parse_param, metavar="NAME=VALUE")

    return top


def _config(args: argparse.Namespace) -> RunConfig:
    paths = list(args.catalog)
    env = os.environ.get(ENV_CATALOG, "")
    for piece in env.split(os.pathsep):
        if piece:
            paths.append(piece)
    cfg = RunConfig(
        command=args.command,
        params=dict(getattr(args, "param", []) or []),
        samples=getattr(args, "samples", 0),
        tolerance=getattr(args, "tol", verify.DEFAULT_TOL),
        seed=getattr(args, "seed", 0),
        fmt=args.fmt,
        catalog_paths=tuple(paths),
        direction=getattr(args, "direction", "x"),
        jobs=getattr(args, "jobs", 0),
        role=getattr(args, "role", None),
    )
    cfg.validate()
    return cfg


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _emit(lines: Sequence[str], out) -> None:
    for line in lines:
        print(line, file=out)


def _cmd_list(cfg: RunConfig, catalog: Catalog, out) -> int:
    entries = catalog.list(cfg.role)
    if cfg.fmt == "structured":
        lines = [f"entries = {len(entries)}"]
        for i, e in enumerate(entries):
            lines += [
                f"entry[{i}].id = {e.id}",
                f"entry[{i}].role = {e.role}",
                f"entry[{i}].params = {', '.join(str(p) for p in e.params)}",
                f"entry[{i}].expr = {e.expr_text}",
            ]
        _emit(lines, out)
    else:
        width = max(len(e.id) for e in entries)
        for e in entries:
            params = f"  [{', '.join(str(p) for p in e.params)}]" \
                if e.params else ""
            print(f"{e.id:<{width}}  {e.role:<10} {e.expr_text}{params}",
                  file=out)
    return 0


def _cmd_show(cfg: RunConfig, catalog: Catalog, out) -> int:
    tid = cfg.ids[0]
    if tid in catalog.entries:
        e = catalog.entry(tid)
        canonical = print_expr(e.expression, catalog.ctx)
        lines = [
            f"id = {e.id}",
            f"role = {e.role}",
            f"params = {', '.join(str(p) for p in e.params)}",
            f"provenance = {e.provenance}",
            f"expr = {e.expr_text}",
            f"canonical = {canonical}",
        ]
        _emit(lines, out)
        return 0
    defs = transforms.load_transforms(catalog)
    if tid in defs:
        t = defs[tid]
        lines = [
            f"id = {t.id}",
            f"kind = transform",
            f"source = {t.source}",
            f"target = {t.target_text}",
            f"investigative = {str(t.investigative).lower()}",
        ]
        lines += [f"relation[{i}] = {r}" for i, r in enumerate(t.relations)]
        lines += [f"convention[{i}] = {c}"
                  for i, c in enumerate(t.conventions)]
        _emit(lines, out)
        return 0
    print(f"error: unknown id {tid!r}", file=sys.stderr)
    return 2


def _report_text(r: verify.VerificationReport, out) -> None:
    verdict = "zero" if r.residual_is_zero else "NONZERO"
    print(f"{r.key}: residual {verdict} "
          f"({r.residual_term_count} terms, {r.elapsed:.2f}s)", file=out)
    for mono, coeff in r.failing_coefficients:
        print(f"  coefficient of {mono}: {coeff}", file=out)
    if r.failing_total > len(r.failing_coefficients):
        print(f"  ({len(r.failing_coefficients)} of {r.failing_total} "
              f"failing coefficients shown)", file=out)
    if r.cleared_denominator is not None:
        print(f"  cleared denominator: {r.cleared_denominator}", file=out)
    if r.samples:
        print(f"  numeric: max relative residual {r.numeric_max_residual:.3e}"
              f" over {r.samples} samples (tol {r.tolerance:g}, "
              f"seed {r.seed})", file=out)


def _verify_exit(r: verify.VerificationReport) -> int:
    if not r.residual_is_zero:
        return 1
    if r.samples and r.numeric_max_residual is not None \
            and r.numeric_max_residual > r.tolerance:
        return 1
    return 0


def _cmd_verify(cfg: RunConfig, catalog: Catalog, out) -> int:
    hyp_id, ev_id = cfg.ids
    F = catalog.get(hyp_id, cfg.params or None)
    G = catalog.get(ev_id, cfg.params or None)
    r = verify.verify_pair(F, G, samples=cfg.samples, seed=cfg.seed,
                           tol=cfg.tolerance, direction=cfg.direction)
    if cfg.fmt == "structured":
        _emit(r.structured_lines(), out)
    else:
        _report_text(r, out)
    return _verify_exit(r)


def _cmd_verify_all(cfg: RunConfig, catalog: Catalog, out) -> int:
    reports = verify.verify_all(
        catalog, samples=cfg.samples, seed=cfg.seed, tol=cfg.tolerance,
        jobs=cfg.jobs, extra_paths=cfg.catalog_paths)
    status = 0
    first = True
    for r in reports:
        if cfg.fmt == "structured":
            if not first:
                print("", file=out)
            _emit(r.structured_lines(), out)
        else:
            _report_text(r, out)
        first = False
        status = max(status, _verify_exit(r))
    if cfg.fmt == "text":
        n_pass = sum(1 for r in reports if _verify_exit(r) == 0)
        print(f"{n_pass}/{len(reports)} pairings verified", file=out)
    return status


def _cmd_lemma(cfg: RunConfig, catalog: Catalog, out) -> int:
    ev_id = cfg.ids[0]
    hyp_id = cfg.ids[1] if len(cfg.ids) > 1 and cfg.ids[1] else None
    G = catalog.get(ev_id, cfg.params or None)
    g = verify.extract_g(G)
    lines = [
        f"evolution = {ev_id}",
        f"g = {print_expr(g, G.ctx)}",
    ]
    status = 0
    if hyp_id is not None:
        F = catalog.get(hyp_id, cfg.params or None)
        dec = verify.lemma_split(F, g)
        ok28 = N.nf_is_zero(dec.eq28)
        ok29 = N.nf_is_zero(dec.eq29)
        lines += [
            f"hyperbolic = {hyp_id}",
            f"first_condition_zero = {str(ok28).lower()}",
            f"second_condition_zero = {str(ok29).lower()}",
        ]
        if not ok28:
            lines.append(
                "first_condition = "
                f"{print_expr(N.nf_to_expr(F.ctx, dec.eq28), F.ctx)}")
        if not ok29:
            lines.append(
                "second_condition = "
                f"{print_expr(N.nf_to_expr(F.ctx, dec.eq29), F.ctx)}")
        if not (ok28 and ok29):
            status = 1
    _emit(lines, out)
    return status


def _cmd_transform(cfg: RunConfig, catalog: Catalog, out) -> int:
    defs = transforms.load_transforms(catalog)
    if cfg.ids and cfg.ids[0]:
        tid = cfg.ids[0]
        if tid not in defs:
            print(f"error: unknown transform id {tid!r}", file=sys.stderr)
            return 2
        todo = [tid]
    else:
        todo = sorted(defs)
    status = 0
    first = True
    for tid in todo:
        rep = transforms.check_transform(defs[tid], catalog)
        if cfg.fmt == "structured":
            if not first:
                print("", file=out)
            _emit(rep.structured_lines(), out)
        else:
            print(f"{rep.id}: {rep.status}"
                  + (f" via {rep.verified_convention}"
                     if rep.verified_convention else ""), file=out)
            for c in rep.conventions:
                mark = "ok" if c.residual_is_zero else \
                    f"residual terms {c.residual_term_count}"
                print(f"  {c.name}: {mark}", file=out)
                for k, v in c.fitted:
                    print(f"    {k} = {v}", file=out)
        first = False
        if not rep.ok:
            status = 1
    return status


def _cmd_sample(cfg: RunConfig, catalog: Catalog, out) -> int:
    p = numeval.sample_point(ctx=catalog.ctx, constraints=cfg.params or None,
                             seed=cfg.seed)
    lines = [f"seed = {p.seed}"]
    for name in sorted(p.assignment):
        lines.append(f"{name} = {p.assignment[name]!r}")
    worst = max(p.relation_residuals.values(), default=0.0)
    lines.append(f"max_relation_residual = {worst!r}")
    _emit(lines, out)
    return 0


_COMMANDS = {
    "list": _cmd_list,
    "show": _cmd_show,
    "verify": _cmd_verify,
    "verify-all": _cmd_verify_all,
    "lemma": _cmd_lemma,
    "transform": _cmd_transform,
    "sample": _cmd_sample,
}


def run(cfg: RunConfig, out=None) -> int:
    """Execute one configured command; returns the exit status."""
    out = out if out is not None else sys.stdout
    try:
        catalog = Catalog(extra_paths=cfg.catalog_paths)
        return _COMMANDS[cfg.command](cfg, catalog, out)
    except HypersymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    ids: List[str] = []
    for attr in ("id", "hyp", "ev"):
        value = getattr(args, attr, None)
        if value is not None:
            ids.append(value)
    if args.command == "lemma":
        ids = [args.ev] + ([args.hyp] if args.hyp else [])
    cfg.ids = tuple(ids)
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
