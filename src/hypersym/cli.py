"""Command-line front end: catalog browsing, pair verification, lemma
decomposition, transform checks, and numeric sampling.

Exit status: 0 when every requested check passed, 1 when a check failed
(a residual is nonzero where zero is claimed), 2 on usage or data errors,
an unknown or empty transform id among them (main reports every
HypersymError).  Output comes in two formats: ``text`` (human-oriented,
not stable) and ``structured`` (line-oriented ``key = value`` pairs,
deterministic for a fixed seed, safe to pin byte-for-byte in CI; reports
print as blocks a blank line apart, through one writer).  Each subcommand
reads the parsed arguments itself and prints to stdout; extra catalog
files come from ``--catalog`` and then from the ``HYPERSYM_CATALOG``
environment variable (a path list).
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from fractions import Fraction
from typing import Iterable, List, Optional, Sequence, Tuple

from . import numeval, transforms, verify
from .catalog import Catalog
from .errors import HypersymError
from .expr import normal as N
from .expr.parser import print_expr

ENV_CATALOG = "HYPERSYM_CATALOG"


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

    def add_verify_opts(p) -> None:
        p.add_argument("--samples", type=int, default=0,
                       help="numeric cross-check sample count (0: exact only)")
        p.add_argument("--tol", type=float, default=verify.DEFAULT_TOL,
                       help="relative tolerance of the numeric verdict")
        p.add_argument("--seed", type=int, default=0,
                       help="seed of the numeric sampler (default 0)")

    p = sub.add_parser("verify", help="verify one hyperbolic/evolution pair")
    p.add_argument("hyp")
    p.add_argument("ev")
    p.add_argument("--param", action="append", default=[],
                   type=_parse_param, metavar="NAME=VALUE",
                   help="bind a parameter to an exact rational")
    add_verify_opts(p)
    p.add_argument("--dir", choices=("x", "y"), default="x",
                   dest="direction", help="direction of the claimed symmetry")

    p = sub.add_parser("verify-all", help="verify every shipped pairing")
    add_verify_opts(p)
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


def _catalog_paths(args: argparse.Namespace) -> List[str]:
    """The --catalog paths, then those listed in $HYPERSYM_CATALOG."""
    env = os.environ.get(ENV_CATALOG, "")
    return list(args.catalog) + [p for p in env.split(os.pathsep) if p]


# ---------------------------------------------------------------------------
# subcommands: each reads the parsed arguments and prints to stdout
# ---------------------------------------------------------------------------

def _cmd_list(args: argparse.Namespace, catalog: Catalog) -> int:
    entries = catalog.list(args.role)
    if args.fmt == "structured":
        lines = [f"entries = {len(entries)}"]
        for i, e in enumerate(entries):
            lines += [
                f"entry[{i}].id = {e.id}",
                f"entry[{i}].role = {e.role}",
                f"entry[{i}].params = {', '.join(str(p) for p in e.params)}",
                f"entry[{i}].expr = {e.expr_text}",
            ]
        print(*lines, sep="\n")
    else:
        width = max(len(e.id) for e in entries)
        for e in entries:
            params = f"  [{', '.join(str(p) for p in e.params)}]" \
                if e.params else ""
            print(f"{e.id:<{width}}  {e.role:<10} {e.expr_text}{params}")
    return 0


def _cmd_show(args: argparse.Namespace, catalog: Catalog) -> int:
    tid = args.id
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
        print(*lines, sep="\n")
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
        print(*lines, sep="\n")
        return 0
    print(f"error: unknown id {tid!r}", file=sys.stderr)
    return 2


def _print_records(records: Iterable[List[str]]) -> None:
    """Structured records, one block of lines each, a blank line apart."""
    print("\n\n".join("\n".join(lines) for lines in records))


def _report_text(r: verify.VerificationReport) -> None:
    verdict = "zero" if r.residual_is_zero else "NONZERO"
    print(f"{r.key}: residual {verdict} "
          f"({r.residual_term_count} terms, {r.elapsed:.2f}s)")
    for mono, coeff in r.failing_coefficients:
        print(f"  coefficient of {mono}: {coeff}")
    if r.failing_total > len(r.failing_coefficients):
        print(f"  ({len(r.failing_coefficients)} of {r.failing_total} "
              f"failing coefficients shown)")
    if r.cleared_denominator is not None:
        print(f"  cleared denominator: {r.cleared_denominator}")
    if r.samples:
        print(f"  numeric: max relative residual {r.numeric_max_residual:.3e}"
              f" over {r.samples} samples (tol {r.tolerance:g}, "
              f"seed {r.seed})")


def _verify_exit(r: verify.VerificationReport) -> int:
    if not r.residual_is_zero:
        return 1
    if r.samples and r.numeric_max_residual is not None \
            and r.numeric_max_residual > r.tolerance:
        return 1
    return 0


def _cmd_verify(args: argparse.Namespace, catalog: Catalog) -> int:
    params = dict(args.param) or None
    F = catalog.get(args.hyp, params)
    G = catalog.get(args.ev, params)
    r = verify.verify_pair(F, G, samples=args.samples, seed=args.seed,
                           tol=args.tol, direction=args.direction)
    if args.fmt == "structured":
        _print_records([r.structured_lines()])
    else:
        _report_text(r)
    return _verify_exit(r)


def _cmd_verify_all(args: argparse.Namespace, catalog: Catalog) -> int:
    reports = verify.verify_all(catalog, samples=args.samples, seed=args.seed,
                                tol=args.tol, jobs=args.jobs)
    if args.fmt == "structured":
        _print_records(r.structured_lines() for r in reports)
    else:
        for r in reports:
            _report_text(r)
        n_pass = sum(1 for r in reports if _verify_exit(r) == 0)
        print(f"{n_pass}/{len(reports)} pairings verified")
    return max(map(_verify_exit, reports), default=0)


def _cmd_lemma(args: argparse.Namespace, catalog: Catalog) -> int:
    params = dict(args.param) or None
    G = catalog.get(args.ev, params)
    g = verify.extract_g(G)
    lines = [
        f"evolution = {args.ev}",
        f"g = {print_expr(g, G.ctx)}",
    ]
    status = 0
    if args.hyp:
        F = catalog.get(args.hyp, params)
        dec = verify.lemma_split(F, g)
        ok28 = N.nf_is_zero(dec.eq28)
        ok29 = N.nf_is_zero(dec.eq29)
        lines += [
            f"hyperbolic = {args.hyp}",
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
    print(*lines, sep="\n")
    return status


def _cmd_transform(args: argparse.Namespace, catalog: Catalog) -> int:
    if args.id is None:
        reports = transforms.check_all(catalog)
    else:
        reports = [transforms.check_transform(args.id, catalog)]
    if args.fmt == "structured":
        _print_records(rep.structured_lines() for rep in reports)
    else:
        for rep in reports:
            print(f"{rep.id}: {rep.status}"
                  + (f" via {rep.verified_convention}"
                     if rep.verified_convention else ""))
            for c in rep.conventions:
                mark = "ok" if c.residual_is_zero else \
                    f"residual terms {c.residual_term_count}"
                print(f"  {c.name}: {mark}")
                for k, v in c.fitted:
                    print(f"    {k} = {v}")
    return 0 if all(rep.ok for rep in reports) else 1


def _cmd_sample(args: argparse.Namespace, catalog: Catalog) -> int:
    p = numeval.sample_point(catalog.ctx.bind(dict(args.param)), args.seed)
    lines = [f"seed = {p.seed}"]
    for name in sorted(p.assignment):
        lines.append(f"{name} = {p.assignment[name]!r}")
    worst = max(p.relation_residuals.values(), default=0.0)
    lines.append(f"max_relation_residual = {worst!r}")
    print(*lines, sep="\n")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line; returns the exit status."""
    args = _build_parser().parse_args(argv)
    tol = getattr(args, "tol", 1.0)
    if not math.isfinite(tol):  # x > nan is always False: no disagreement
        print("error: tolerance must be finite", file=sys.stderr)
        return 2
    if tol <= 0:
        print("error: tolerance must be positive", file=sys.stderr)
        return 2
    if getattr(args, "samples", 0) < 0:
        print("error: samples must be nonnegative", file=sys.stderr)
        return 2
    if getattr(args, "jobs", 0) < 0:
        print("error: jobs must be nonnegative", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, Catalog(_catalog_paths(args)))
    except HypersymError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
