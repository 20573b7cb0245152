"""Command-line interface.

Table output is for humans; JSON (``--format json``) is the machine
contract.  Exit codes: 0 success, 1 invalid input, 2 regime not applicable
or no such design, 3 budget exceeded (an oracle, or ``edges --list`` over the
edge budget), 4 verification violations.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TextIO

from . import core, independence, matching, oracle
from .core import NoRepresentation, SigmaHypergraphError, ValidationError
from .matching import NoSuchDesign, RegimeError
from .oracle import BudgetExceeded, OracleBudget

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_REGIME = 2
EXIT_BUDGET = 3
EXIT_VIOLATIONS = 4

BUDGET_ENV = "SIGMA_HYPER_BUDGET"


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _spec_parent() -> _Parser:
    parent = _Parser(add_help=False)
    parent.add_argument("--n", type=int, help="number of classes")
    parent.add_argument("--q", type=int, help="vertices per class")
    parent.add_argument("--sigma", type=str, help="comma-separated parts, e.g. 4,3,2")
    parent.add_argument("--spec", type=str, help="JSON file with {n, q, sigma}")
    parent.add_argument(
        "--format", choices=("table", "json"), default="table", help="output format"
    )
    return parent


def _read_json(fh: TextIO) -> object:
    """Parse one JSON document from an open file; nesting too deep for the
    parser is invalid input, not a crash."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValidationError(f"{fh.name}: JSON nested too deeply") from None


def _load_spec(args: argparse.Namespace) -> core.HypergraphSpec:
    inline = args.n is not None or args.q is not None or args.sigma is not None
    if args.spec is not None and inline:
        raise _UsageError("give either --spec FILE or inline --n/--q/--sigma, not both")
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return core.spec_from_json(_read_json(fh))
    if args.n is None or args.q is None or args.sigma is None:
        raise _UsageError("spec needs --n, --q and --sigma (or --spec FILE)")
    try:
        parts = [int(x) for x in args.sigma.split(",") if x.strip() != ""]
    except ValueError:
        raise _UsageError(
            f"--sigma must be comma-separated integers, got {core._brief(args.sigma)}"
        )
    return core.make_spec(args.n, args.q, parts)


def _budget() -> OracleBudget:
    factor = 1.0
    raw = os.environ.get(BUDGET_ENV)
    if raw:
        try:
            factor = float(raw)
        except ValueError:
            raise _UsageError(f"{BUDGET_ENV} must be a number, got {core._brief(raw)}")
        if factor <= 0:
            raise _UsageError(f"{BUDGET_ENV} must be positive")
        if not math.isfinite(factor):
            raise _UsageError(f"{BUDGET_ENV} must be finite, got {core._brief(raw)}")
    return OracleBudget(
        max_vertices=max(1, int(32 * factor)),
        max_edges=max(1, int(200_000 * factor)),
        time_limit=60.0 * factor,
    )


def _render_table(payload: object, indent: int = 0, out=None) -> None:
    out = out or sys.stdout
    pad = "  " * indent
    if isinstance(payload, dict):
        for key in payload:
            value = payload[key]
            if isinstance(value, (dict, list)):
                out.write(f"{pad}{key}:\n")
                _render_table(value, indent + 1, out)
            else:
                out.write(f"{pad}{key}: {value}\n")
    elif isinstance(payload, list):
        for item in payload:
            if isinstance(item, (dict, list)):
                _render_table(item, indent, out)
                out.write("\n" if indent == 0 else "")
            else:
                out.write(f"{pad}- {item}\n")
    else:
        out.write(f"{pad}{payload}\n")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
    else:
        _render_table(payload)


def _cmd_alpha(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    payload: dict = {"spec": core.spec_to_json(spec)}
    if args.all:
        if spec.r < 2:
            raise ValidationError("no valid k exists when r = 1")
        values = []
        for k in range(1, spec.r):
            value, profile = independence.alpha_k_witness(spec, k)
            values.append({"k": k, "alpha_k": value, "profile": list(profile)})
        payload["values"] = values
    else:
        if args.k is None:
            raise _UsageError("alpha needs --k K or --all")
        value, profile = independence.alpha_k_witness(spec, args.k)
        payload.update({"k": args.k, "alpha_k": value, "profile": list(profile)})
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_alpha_closed(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    value, j = independence.alpha(spec)
    _emit({"spec": core.spec_to_json(spec), "alpha": value, "j": j}, args.format)
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    b = independence.colouring_bounds(spec, args.alpha, args.beta)
    _emit(
        {
            "spec": core.spec_to_json(spec),
            "alpha": b.alpha_param,
            "beta": b.beta_param,
            "alpha_beta_independence": b.alpha_beta_ind,
            "independence": b.alpha_ind,
            "chi_lower": b.chi_lower,
            "feasible": b.feasible,
        },
        args.format,
    )
    return EXIT_OK


def _cmd_match(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if args.strategy == "auto":
        report = matching.best_matching(spec)
    elif args.strategy == "diagonal":
        report = matching.MatchingReport.of(
            spec, matching.diagonal_perfect_matching(spec), "diagonal"
        )
    elif args.strategy == "rectangular":
        report = matching.rectangular_maximum_matching(spec)
    elif args.strategy == "rgood":
        report = matching.r_good_maximum_matching(spec, permissive=args.permissive)
    else:
        report = matching.MatchingReport.of(spec, matching.greedy_matching(spec), "greedy")
    payload = {"spec": core.spec_to_json(spec)}
    payload.update(matching.report_to_json(report))
    if args.emit:
        payload["matching"] = core.matching_to_json(report.matching)
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    if args.matching == "-":
        obj = _read_json(sys.stdin)
    else:
        with open(args.matching, "r", encoding="utf-8") as fh:
            obj = _read_json(fh)
    if isinstance(obj, dict) and "matching" in obj:
        obj = obj["matching"]
    m = core.matching_from_json(obj)
    report = core.verify_matching(spec, m)
    _emit(
        {
            "spec": core.spec_to_json(spec),
            "ok": report.ok,
            "violations": [
                {"kind": v.kind, "message": v.message} for v in report.violations
            ],
        },
        args.format,
    )
    return EXIT_OK if report.ok else EXIT_VIOLATIONS


def _cmd_edges(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    count = core.count_edges(spec)
    payload: dict = {"spec": core.spec_to_json(spec), "count": count}
    if args.list:
        limit = _budget().max_edges
        if count > limit:
            raise BudgetExceeded(f"--list would print {count} edges, over the budget of {limit}")
        payload["edges"] = [core.edge_to_json(e) for e in core.enumerate_edges(spec)]
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_oracle(args: argparse.Namespace) -> int:
    spec = _load_spec(args)
    budget = _budget()
    payload: dict = {"spec": core.spec_to_json(spec), "oracle": args.which}
    if args.which == "alpha":
        if args.k is None:
            raise _UsageError("oracle alpha needs --k")
        payload["alpha_k"] = oracle.bf_alpha_k(spec, args.k, budget)
        payload["k"] = args.k
    elif args.which == "match":
        payload["nu"] = oracle.bf_max_matching(spec, budget)
    elif args.which == "colouring":
        if args.alpha is None or args.beta is None:
            raise _UsageError("oracle colouring needs --alpha and --beta")
        chi, chi_bar = oracle.bf_colouring_spectrum(spec, args.alpha, args.beta, budget)
        payload.update({"alpha": args.alpha, "beta": args.beta, "chi": chi, "chi_bar": chi_bar})
    else:  # intersection
        if args.profile is None:
            raise _UsageError("oracle intersection needs --profile, e.g. 3,1,0")
        try:
            counts = [int(x) for x in args.profile.split(",") if x.strip() != ""]
        except ValueError:
            raise _UsageError(
                f"--profile must be comma-separated integers, got {core._brief(args.profile)}"
            )
        b_set = core.VertexSet.from_profile(spec, counts)
        payload["profile"] = counts
        payload["max_intersection"] = oracle.bf_max_intersection(spec, b_set, budget)
    _emit(payload, args.format)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    if not args.paper_example:
        raise _UsageError("sweep needs --paper-example")
    entries = []
    for k in (6, 7, 8):
        for n in range(args.n_min, args.n_max + 1):
            for q in range(args.q_min, args.q_max + 1):
                spec = core.make_spec(n, q, [4, 3, 2])
                entries.append(
                    {"k": k, "n": n, "q": q, "alpha_k": independence.alpha_k(spec, k)}
                )
    payload = {"sigma": [4, 3, 2], "entries": entries}
    if args.format == "json":
        _emit(payload, "json")
        return EXIT_OK
    for k in (6, 7, 8):
        sys.stdout.write(f"alpha_{k} for sigma=(4,3,2)\n")
        header = "n\\q " + " ".join(f"{q:>4}" for q in range(args.q_min, args.q_max + 1))
        sys.stdout.write(header + "\n")
        for n in range(args.n_min, args.n_max + 1):
            row = [e["alpha_k"] for e in entries if e["k"] == k and e["n"] == n]
            sys.stdout.write(f"{n:>4} " + " ".join(f"{v:>4}" for v in row) + "\n")
        sys.stdout.write("\n")
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="sigmahg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parent = _spec_parent()

    p = sub.add_parser("alpha", parents=[parent], help="k-independence number")
    p.add_argument("--k", type=int)
    p.add_argument("--all", action="store_true", help="all k in 1..r-1")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("alpha-closed", parents=[parent], help="closed-form independence number")
    p.set_defaults(func=_cmd_alpha_closed)

    p = sub.add_parser("bounds", parents=[parent], help="constrained-colouring bounds")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("match", parents=[parent], help="construct a matching")
    p.add_argument(
        "--strategy",
        choices=("auto", "diagonal", "rectangular", "rgood", "greedy"),
        default="auto",
    )
    p.add_argument("--permissive", action="store_true")
    p.add_argument("--emit", action="store_true", help="include the full matching")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("verify", parents=[parent], help="check a matching file")
    p.add_argument("--matching", required=True, help="JSON file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("edges", parents=[parent], help="edge census")
    p.add_argument("--count", action="store_true", default=True)
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("oracle", parents=[parent], help="brute-force reference values")
    p.add_argument("which", choices=("alpha", "match", "colouring", "intersection"))
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--profile", type=str)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", parents=[parent], help="worked-example tables")
    p.add_argument("--paper-example", action="store_true")
    p.add_argument("--n-min", type=int, default=3)
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--q-min", type=int, default=4)
    p.add_argument("--q-max", type=int, default=10)
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (RegimeError, NoSuchDesign, NoRepresentation) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_REGIME
    except BudgetExceeded as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BUDGET
    except (
        _UsageError, SigmaHypergraphError, json.JSONDecodeError, UnicodeDecodeError, OSError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
