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

# each command imports the modules beyond core that it needs, so a call
# loads only what its subcommand uses
from . import core
from .core import (
    BudgetExceeded,
    HypergraphSpec,
    RegimeError,
    SigmaHypergraphError,
    ValidationError,
)

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


def _parents() -> tuple[_Parser, _Parser]:
    """The parent parsers of the spec options and of --format."""
    spec = _Parser(add_help=False)
    spec.add_argument("--n", type=int, help="number of classes")
    spec.add_argument("--q", type=int, help="vertices per class")
    spec.add_argument("--sigma", type=str, help="comma-separated parts, e.g. 4,3,2")
    spec.add_argument("--spec", type=str, help="JSON file with {n, q, sigma}")
    fmt = _Parser(add_help=False)
    fmt.add_argument("--format", choices=("table", "json"), default="table", help="output format")
    return spec, fmt


def _read_json(fh: TextIO) -> object:
    """Parse one JSON document from an open file; nesting too deep for the
    parser is invalid input, not a crash."""
    try:
        return json.load(fh)
    except RecursionError:
        raise ValidationError(f"{fh.name}: JSON nested too deeply") from None


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated option value; empty items are skipped."""
    try:
        return [int(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise _UsageError(f"{flag} must be comma-separated integers, got {core._brief(text)}")


def _load_spec(args: argparse.Namespace) -> core.HypergraphSpec:
    inline = args.n is not None or args.q is not None or args.sigma is not None
    if args.spec is not None and inline:
        raise _UsageError("give either --spec FILE or inline --n/--q/--sigma, not both")
    if args.spec is not None:
        with open(args.spec, "r", encoding="utf-8") as fh:
            return core.spec_from_json(_read_json(fh))
    if args.n is None or args.q is None or args.sigma is None:
        raise _UsageError("spec needs --n, --q and --sigma (or --spec FILE)")
    return core.make_spec(args.n, args.q, _int_list("--sigma", args.sigma))


def _budget():
    """The oracle budget: the defaults scaled by the factor in
    SIGMA_HYPER_BUDGET, if set."""
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
    from .oracle import DEFAULT_BUDGET as base, OracleBudget

    try:
        return OracleBudget(
            max(1, int(base.max_vertices * factor)),
            max(1, int(base.max_edges * factor)),
            base.time_limit * factor,
        )
    except OverflowError:
        raise _UsageError(f"{BUDGET_ENV} is too large, got {core._brief(raw)}") from None


def _render_table(payload: dict | list, indent: int = 0) -> None:
    out, pad = sys.stdout, "  " * indent
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, core.Matching):
                value = core.matching_to_json(value)
            if isinstance(value, (dict, list)):
                out.write(f"{pad}{key}:\n")
                _render_table(value, indent + 1)
            else:
                out.write(f"{pad}{key}: {value}\n")
    else:
        for item in payload:
            if isinstance(item, (dict, list)):
                _render_table(item, indent)
                out.write("\n" if indent == 0 else "")
            else:
                out.write(f"{pad}- {item}\n")


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        core.write_json(sys.stdout, payload)
    else:
        _render_table(payload)


# Each command but sweep is given the spec and the payload ``run`` starts with
# "spec", and fills in its own keys; none writes to stdout.


def _cmd_alpha(spec: HypergraphSpec, args: argparse.Namespace, payload: dict) -> None:
    from . import independence

    def entry(k: int) -> dict:
        value, profile = independence.alpha_k_witness(spec, k)
        return {"k": k, "alpha_k": value, "profile": list(profile)}

    if args.all:
        if spec.r < 2:
            raise ValidationError("no valid k exists when r = 1")
        payload["values"] = [entry(k) for k in range(1, spec.r)]
    elif args.k is None:
        raise _UsageError("alpha needs --k K or --all")
    else:
        payload.update(entry(args.k))


def _cmd_alpha_closed(spec: HypergraphSpec, args: argparse.Namespace, payload: dict) -> None:
    from . import independence

    payload["alpha"], payload["j"] = independence.alpha(spec)


def _cmd_bounds(spec: HypergraphSpec, args: argparse.Namespace, payload: dict) -> None:
    from . import independence

    b = independence.colouring_bounds(spec, args.alpha, args.beta)
    payload.update(
        alpha=b.alpha_param, beta=b.beta_param, alpha_beta_independence=b.alpha_beta_ind,
        independence=b.alpha_ind, chi_lower=b.chi_lower, feasible=b.feasible,
    )


def _cmd_match(spec: HypergraphSpec, args: argparse.Namespace, payload: dict) -> None:
    from . import matching

    try:
        report = matching.STRATEGIES[args.strategy](spec)
    except (OverflowError, MemoryError) as exc:
        raise ValidationError(
            f"{spec} has {spec.num_vertices} vertices, too large to match in memory"
        ) from exc
    payload.update(matching.report_to_json(report))
    if args.emit:
        payload["matching"] = report.matching


def _cmd_verify(spec: HypergraphSpec, args: argparse.Namespace, payload: dict) -> None:
    if args.matching == "-":
        obj = _read_json(sys.stdin)
    else:
        with open(args.matching, "r", encoding="utf-8") as fh:
            obj = _read_json(fh)
    if isinstance(obj, dict) and "matching" in obj:
        obj = obj["matching"]
    report = core.verify_matching(spec, core.matching_from_json(obj))
    payload["ok"] = report.ok
    payload["violations"] = [{"kind": v.kind, "message": v.message} for v in report.violations]


def _cmd_edges(spec: HypergraphSpec, args: argparse.Namespace, payload: dict) -> None:
    payload["count"] = core.count_edges(spec)
    if args.list:
        from .oracle import check_edges

        check_edges(spec, _budget(), "edges --list")
        payload["edges"] = [core.edge_to_json(e) for e in core.enumerate_edges(spec)]


def _cmd_oracle(spec: HypergraphSpec, args: argparse.Namespace, payload: dict) -> None:
    from . import oracle

    budget = _budget()
    payload["oracle"] = args.which
    if args.which == "alpha":
        if args.k is None:
            raise _UsageError("oracle alpha needs --k")
        payload.update(alpha_k=oracle.bf_alpha_k(spec, args.k, budget), k=args.k)
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
        counts = core._checked_profile(spec, _int_list("--profile", args.profile))
        oracle.check_edges(spec, budget, "bf_max_intersection")
        # an edgeless spec answers 0 for any set, so it is given an empty one
        b_set = core.VertexSet.from_profile(spec, counts if spec.has_edges else [])
        payload["profile"] = counts
        payload["max_intersection"] = oracle.bf_max_intersection(spec, b_set, budget)


def _cmd_sweep(args: argparse.Namespace, payload: dict) -> None:
    """The paper's worked example; it has no spec, so ``run`` calls it apart."""
    from . import independence

    if not args.paper_example:
        raise _UsageError("sweep needs --paper-example")
    entries = payload["entries"] = []
    for k in (6, 7, 8):
        for n in range(args.n_min, args.n_max + 1):
            for q in range(args.q_min, args.q_max + 1):
                spec = core.make_spec(n, q, [4, 3, 2])
                entries.append({"k": k, "n": n, "q": q, "alpha_k": independence.alpha_k(spec, k)})


def _sweep_table(args: argparse.Namespace, entries: list[dict]) -> None:
    """sweep's table format: an n x q grid of alpha_k for each k."""
    for k in (6, 7, 8):
        sys.stdout.write(f"alpha_{k} for sigma=(4,3,2)\n")
        header = "n\\q " + " ".join(f"{q:>4}" for q in range(args.q_min, args.q_max + 1))
        sys.stdout.write(header + "\n")
        for n in range(args.n_min, args.n_max + 1):
            row = [e["alpha_k"] for e in entries if e["k"] == k and e["n"] == n]
            sys.stdout.write(f"{n:>4} " + " ".join(f"{v:>4}" for v in row) + "\n")
        sys.stdout.write("\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="sigmahg", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    spec, fmt = _parents()
    both = [spec, fmt]

    p = sub.add_parser("alpha", parents=both, help="k-independence number")
    p.add_argument("--k", type=int)
    p.add_argument("--all", action="store_true", help="all k in 1..r-1")
    p.set_defaults(func=_cmd_alpha)

    p = sub.add_parser("alpha-closed", parents=both, help="closed-form independence number")
    p.set_defaults(func=_cmd_alpha_closed)

    p = sub.add_parser("bounds", parents=both, help="constrained-colouring bounds")
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("match", parents=both, help="construct a matching")
    p.add_argument(
        "--strategy",  # the keys of matching.STRATEGIES, spelt out so no other command imports it
        choices=("auto", "diagonal", "rectangular", "rgood", "greedy"),
        default="auto",
    )
    p.add_argument("--emit", action="store_true", help="include the full matching")
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("verify", parents=both, help="check a matching file")
    p.add_argument("--matching", required=True, help="JSON file, or - for stdin")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("edges", parents=both, help="edge census")
    p.add_argument("--list", action="store_true")
    p.set_defaults(func=_cmd_edges)

    p = sub.add_parser("oracle", parents=both, help="brute-force reference values")
    p.add_argument("which", choices=("alpha", "match", "colouring", "intersection"))
    p.add_argument("--k", type=int)
    p.add_argument("--alpha", type=int)
    p.add_argument("--beta", type=int)
    p.add_argument("--profile", type=str)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("sweep", parents=[fmt], help="worked-example tables")
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
        if args.func is _cmd_sweep:
            payload = {"sigma": [4, 3, 2]}
            _cmd_sweep(args, payload)
            if args.format == "table":
                _sweep_table(args, payload["entries"])
                return EXIT_OK
        else:
            spec = _load_spec(args)
            payload = {"spec": core.spec_to_json(spec)}
            args.func(spec, args, payload)
        _emit(payload, args.format)
        return EXIT_VIOLATIONS if payload.get("ok") is False else EXIT_OK
    except (
        _UsageError, SigmaHypergraphError, json.JSONDecodeError, UnicodeDecodeError, OSError
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        if isinstance(exc, RegimeError):
            return EXIT_REGIME
        return EXIT_BUDGET if isinstance(exc, BudgetExceeded) else EXIT_INVALID


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
