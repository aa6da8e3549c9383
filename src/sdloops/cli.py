"""Command-line interface.

Exit codes: 0 success, 1 usage error (bad flags or unreadable input
paths), 2 input diagnostics (parse/validate failures, malformed or
non-UTF-8 input files), 3 runtime failure
(aborted simulation, exhausted loop cap in forced exhaustive mode, a
non-finite number in JSON output).
All commands are deterministic for identical inputs and flags.
"""

from __future__ import annotations

import argparse
import json  # noqa: F401  (unused here; bench/tracing.py rebinds sdloops.cli.json to time json.dumps)
import math
import sys
from json import JSONDecodeError
from pathlib import Path

from ._jsonutil import indented_json
from .analysis import (
    AnalysisError,
    compare_catalogs,
    profiles_to_csv,
    rank_and_filter,
    ranking_to_json_dict,
)
from .discovery import (
    LoopCatalog,
    MalformedCycleError,
    WeightedDigraph,
    discover,
    enumerate_loops,
    strongest_path_pass,
)
from .dsl import Diagnostic, ModelError, RunSpec, parse_model, validate
from .engine import SimulationError, run_to_csv, simulate
from .fixtures import SyntheticSpec, gen_synthetic
from .scoring import score_all, series_to_csv

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DIAGNOSTICS = 2
EXIT_RUNTIME = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"file not found: {path}")
    try:
        return p.read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        problem = f"not UTF-8 text (byte {err.object[err.start]:#04x} at offset {err.start})"
        raise ModelError([Diagnostic(f"{path}: {problem}")]) from None


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _emit_json(render, out: str | None) -> int:
    """Write the JSON text `render()` returns (indented_json, strict):
    NaN or Infinity is a runtime failure, and nothing is written."""
    try:
        text = render() + "\n"  # one copy of the text stays alive while it is written
    except ValueError as err:
        print(f"error: non-finite number in JSON output ({err})", file=sys.stderr)
        return EXIT_RUNTIME
    _emit(text, out)
    return EXIT_OK


def _load_model(path: str):
    model = parse_model(_read_text(path))
    diags = validate(model)
    if diags:
        raise ModelError(diags)
    for w in model.warnings:
        print(str(w), file=sys.stderr)
    return model


def _run_spec(model, args) -> RunSpec:
    base = model.run_spec
    spec = RunSpec(
        base.start if args.start is None else args.start,
        base.stop if args.stop is None else args.stop,
        base.dt if args.dt is None else args.dt,
    )
    problems = spec.problems()
    if problems:
        raise _UsageError("; ".join(problems))
    return spec


def _parse_edge_csv(text: str) -> list[tuple[str, str, float]]:
    edges = []
    first_row: dict[tuple[str, str], int] = {}
    lines = text.splitlines()
    for i, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        if i == 1 and line.lower().replace(" ", "") == "src,dst,weight":
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 3 or not parts[0] or not parts[1]:
            raise ModelError([Diagnostic(f"malformed edge row: {line!r}", None)])
        try:
            w = float(parts[2])
        except ValueError:
            raise ModelError([Diagnostic(f"malformed weight in row {i}: {parts[2]!r}", None)]) from None
        if not math.isfinite(w):
            raise ModelError([Diagnostic(f"non-finite weight in row {i}: {parts[2]!r}", None)])
        pair = (parts[0], parts[1])
        if pair in first_row:
            raise ModelError(
                [Diagnostic(f"duplicate edge {pair[0]},{pair[1]} in row {i} (first in row {first_row[pair]})", None)]
            )
        first_row[pair] = i
        edges.append((parts[0], parts[1], w))
    return edges


def _load_catalog(path: str) -> LoopCatalog:
    """Read a catalog JSON file; content that is not a loop catalog is a
    diagnostic naming the file."""
    text = _read_text(path)
    try:
        return LoopCatalog.from_json(text)
    except JSONDecodeError as err:
        problem = f"not valid JSON ({err})"
    except RecursionError:
        problem = "JSON nested too deeply"
    except AttributeError:
        # from_json_dict reads the top level with dict.get
        problem = "the top level is not a JSON object"
    except KeyError as err:
        problem = f"a loop is missing the field {err}"
    except MalformedCycleError as err:
        problem = str(err)
    except (TypeError, ValueError) as err:
        problem = f"malformed loop entry ({err})"
    raise ModelError([Diagnostic(f"{path}: {problem}")])


# --------------------------------------------------------------------------
# Commands

def cmd_simulate(args) -> int:
    model = _load_model(args.model)
    run = simulate(model, _run_spec(model, args))
    _emit(run_to_csv(run), args.out)
    return EXIT_OK


def cmd_analyze(args) -> int:
    if args.cap < 1:
        raise _UsageError("--cap must be >= 1")
    if args.stride < 1:
        raise _UsageError("--stride must be >= 1")
    if not 0.0 <= args.threshold < 1.0:
        raise _UsageError("--threshold must be in [0, 1)")
    if args.top < 1:
        raise _UsageError("--top must be >= 1")

    model = _load_model(args.model)
    run = simulate(model, _run_spec(model, args))
    series = score_all(model, run)
    catalog = discover(model, series, cap=args.cap, stride=args.stride, method=args.method)
    if args.method == "exhaustive" and catalog.overflow:
        print(f"error: cap exceeded; {len(catalog)} loops found before truncation", file=sys.stderr)
        return EXIT_RUNTIME

    profiles = rank_and_filter(catalog, series, threshold=args.threshold, top=args.top)
    metadata = {
        "model": args.model,
        "method": args.method,
        "cap": args.cap,
        "stride": args.stride,
        "threshold": args.threshold,
        "top": args.top,
        "loops_discovered": len(catalog),
        "loops_after_filter": len(profiles),
    }
    ranking = ranking_to_json_dict(profiles, catalog, metadata)
    if _emit_json(lambda: indented_json(ranking), args.out) != EXIT_OK:
        return EXIT_RUNTIME
    if args.csv:
        Path(args.csv).write_text(profiles_to_csv(profiles, run.times), encoding="utf-8")
    if args.links_csv:
        Path(args.links_csv).write_text(series_to_csv(series), encoding="utf-8")
    return EXIT_OK


def cmd_graph_loops(args) -> int:
    if args.cap < 1:
        raise _UsageError("--cap must be >= 1")
    edges = _parse_edge_csv(_read_text(args.edges))
    graph = WeightedDigraph.from_edges(edges)
    if args.start != "all" and args.start not in graph.out:
        raise ModelError([Diagnostic(f"start node {args.start} is not in the graph")])

    if args.method == "exhaustive":
        catalog = enumerate_loops(graph, cap=args.cap)
    else:
        catalog = LoopCatalog(provenance="strongest-path")
        targets = None if args.start == "all" else [args.start]
        strongest_path_pass(graph, catalog, targets=targets)
    return _emit_json(catalog.to_json, args.out)


def cmd_gen(args) -> int:
    try:
        spec = SyntheticSpec(stocks=args.stocks, density=args.density, seed=args.seed)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    _emit(gen_synthetic(spec), args.out)
    return EXIT_OK


def cmd_compare(args) -> int:
    if args.top < 1:
        raise _UsageError("--top must be >= 1")
    if not 0.0 <= args.near_miss_ratio <= 1.0:  # also rejects NaN
        raise _UsageError("--near-miss-ratio must be a number in [0, 1]")
    reference = _load_catalog(args.reference)
    candidate = _load_catalog(args.candidate)
    series = None
    if args.model:
        model = _load_model(args.model)
        names = set(model.names())
        for catalog, label in ((reference, "reference"), (candidate, "candidate")):
            for rec in catalog.loops():
                missing = [v for v in rec.cycle if v not in names]
                if missing:
                    raise ModelError(
                        [Diagnostic(f"{label} catalog references unknown variables: {', '.join(missing)}")]
                    )
        run = simulate(model)
        series = score_all(model, run)
    report = compare_catalogs(
        reference, candidate, series, top_n=args.top, near_miss_ratio=args.near_miss_ratio
    )
    return _emit_json(lambda: indented_json(report.to_json_dict()), args.out)


# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sdloops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a model and emit the full time series as CSV")
    p.add_argument("model")
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="simulate, score links, discover loops, rank contributions")
    p.add_argument("model")
    p.add_argument("--method", choices=["auto", "exhaustive", "strongest-path"], default="auto")
    p.add_argument("--cap", type=int, default=1000)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--top", type=int, default=200)
    p.add_argument("--start", type=float, default=None)
    p.add_argument("--stop", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", default=None, help="ranking JSON path (default stdout)")
    p.add_argument("--csv", default=None, help="per-step loop score CSV path")
    p.add_argument("--links-csv", default=None, help="per-step link score CSV path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph-loops", help="find loops in a static weighted edge list")
    p.add_argument("edges", help="CSV file with header src,dst,weight")
    p.add_argument("--start", default="all", help="restrict search starts to one node")
    p.add_argument("--method", choices=["exhaustive", "strongest-path"], default="exhaustive")
    p.add_argument("--cap", type=int, default=1000)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_graph_loops)

    p = sub.add_parser("gen", help="generate a dense synthetic model")
    p.add_argument("--stocks", type=int, required=True)
    p.add_argument("--density", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("compare", help="compare two loop catalog JSON files")
    p.add_argument("reference")
    p.add_argument("candidate")
    p.add_argument("--model", default=None, help="model to score both catalogs against")
    p.add_argument("--top", type=int, default=15)
    p.add_argument("--near-miss-ratio", type=float, default=0.6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except ModelError as err:
        for diag in err.diagnostics:
            print(str(diag), file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except AnalysisError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_DIAGNOSTICS
    except SimulationError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
