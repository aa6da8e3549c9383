"""Command-line interface.

Exit codes: 0 success, 1 usage error (bad flags, unreadable input
paths, unwritable or repeated output paths, standard output), 2 input
diagnostics (parse/validate failures, malformed or non-UTF-8 input
files), 3 runtime failure (aborted simulation, exhausted loop cap in
forced exhaustive mode, a non-finite number in JSON output).
All commands are deterministic for identical inputs and flags.

A JSON document is checked for NaN and infinities before its output is
opened, then written piece by piece as it is rendered, so a failed
check writes nothing and no document is held whole in memory.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import json  # noqa: F401  (unused here; bench/tracing.py rebinds sdloops.cli.json to time json.dumps)
import math
import os
import sys
from collections.abc import Iterable, Iterator
from itertools import chain
from pathlib import Path

from ._jsonutil import indented_json_pieces, iter_ranking_json
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
    _gc_paused,
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


class _RuntimeFailure(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read_text(path: str) -> str:
    p = Path(path)
    if not p.is_file():
        raise _UsageError(f"file not found: {path}")
    try:
        return p.read_text(encoding="utf-8").removeprefix("\ufeff")  # a byte-order mark is not text
    except UnicodeDecodeError as err:
        problem = f"not UTF-8 text (byte {err.object[err.start]:#04x} at offset {err.start})"
        raise ModelError([Diagnostic(f"{path}: {problem}")]) from None
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err.strerror}") from None


def _emit(path: str | None, pieces: Iterable[str]) -> None:
    """Write each piece as it comes to the file at `path`, opened first, or
    to standard output; failing to is a usage error.  A JSON document
    comes through _json_pieces, which has checked it by then."""
    try:
        if path:
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(pieces)
        elif sys.stdout is None:  # the process was started with it closed
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.writelines(pieces)
            sys.stdout.flush()
    except OSError as err:
        if not path:  # else what is still buffered fails again at exit: "Exception ignored", status 120
            with contextlib.suppress(AttributeError, OSError, ValueError), open(os.devnull, "wb") as devnull:
                os.dup2(devnull.fileno(), sys.stdout.fileno())  # fails on None or an object with no file
        raise _UsageError(f"cannot write {path or 'standard output'}: {err.strerror}") from None


def _json_pieces(render) -> Iterator[str]:
    """`render()`'s JSON pieces and a final line break, for _emit.  The
    writers of `_jsonutil` check the whole document before they yield its
    first piece, and that piece is taken here, before the output is opened:
    NaN or Infinity is a runtime failure that writes nothing."""
    try:
        pieces = iter(render())
        first = next(pieces)
    except ValueError as err:
        raise _RuntimeFailure(f"non-finite number in JSON output ({err})") from None
    return chain((first,), pieces, ("\n",))


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
    diagnostic naming the file.  from_json makes each loop its stored tuple
    as the text is parsed, so a catalog is held as its text and its tuples,
    not also as parsed dicts and lists."""
    try:
        return LoopCatalog.from_json(_read_text(path))
    except MalformedCycleError as err:
        problem = str(err)
    except ValueError as err:  # JSONDecodeError, or an integer literal over the int digit limit
        problem = f"not valid JSON ({err})"
    except RecursionError:
        problem = "JSON nested too deeply"
    raise ModelError([Diagnostic(f"{path}: {problem}")])


# --------------------------------------------------------------------------
# Commands

def cmd_simulate(args) -> None:
    model = _load_model(args.model)
    run = simulate(model, _run_spec(model, args))
    _emit(args.out, [run_to_csv(run)])


def cmd_analyze(args) -> None:
    if args.cap is not None and args.method == "strongest-path":
        raise _UsageError("--cap needs --method auto or exhaustive")
    if args.stride is not None and args.method == "exhaustive":
        raise _UsageError("--stride needs --method auto or strongest-path")
    cap = 1000 if args.cap is None else args.cap
    stride = 1 if args.stride is None else args.stride
    if cap < 1:
        raise _UsageError("--cap must be >= 1")
    if stride < 1:
        raise _UsageError("--stride must be >= 1")
    if not 0.0 <= args.threshold < 1.0:
        raise _UsageError("--threshold must be in [0, 1)")
    if args.top < 1:
        raise _UsageError("--top must be >= 1")
    named: dict[str, str] = {}  # real path -> the first flag that names it
    for flag, path in (("--out", args.out), ("--csv", args.csv), ("--links-csv", args.links_csv)):
        if path and (other := named.setdefault(os.path.realpath(path), flag)) != flag:
            raise _UsageError(f"{other} and {flag} name the same file: {path}")
    for path in filter(None, (args.out, args.csv, args.links_csv)):  # check all before writing any
        existed = os.path.exists(path)  # False for a dangling symlink, whose target the open creates
        if existed and not (os.path.isfile(path) or os.path.isdir(path)):
            continue  # a FIFO or a device: opening it here would end its reader's input
        try:
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT))
        except OSError as err:
            raise _UsageError(f"cannot write {path}: {err.strerror}") from None
        if not existed:
            os.remove(os.path.realpath(path))

    model = _load_model(args.model)
    series = score_all(model, simulate(model, _run_spec(model, args)))  # the run is freed once scored
    catalog = discover(model, series, cap=cap, stride=stride, method=args.method)
    if args.method == "exhaustive" and catalog.overflow:
        raise _RuntimeFailure(f"cap exceeded; {len(catalog)} loops found before truncation")

    profiles = rank_and_filter(catalog, series, threshold=args.threshold, top=args.top)
    metadata = {
        "model": args.model,
        "method": args.method,
        "cap": cap,
        "stride": stride,
        "threshold": args.threshold,
        "top": args.top,
        "loops_discovered": len(catalog),
        "loops_after_filter": len(profiles),
    }
    ranking = ranking_to_json_dict(profiles, catalog, metadata)
    _emit(args.out, _json_pieces(lambda: iter_ranking_json(ranking, [p.active for p in profiles])))
    if args.csv:
        _emit(args.csv, profiles_to_csv(profiles, series.times))
    if args.links_csv:
        _emit(args.links_csv, series_to_csv(series))


def cmd_graph_loops(args) -> None:
    if args.cap is not None and args.method != "exhaustive":
        raise _UsageError("--cap needs --method exhaustive")
    cap = 1000 if args.cap is None else args.cap
    if cap < 1:
        raise _UsageError("--cap must be >= 1")
    if args.start != "all" and args.method != "strongest-path":
        raise _UsageError("--start needs --method strongest-path")
    edges = _parse_edge_csv(_read_text(args.edges))
    graph = WeightedDigraph.from_edges(edges)
    if args.start != "all" and args.start not in graph.nodes:
        raise ModelError([Diagnostic(f"start node {args.start} is not in the graph")])

    if args.method == "exhaustive":
        catalog = enumerate_loops(graph, cap=cap)
    else:
        catalog = LoopCatalog(provenance="strongest-path")
        targets = None if args.start == "all" else [args.start]
        strongest_path_pass(graph, catalog, targets=targets)
    _emit(args.out, _json_pieces(catalog.iter_json))


def cmd_gen(args) -> None:
    try:
        spec = SyntheticSpec(stocks=args.stocks, density=args.density, seed=args.seed)
    except ValueError as err:
        raise _UsageError(str(err)) from None
    _emit(args.out, [gen_synthetic(spec)])


def cmd_compare(args) -> None:
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
            for cycle, _, _ in catalog.entries():  # catalog order, without building records
                if missing := [v for v in cycle if v not in names]:
                    problem = f"{label} catalog references unknown variables: {', '.join(missing)}"
                    raise ModelError([Diagnostic(problem)])
        series = score_all(model, simulate(model))
    report = compare_catalogs(
        reference, candidate, series, top_n=args.top, near_miss_ratio=args.near_miss_ratio
    )
    _emit(args.out, _json_pieces(lambda: indented_json_pieces(report.to_json_dict())))


# --------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="sdloops", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run a model and emit the full time series as CSV")
    p.add_argument("model")
    for flag in ("--start", "--stop", "--dt"):
        p.add_argument(flag, type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="simulate, score links, discover loops, rank contributions")
    p.add_argument("model")
    p.add_argument("--method", choices=["auto", "exhaustive", "strongest-path"], default="auto")
    # None tells a flag that was not given: each is read by two of the three methods
    p.add_argument("--cap", type=int, default=None, help="enumeration cap (default 1000; not with strongest-path)")
    p.add_argument("--stride", type=int, default=None, help="sweep every Nth step (default 1; not with exhaustive)")
    p.add_argument("--threshold", type=float, default=0.0)
    p.add_argument("--top", type=int, default=200)
    for flag in ("--start", "--stop", "--dt"):
        p.add_argument(flag, type=float, default=None)
    p.add_argument("--out", default=None, help="ranking JSON path (default stdout)")
    p.add_argument("--csv", default=None, help="per-step loop score CSV path")
    p.add_argument("--links-csv", default=None, help="per-step link score CSV path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("graph-loops", help="find loops in a static weighted edge list")
    p.add_argument("edges", help="CSV file with header src,dst,weight")
    p.add_argument("--start", default="all", help="restrict search starts to one node (strongest-path only)")
    p.add_argument("--method", choices=["exhaustive", "strongest-path"], default="exhaustive")
    p.add_argument("--cap", type=int, default=None, help="enumeration cap (default 1000; exhaustive only)")
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
    """Run one command and return its exit code.  The cyclic garbage
    collector is off while it runs and is left as it was found: the
    command's catalogs, graphs and series hold no reference cycles, and
    each collection would walk every object built so far."""
    with _gc_paused():
        parser = build_parser()
        try:
            args = parser.parse_args(argv)
            args.func(args)
            return EXIT_OK
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
        except (SimulationError, _RuntimeFailure) as err:
            print(f"error: {err}", file=sys.stderr)
            return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
