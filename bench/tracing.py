"""Span tracing of `sdloops` from outside the program.

`Tracer.install` rebinds each public function listed in TARGETS, in every
`sdloops` module that imported it, to a wrapper that records a span
(job, id, parent, name, start_ns, end_ns) and counts work from the
function's arguments and return value.  `uninstall` restores the
originals, so untraced jobs run the unmodified program.  Spans stay in
memory until the run ends.

A span's self time is its duration minus its children's durations, so the
self times of one job's spans add up exactly to the job's root span.
Each span name belongs to one layer metric; `unattributed_s` takes the
root span and `cli.main` (argument parsing, reading inputs, writing
outputs).
"""

from __future__ import annotations

import json
import sys
import types
from time import perf_counter_ns

__all__ = ["TARGETS", "LAYER_TIMES", "LAYER_COUNTS", "Tracer", "job_layers"]

# (module, attribute, layer metric the span's self time adds to)
TARGETS = (
    ("sdloops.dsl", "parse_model", "dsl.parse_s"),
    ("sdloops.dsl", "validate", "dsl.validate_s"),
    ("sdloops.engine", "simulate", "engine.simulate_s"),
    ("sdloops.scoring", "score_all", "scoring.score_s"),
    ("sdloops.scoring", "link_score_step", "scoring.score_s"),
    ("sdloops.scoring", "composite_scores", "scoring.composite_s"),
    ("sdloops.discovery", "enumerate_loops", "discovery.enumerate_s"),
    ("sdloops.discovery", "composite_graph", "discovery.graph_build_s"),
    ("sdloops.discovery", "step_graph", "discovery.graph_build_s"),
    ("sdloops.discovery", "WeightedDigraph.from_edges", "discovery.graph_build_s"),
    # discover's own time is the per-step loop of the sweep
    ("sdloops.discovery", "discover", "discovery.sweep_s"),
    ("sdloops.discovery", "strongest_path_pass", "discovery.sweep_s"),
    ("sdloops.analysis", "rank_and_filter", "analysis.rank_s"),
    ("sdloops.analysis", "build_profiles", "analysis.rank_s"),
    ("sdloops.analysis", "relative_scores", "analysis.rank_s"),
    ("sdloops.analysis", "classify_polarity", "analysis.rank_s"),
    ("sdloops.analysis", "loop_score_series", "analysis.loop_series_s"),
    ("sdloops.analysis", "compare_catalogs", "analysis.compare_s"),
    ("sdloops.analysis", "ranking_to_json_dict", "cli.emit_s"),
    ("sdloops.discovery", "LoopCatalog.to_json", "cli.emit_s"),
    ("sdloops.discovery", "LoopCatalog.from_json", "cli.load_s"),
    ("sdloops.cli", "main", "unattributed_s"),
)
CLI_DUMPS = ("cli.json.dumps", "cli.emit_s")  # json.dumps as called by the CLI
ROOT = ("job", "unattributed_s")

LAYER_TIMES = tuple(dict.fromkeys([t[2] for t in TARGETS] + [CLI_DUMPS[1]]))
LAYER_COUNTS = (
    "engine.var_steps",
    "scoring.link_scores",
    "scoring.zero_frac",
    "discovery.enumerated",
    "discovery.overflow",
    "discovery.expansions",
    "discovery.loops",
    "discovery.new_loops_per_kexp",
    "analysis.loop_series_calls",
    "analysis.loops_ranked",
)


def _span_name(module: str, attr: str) -> str:
    return module.removeprefix("sdloops.") + "." + attr


class Tracer:
    """Records spans and per-job counts while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.layer_of = {_span_name(m, a): layer for m, a, layer in TARGETS}
        self.layer_of[CLI_DUMPS[0]] = CLI_DUMPS[1]
        self.layer_of[ROOT[0]] = ROOT[1]
        self.curve: list[tuple] = []  # (job, found_at, expansions, new loops)
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._job = -1
        self._counts: dict[str, float] = {}

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import sdloops.cli  # noqa: F401  (loads every module the CLI uses)

        modules = [m for n, m in sys.modules.items() if n == "sdloops" or n.startswith("sdloops.")]
        for module_name, attr, _ in TARGETS:
            module = sys.modules[module_name]
            name = _span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, name))
                else:
                    new = self._wrap(raw, name)
                self._rebind(cls, meth, new)
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, wrapped)
        proxy = types.SimpleNamespace(dumps=self._wrap(json.dumps, CLI_DUMPS[0]), loads=json.loads)
        self._rebind(sys.modules["sdloops.cli"], "json", proxy)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, value = self._undo.pop()
            setattr(obj, key, value)

    def _rebind(self, obj, key: str, value) -> None:
        self._undo.append((obj, key, obj.__dict__[key]))
        setattr(obj, key, value)

    # -- recording ----------------------------------------------------------

    def run_job(self, job: int, fn):
        """Call fn() as job number `job` under a root span; returns
        fn's result and the root span's duration in nanoseconds."""
        self._job = job
        self._counts = {"zeros": 0, "new_loops": 0}
        root = len(self.spans)
        result = self._wrap(fn, ROOT[0])()
        start, end = self.spans[root][4:6]
        return result, end - start

    def _wrap(self, fn, name: str):
        spans = self.spans
        stack = self._stack
        count = getattr(self, "_count_" + name.replace(".", "_"), None)

        def traced(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((self._job, sid, parent, name, 0, 0))
            stack.append(sid)
            before = len(args[1]) if name == "discovery.strongest_path_pass" else None
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[sid] = (self._job, sid, parent, name, start, end)
            if count is not None:
                count(args, kwargs, result, before, parent)
            return result

        return traced

    def _add(self, key: str, value: float) -> None:
        self._counts[key] = self._counts.get(key, 0) + value

    def _returned_to_caller(self, parent: int) -> bool:
        """True when the span's parent lies outside the discovery layer."""
        return parent < 0 or not self.layer_of[self.spans[parent][3]].startswith("discovery.")

    def _count_engine_simulate(self, args, kwargs, run, before, parent):
        self._add("engine.var_steps", len(run.variables) * len(run.times))

    def _count_scoring_link_score_step(self, args, kwargs, scores, before, parent):
        self._add("scoring.link_scores", len(scores))
        self._add("zeros", sum(1 for s in scores.values() if s == 0.0))

    def _count_discovery_enumerate_loops(self, args, kwargs, catalog, before, parent):
        self._add("discovery.enumerated", len(catalog))
        self._counts["discovery.overflow"] = max(self._counts.get("discovery.overflow", 0), int(catalog.overflow))
        if self._returned_to_caller(parent):
            self._add("discovery.loops", len(catalog))

    def _count_discovery_discover(self, args, kwargs, catalog, before, parent):
        self._add("discovery.loops", len(catalog))

    def _count_discovery_strongest_path_pass(self, args, kwargs, expansions, before, parent):
        new = len(args[1]) - before
        self._add("discovery.expansions", expansions)
        self._add("new_loops", new)
        if self._returned_to_caller(parent):
            self._add("discovery.loops", len(args[1]))
        found_at = kwargs.get("found_at", args[3] if len(args) > 3 else "static")
        self.curve.append((self._job, found_at, expansions, new))

    def _count_analysis_loop_score_series(self, args, kwargs, series, before, parent):
        self._add("analysis.loop_series_calls", 1)

    def _count_analysis_rank_and_filter(self, args, kwargs, profiles, before, parent):
        self._add("analysis.loops_ranked", len(profiles))

    def job_counts(self) -> dict[str, float]:
        """Counts of the most recent job, one value per LAYER_COUNTS name."""
        c = self._counts
        links = c.get("scoring.link_scores", 0)
        expansions = c.get("discovery.expansions", 0)
        derived = {
            "scoring.zero_frac": c["zeros"] / links if links else 0.0,
            "discovery.new_loops_per_kexp": 1000.0 * c["new_loops"] / expansions if expansions else 0.0,
        }
        return {name: derived.get(name, c.get(name, 0)) for name in LAYER_COUNTS}


def job_layers(spans: list[tuple], layer_of: dict[str, str], job: int) -> dict[str, int]:
    """Self time in nanoseconds per layer metric for one job's spans."""
    own = [s for s in spans if s[0] == job]
    self_ns = {s[1]: s[5] - s[4] for s in own}
    for s in own:
        if s[2] >= 0:
            self_ns[s[2]] -= s[5] - s[4]
    layers = dict.fromkeys(LAYER_TIMES, 0)
    for s in own:
        layers[layer_of[s[3]]] += self_ns[s[1]]
    return layers
