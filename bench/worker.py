"""One workload in one fresh, single-threaded interpreter.

    python3 bench/worker.py setup WORKLOAD SEED WORKDIR
        imports sdloops and sdloops.cli, writes the workload's inputs into
        WORKDIR and prints {"setup_s": ...}: the seconds both took.

    python3 bench/worker.py run WORKLOAD WORKDIR SECONDS TRACE
        analyzes the bundled fixtures (preflight), then runs jobs of the
        workload until SECONDS are spent and writes WORKDIR/result.json.
        With TRACE 1, traced and untraced jobs alternate and the spans go
        to WORKDIR/trace.json.

The program must be importable (run.py sets PYTHONPATH to its sources).
Every job is a sequence of in-process `sdloops.cli.main(argv)` calls in
WORKDIR; the checks of the outputs happen in run.py, after this process
has ended, so they add nothing to its peak memory.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

from tracing import Tracer, job_layers
from workloads import WORKLOADS, write_inputs

FIXTURES = ("ARMS_RACE", "TWO_STOCK")


def _digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def setup(workload: str, seed: int, workdir: Path) -> None:
    start = perf_counter()
    import sdloops  # noqa: F401
    import sdloops.cli  # noqa: F401

    write_inputs(workload, seed, workdir)
    print(json.dumps({"setup_s": perf_counter() - start}))


def _commands(commands) -> tuple[int, ...]:
    """Run CLI commands in order, stopping at the first non-zero exit."""
    import sdloops.cli

    codes = []
    for argv in commands:
        codes.append(sdloops.cli.main(list(argv)))  # looked up per call: tracing rebinds it
        if codes[-1] != 0:
            break
    return tuple(codes)


def _job_outputs(outputs, keep: Path | None) -> tuple[dict[str, str], int]:
    """Digest and size of each output; moved into `keep` when given."""
    digests, size = {}, 0
    for name in outputs:
        path = Path(name)
        if path.is_file():
            digests[name] = _digest(path)
            size += path.stat().st_size
            if keep is not None:
                os.replace(path, keep / name)
    return digests, size


def preflight() -> dict[str, str]:
    """Digest of `analyze` on each bundled fixture."""
    import sdloops

    digests = {}
    for fixture_name in FIXTURES:
        fixture = getattr(sdloops, fixture_name)
        Path(f"{fixture.name}.sdm").write_text(fixture.source, encoding="utf-8")
        out = f"{fixture.name}.json"
        try:
            codes = _commands([("analyze", f"{fixture.name}.sdm", "--out", out)])
        except Exception as err:  # reported as a digest mismatch by run.py
            codes = f"{type(err).__name__}: {err}"
        digests[fixture.name] = _digest(Path(out)) if codes == (0,) else f"exit {codes}"
    return digests


def _job(workload, tracer, index: int, keep: Path) -> dict:
    """Run one job, traced when a tracer is given.  A failing job is
    recorded, never skipped; the first successful job's outputs are kept
    for run.py to check."""
    for name in workload.outputs:
        Path(name).unlink(missing_ok=True)
    gc.collect()
    job = {"traced": tracer is not None, "codes": (), "error": None}
    if tracer is not None:
        tracer.install()
    t0 = perf_counter_ns()
    try:
        if tracer is None:
            job["codes"] = _commands(workload.commands)
            ns = perf_counter_ns() - t0
        else:
            job["codes"], ns = tracer.run_job(index, lambda: _commands(workload.commands))
    except Exception as err:  # the program failed: count it and go on
        job["error"] = f"{type(err).__name__}: {err}"
        ns = perf_counter_ns() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    job["ns"] = ns
    ok = job["error"] is None and all(c == 0 for c in job["codes"])
    job["digests"], job["bytes"] = _job_outputs(workload.outputs, keep if ok and not any(keep.iterdir()) else None)
    if tracer is not None:
        job["counts"] = tracer.job_counts()
    return job


def run(workload_name: str, workdir: Path, seconds: float, trace: bool) -> None:
    """Jobs until `seconds` are spent: a job starts only if a job of its
    kind, as long as the last one, would end in time.  A traced run
    alternates untraced and traced jobs and runs at least one of each."""
    workload = WORKLOADS[workload_name]
    os.chdir(workdir)
    result = {"preflight": preflight(), "jobs": []}
    jobs = result["jobs"]
    keep = Path("kept")
    keep.mkdir()
    tracer = Tracer() if trace else None

    last_ns = {}
    started = perf_counter_ns()
    while True:
        traced = trace and len(jobs) % 2 == 1
        jobs.append(_job(workload, tracer if traced else None, len(jobs), keep))
        last_ns[traced] = jobs[-1]["ns"]
        predicted = last_ns.get(trace and len(jobs) % 2 == 1, max(last_ns.values()))
        if perf_counter_ns() - started + predicted > seconds * 1e9 and (not trace or len(jobs) >= 2):
            break

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["layers"] = _layers(tracer, jobs)
    Path("result.json").write_text(json.dumps(result), encoding="utf-8")


def _layers(tracer, jobs) -> dict:
    """Per-layer self times of the fastest traced job, which add up to its
    time, and the trace file with every span and the discovery curve."""
    traced = [i for i, job in enumerate(jobs) if job["traced"]]
    per_job = {i: job_layers(tracer.spans, tracer.layer_of, i) for i in traced}
    accounted = all(sum(per_job[i].values()) == jobs[i]["ns"] for i in traced)
    fastest = min(traced, key=lambda i: jobs[i]["ns"])
    times = {name: ns / 1e9 for name, ns in per_job[fastest].items()}
    curve = [list(point[1:]) for point in tracer.curve if point[0] == fastest]
    Path("trace.json").write_text(
        json.dumps(
            {
                "columns": ["job", "id", "parent", "name", "start_ns", "end_ns"],
                "spans": tracer.spans,
                "fastest_traced_job": fastest,
                "layer_self_s": times,
                "counts": jobs[fastest]["counts"],
                "discovery_curve": {"columns": ["step", "expansions", "new_loops"], "points": curve},
            }
        ),
        encoding="utf-8",
    )
    repeated = all(jobs[i]["counts"] == jobs[fastest]["counts"] for i in traced)
    return {"times": times, "accounted": accounted, "counts_repeat": repeated}


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        setup(argv[1], int(argv[2]), Path(argv[3]))
    else:
        run(argv[1], Path(argv[2]), float(argv[3]), argv[4] == "1")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
