"""Layered benchmark of sdloops.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; the program is imported from `src/` beside this
directory.  The seed makes the workload's inputs and nothing else.  Each
workload runs in a fresh, single-threaded interpreter (bench/worker.py)
that calls `sdloops.cli.main(argv)` in process, with `--out` pointing into
a scratch directory under `.bench_work/`, so a job is what a user runs
minus interpreter start-up.  Jobs run one after another until S seconds
are spent (at least one job).  The last line of standard output is one
JSON object: correct, attempted, failed and the metrics; the lines before
it print every metric with its unit.

Jobs are kept to about a second.  On the shared 2-core machine this was
built on (an Intel Xeon VM), the speed of the same job drifts by up to
±25 % over minutes, so the median job of a 40-second run moved by as
much between runs, while the fastest of some 35 one-second jobs repeated
within a few percent.  job_s is therefore the fastest job of the run.

Workloads, and why each was chosen:

* dense-sweep: `gen_synthetic(SyntheticSpec(24, 1.0, g))`, run for 30
  steps (`analyze --stop 30`, other flags default), where the seed picks
  the generator seed g from a list whose models all do about the same
  work (workloads.DENSE_GEN_SEEDS).  Exhaustive enumeration overflows the
  cap of 1000, so every step is swept by the strongest-path search:
  millions of structural circuits, about 900 discovered loops.  This is
  the paper's headline regime; scoring and ranking dominate.
* gated-long: a seeded ring of 20 stocks whose equations use IF, MIN and
  ABS (workloads.gated_long_source), 400 steps, `analyze` with default
  flags.  The auto route stays exhaustive (279 loops).  It is the only
  workload with IF branches, so it alone exercises branch recording and
  branch-gated scoring; it bypasses the per-step sweep, and it ranks a few
  hundred loops over long series where dense-sweep ranks more loops over
  short ones.
* static-catalog: a seeded complete weighted digraph on 12 nodes as an
  edge CSV.  A job runs `graph-loops --cap 25000` (the cap always
  overflows, so the work is fixed), `graph-loops --method strongest-path`
  and `compare` of the two catalogs.  No simulation and no scoring: it
  isolates enumeration and catalog JSON I/O, so an engine or scoring
  change must show no change here.

End-to-end metrics (lower is better), measured with tracing off:

* job_s: wall seconds of the fastest job; the printed lines also give
  the job count and the median and quartiles of all jobs.
* setup_s: median over several fresh interpreters of the seconds to
  import `sdloops` and `sdloops.cli` and write the workload's inputs.
* peak_rss_mb: peak resident memory of the workload's interpreter.

Failures are reported through `attempted` and `failed` (and `fail_ratio`
in the printed lines).  A job fails if `main` raises or returns non-zero,
if an output is not strict JSON, if an invariant (checks.py) fails, if
its bytes differ from the other jobs of the run, or, for seed 0, from the
golden digests in golden.json.  Failed jobs are counted, never skipped.
Before timing, the worker analyzes the ARMS_RACE and TWO_STOCK fixtures
and their output digests must match golden.json.

Per-layer metrics (`--trace 1`) come from a run in which traced and
untraced jobs alternate.  tracing.py wraps each module's public functions
from outside the program.  The layer times are the summed self times of
each layer's spans in the fastest traced job, so they and `unattributed_s`
add up exactly to `trace.job_s`.  Counts come from the
functions' arguments and return values.  Each layer should move these
end-to-end metrics:

* dsl (parse_s, validate_s): job_s by 1 % at most anywhere.
* engine (simulate_s, var_steps): job_s on gated-long; dense-sweep by
  2 % at most; static-catalog not at all.
* scoring (score_s, composite_s, link_scores, zero_frac): job_s on
  dense-sweep and gated-long; not static-catalog.
* discovery (enumerate_s, enumerated, overflow, graph_build_s, sweep_s,
  expansions, loops, new_loops_per_kexp): the sweep moves job_s on
  dense-sweep and predicts no change on gated-long; enumeration moves
  job_s on static-catalog.
* analysis (rank_s, loop_series_s, loop_series_calls, loops_ranked,
  compare_s): job_s and possibly peak_rss_mb on dense-sweep and
  gated-long; static-catalog only through compare_s.
* cli (emit_s, load_s, output_bytes): job_s on static-catalog and
  gated-long.

The trace run also reports its fastest traced and untraced jobs and their
difference, the tracing overhead, and writes every span, the layer
numbers and the discovery curve (expansions and new loops per swept
step) to `.bench_out/trace-<workload>-seed<seed>.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from checks import check_outputs  # noqa: E402
from tracing import LAYER_COUNTS, LAYER_TIMES  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 7
DEADLINE_S = 170  # the whole run, set-up and checks included

END_TO_END = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
_COUNT_UNITS = {
    "scoring.zero_frac": "ratio",
    "discovery.overflow": "flag",
    "discovery.new_loops_per_kexp": "loops/kexp",
}
PER_LAYER = {
    **{name: "s" for name in LAYER_TIMES},
    **{name: _COUNT_UNITS.get(name, "count") for name in LAYER_COUNTS},
    "cli.output_bytes": "bytes",
    "trace.job_s": "s",
    "trace.untraced_job_s": "s",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    pass


def _worker(args: list[str], workdir: Path, timeout: float) -> str:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0", TMPDIR=str(workdir))
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=env,
            capture_output=True,
            text=True,
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def _succeeded(job: dict) -> bool:
    return job["error"] is None and all(c == 0 for c in job["codes"])


def _job_failures(workload: str, seed: int, result: dict, workdir: Path, golden: dict) -> list[str]:
    """One entry per failed job: why it failed."""
    jobs = result["jobs"]
    good = [job for job in jobs if _succeeded(job)]
    kept = good[0]["digests"] if good else None
    reference = golden.get(workload, {}).get(str(seed), kept)
    invariants = check_outputs(workload, workdir / "kept", workdir) if good else []
    failures = []
    for i, job in enumerate(jobs):
        if job["error"] is not None:
            failures.append(f"job {i}: {job['error']}")
        elif any(c != 0 for c in job["codes"]):
            failures.append(f"job {i}: exit codes {job['codes']}")
        elif job["digests"] != reference:
            against = "the golden digests" if reference != kept else "the first successful job"
            failures.append(f"job {i}: output bytes differ from {against}")
        elif invariants:
            failures.append(f"job {i}: {invariants[0]}")
    return failures


def bench(workload: str, seed: int, seconds: int, trace: bool, workdir: Path) -> dict:
    started = perf_counter()
    golden = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    setup = [
        json.loads(_worker(["setup", workload, str(seed), str(workdir)], workdir, 30).splitlines()[-1])["setup_s"]
        for _ in range(1 if trace else SETUP_REPEATS)
    ]
    _worker(
        ["run", workload, str(workdir), str(seconds), str(int(trace))],
        workdir,
        DEADLINE_S - 10 - (perf_counter() - started),
    )
    result = json.loads((workdir / "result.json").read_text(encoding="utf-8"))
    jobs = result["jobs"]

    problems = [
        f"preflight {name}: {digest} is not the golden digest"
        for name, digest in result["preflight"].items()
        if digest != golden["fixtures"][name]
    ]
    failures = _job_failures(workload, seed, result, workdir, golden)
    untraced = [job["ns"] / 1e9 for job in jobs if not job["traced"]]
    if trace:
        layers = result["layers"]
        if not layers["accounted"]:
            problems.append("layer self times do not add up to the traced job")
        if not layers["counts_repeat"]:
            problems.append("layer counts differ between traced jobs")
        traced = [job["ns"] / 1e9 for job in jobs if job["traced"]]
        first_traced = next(job for job in jobs if job["traced"])
        metrics = {
            **layers["times"],
            **first_traced["counts"],  # counts repeat in every traced job
            "cli.output_bytes": first_traced["bytes"],
            "trace.job_s": min(traced),
            "trace.untraced_job_s": min(untraced),
            "trace.overhead_s": min(traced) - min(untraced),
        }
        units = PER_LAYER
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        shutil.copyfile(workdir / "trace.json", out / f"trace-{workload}-seed{seed}.json")
    else:
        metrics = {
            "job_s": min(untraced),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = END_TO_END

    print(f"workload {workload}, seed {seed}: {len(jobs)} jobs ({len(untraced)} untraced), "
          f"{len(failures)} failed, fail_ratio {len(failures) / len(jobs):.3f}")
    quartiles = statistics.quantiles(untraced, n=4, method="inclusive") if len(untraced) > 1 else untraced * 3
    print("untraced job seconds: min %.4f, quartiles %.4f %.4f %.4f" % (min(untraced), *quartiles))
    print(f"setup: median of {len(setup)} fresh interpreters")
    good = [job for job in jobs if _succeeded(job)]
    for name, digest in (good[0]["digests"] if good else {}).items():
        print(f"output {name}: sha256 {digest}")
    for line in problems + failures:
        print(f"FAIL {line}")
    for name, value in metrics.items():
        print(f"{name:<32} {value:>16.6f} {units[name]}")
    return {
        "correct": not problems and not failures,
        "attempted": len(jobs),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Layered benchmark of sdloops.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sdloops" / "cli.py").is_file():
        print(f"error: no sdloops sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        report = bench(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only when no other run is using it
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
