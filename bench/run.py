"""Pipeline benchmark: one workload, one seed, end-to-end or per-layer numbers.

    python3 bench/run.py --workload train-wide --seed 1 --seconds 40 --trace 0

Run from the repository root.  The workload's input files are generated
from the seed (see ``workloads.py``); the program receives only those files.

``--trace 0`` measures what a user sees.  After a few extra ``ingest``
launches (the set-up cost every stage pays), it repeats full CLI walks
(``walk.py``), each stage in a fresh ``python -m stemexplain`` process,
until ``--seconds`` have passed, with at least two walks.  Every timing is the
median over the walks, scaled for the machine's speed: before each launch the
launcher times a fixed piece of work (``walk.speed_probe``), and every time is
multiplied by ``walk.REFERENCE_PROBE_S`` over the run's median probe.  A small
shared machine runs slower or faster for minutes at a time, and the slow-down
hits the probe and the stages alike, so this takes much of that drift out of
the run-to-run spread.  The unscaled wall times, the probes and the per-stage
times are in the samples line; a single short stage process varies too much
from run to run to carry a regression bound.

``--trace 1`` gives the per-layer numbers.  It alternates an untraced and a
traced in-process walk (``tracing.py``) until ``--seconds`` have passed, with
at least one pair.  Each number is the median over the traced walks, and the
tracing overhead is the traced walk time minus the untraced walk time.  The
``stage.*`` times come from the untraced walks.

The program's BLAS runs on one thread in every mode (``ONE_BLAS_THREAD``):
with two threads on a machine of two shared cores, a fit stalls whenever the
other core is busy (the augment stage took up to nine times as long while
another process ran).

Every stage run is checked (``walk.check_stage``), and ``manifest.json`` must be
byte-identical across all walks of the run.  A failed check counts toward
``failed`` out of ``attempted`` stage runs; it never aborts the run.  The last
line of standard output is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
The line before it gives every metric's samples (the median's inputs) and the
problems found.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

MIN_WALKS = 2  # two walks at least, so manifest.json can be compared
SETUP_LAUNCHES = 5  # extra ingest launches; the walks' own ones add to them
IMPORT_LAUNCHES = 5
HARD_LIMIT_S = 170  # stage processes still running by then are killed
ONE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

END_TO_END_UNITS = {
    "pipeline_s": "s", "docs_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio") or name.startswith("share."):
        return "ratio"
    if name == "classify.design_bytes":
        return "B_computed"  # rows x dim x 8, not a measured allocation
    if name == "linker.ngrams_examined":
        return "count_computed"  # from the generated inputs
    if name == "cli.write_bytes":
        return "B"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


class Run:
    """Stage outcomes of one benchmark run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first_manifest: bytes | None = None

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        self.problems.extend(f"{label}: {p}" for p in problems)
        self.failed += bool(problems)

    def same_manifest(self, out_dir: Path) -> list[str]:
        """manifest.json must match the run's first walk byte for byte."""
        path = out_dir / "manifest.json"
        if not path.is_file():
            return []  # already reported by the report stage's own check
        data = path.read_bytes()
        if self.first_manifest is None:
            self.first_manifest = data
            return []
        return [] if data == self.first_manifest else [
            "manifest.json differs from the first walk's"]


def timed_run(root: Path, workload, work: Path, seconds: float, deadline: float):
    from walk import (REFERENCE_PROBE_S, STAGE_GROUPS, Launcher, check_stage,
                      group_seconds, run_walk)

    launcher = Launcher(root, workload.config, deadline)
    run = Run()
    start = time.monotonic()
    setup = []
    for k in range(SETUP_LAUNCHES):
        out_dir = work / f"setup{k}"
        out_dir.mkdir()
        result = launcher.run("ingest", (), out_dir)
        if not result.failed:
            result.problems.extend(check_stage("ingest", out_dir, workload))
        run.record(f"setup{k}/ingest", result.problems)
        setup.append(result.wall_s)
    walks, last = [], 0.0
    while len(walks) < MIN_WALKS or _time_left(start, last, seconds, deadline):
        began = time.monotonic()
        out_dir = work / f"walk{len(walks)}"
        results = run_walk(launcher, out_dir, workload)
        results[-1].problems.extend(run.same_manifest(out_dir))
        for result in results:
            run.record(f"walk{len(walks)}/{result.stage}", result.problems)
        walks.append(results)
        if len(walks) > 1:
            shutil.rmtree(out_dir)
        last = time.monotonic() - began

    wall = {
        "pipeline_s": [sum(r.wall_s for r in w) for w in walks],
        "setup_s": setup + [w[0].wall_s for w in walks],
    }
    stage_seconds = [group_seconds([(r.stage, r.wall_s) for r in w]) for w in walks]
    for metric in STAGE_GROUPS:
        wall[metric] = [seconds[metric] for seconds in stage_seconds]
    scale = REFERENCE_PROBE_S / statistics.median(launcher.probes)
    samples = {name: [v * scale for v in values] for name, values in wall.items()}
    samples["peak_rss_mb"] = [max(r.maxrss_mb for r in w) for w in walks]
    values = {name: statistics.median(v) for name, v in samples.items()}
    values["docs_per_s"] = workload.documents / values["pipeline_s"]
    return run, values, {"scaled": samples, "wall": wall, "speed_probe_s": launcher.probes}


def _time_left(start: float, last: float, seconds: float, deadline: float) -> bool:
    """Whether one more walk as long as the last one still fits."""
    now = time.monotonic()
    return now - start + last <= seconds and now + last < deadline


def import_seconds(root: Path, launches: int) -> list[float]:
    """Wall time of a fresh ``import stemexplain.cli``, measured in the child."""
    code = ("import time; t = time.perf_counter(); import stemexplain.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    return [float(subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True, timeout=60).stdout)
            for _ in range(launches)]


def traced_run(root: Path, workload, work: Path, seconds: float, deadline: float):
    import tracing
    import workloads
    from walk import group_seconds

    run = Run()
    start = time.monotonic()
    imports = import_seconds(root, IMPORT_LAUNCHES)
    tracer = tracing.Tracer()
    warm = workloads.generate(workload.name, workload.seed, work / "warm-inputs",
                              workloads.warm_up_shape(workload.shape))
    for stage, problems in tracing.inprocess_walk(warm, work / "warm-up")[1]:
        run.record(f"warm-up/{stage}", problems)
    per_walk, last = [], 0.0
    while not per_walk or _time_left(start, last, seconds, deadline):
        began = time.monotonic()
        walk = len(per_walk)
        plain_dir, traced_dir = work / f"plain{walk}", work / f"traced{walk}"
        plain_stages, plain = tracing.inprocess_walk(workload, plain_dir)
        tracer.walk = walk
        with tracer:
            root_span = tracer.open("walk")
            traced_stages, traced = tracing.inprocess_walk(workload, traced_dir, tracer)
            tracer.close(root_span)
        plain_s = sum(s for _, s in plain_stages)
        traced_s = sum(s for _, s in traced_stages)
        for label, outcomes, out_dir in (("plain", plain, plain_dir),
                                         ("traced", traced, traced_dir)):
            outcomes[-1][1].extend(run.same_manifest(out_dir))
            for stage, problems in outcomes:
                run.record(f"{label}{walk}/{stage}", problems)
            shutil.rmtree(out_dir)
        metrics = tracing.walk_metrics(tracer, walk, workload.ngrams_examined)
        metrics.update(group_seconds(plain_stages))
        metrics.update({"trace.walk_s": plain_s, "trace.traced_walk_s": traced_s,
                        "trace.overhead_s": traced_s - plain_s})
        per_walk.append(metrics)
        last = time.monotonic() - began
    tracer.write_spans(root / ".bench_work" / "traces"
                       / f"{workload.name}-seed{workload.seed}.jsonl")

    for name in tracing.DETERMINISTIC:
        if len({m[name] for m in per_walk}) > 1:
            run.problems.append(f"counter {name} differs between traced walks: "
                                f"{[m[name] for m in per_walk]}")
            run.failed += 1
    samples = {name: [m[name] for m in per_walk] for name in per_walk[0]}
    samples["cli.import_s"] = imports
    values = {name: statistics.median(v) for name, v in samples.items()}
    return run, values, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train-wide", "link-long", "lime-dense"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "stemexplain" / "cli.py").is_file():
        print("run from the repository root: src/stemexplain/cli.py not found",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    os.environ.update(ONE_BLAS_THREAD)  # before numpy loads here or in a stage process
    sys.path.insert(0, str(root / "src"))
    import workloads

    work = root / ".bench_work" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload = workloads.generate(args.workload, args.seed, work / "inputs")
        measure = traced_run if args.trace else timed_run
        run, values, samples = measure(root, workload, work, args.seconds, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = END_TO_END_UNITS if not args.trace else {
        name: per_layer_unit(name) for name in values}
    for problem in run.problems:
        print(problem, file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "samples": samples, "problems": run.problems[:20]}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
