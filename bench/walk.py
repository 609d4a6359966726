"""One CLI walk: every stage in its own fresh process, then the output check.

A walk runs the stages one at a time, closed loop with a single client,
exactly as a user types them: ``python -m stemexplain <stage> -c config.json
--out-dir DIR`` with ``PYTHONPATH=src``.  Wall time and ``ru_maxrss`` come
from ``os.wait4`` on each child.  Before each launch the launcher times a
fixed piece of work in its own process (``speed_probe``), which tells how fast
the machine ran while the stages ran.
"""

from __future__ import annotations

import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

from workloads import GAZETTEER_TAGS, WINDOW

STAGE_RUNS = (
    ("ingest", ()), ("stats", ()), ("correspond", ()), ("classify", ()),
    ("augment", ()), ("ablate", ()), ("link", ()), ("mathel", ()),
    ("explain", ()),
    ("plotdata", ("--which", "symbol-name-distribution")),
    ("plotdata", ("--which", "entropy-table")),
    ("report", ()),
)

# Stage metrics and the stage runs each one sums.
STAGE_GROUPS = {
    "stage.correspond_s": ("correspond",),
    "stage.classify_s": ("classify",),
    "stage.augment_s": ("augment",),
    "stage.ablate_s": ("ablate",),
    "stage.explain_s": ("explain",),
    "stage.link_s": ("link", "mathel"),
    "stage.light_s": ("stats", "plotdata", "report"),
}


def group_seconds(seconds: list[tuple[str, float]]) -> dict[str, float]:
    """Sum the (stage, seconds) pairs of one walk into the ``STAGE_GROUPS`` metrics."""
    return {metric: sum(s for stage, s in seconds if stage in stages)
            for metric, stages in STAGE_GROUPS.items()}


@dataclass
class StageResult:
    stage: str
    wall_s: float
    maxrss_mb: float
    problems: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)


# The speed probe's typical median on the reference machine (bench/README.md).
# A wall time scaled by REFERENCE_PROBE_S / (the run's median probe) reads in
# that machine's seconds at its typical speed.
REFERENCE_PROBE_S = 0.033
_PROBE_WORDS = [f"w{i}" for i in range(500)]
_PROBE_MATRIX = numpy.arange(4096, dtype=float).reshape(64, 64) / 4096


def speed_probe() -> float:
    """Wall seconds of a fixed mix of dict, string and small-matrix work."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for _ in range(24):
        for i, word in enumerate(_PROBE_WORDS * 4):
            counts[word] = counts.get(word, 0) + i
        " ".join(_PROBE_WORDS).split()
    for _ in range(1600):
        _PROBE_MATRIX @ _PROBE_MATRIX
    return time.perf_counter() - start


class Launcher:
    """Starts stage processes for one workload and enforces a hard deadline."""

    def __init__(self, root: Path, config: Path, deadline: float):
        self.config = config
        self.deadline = deadline
        python_path = str(root / "src")
        if os.environ.get("PYTHONPATH"):
            python_path += os.pathsep + os.environ["PYTHONPATH"]
        self.env = dict(os.environ, PYTHONPATH=python_path)
        self.probes: list[float] = []  # speed_probe() before each launch

    def run(self, stage: str, extra: tuple[str, ...], out_dir: Path) -> StageResult:
        argv = [sys.executable, "-m", "stemexplain", stage, "-c", str(self.config),
                "--out-dir", str(out_dir), *extra]
        err_path = out_dir.parent / f"{out_dir.name}.{stage}.stderr"
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            return StageResult(stage, 0.0, 0.0, ["not started: run deadline passed"])
        self.probes.append(speed_probe())
        with open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                    env=self.env, cwd=self.config.parent)
            timer = threading.Timer(remaining, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        result = StageResult(stage, wall, usage.ru_maxrss / 1024.0)
        if proc.returncode != 0:
            tail = err_path.read_text(encoding="utf-8", errors="replace")[-300:]
            result.problems.append(f"exit {proc.returncode}: {tail.strip()}")
        return result


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_manifest(out_dir: Path, stage: str) -> list[str]:
    """Re-hash the files a stage (or report) manifest lists."""
    name = "manifest.json" if stage == "report" else f"{stage}_manifest.json"
    path = out_dir / name
    if not path.is_file():
        return [f"{name} missing"]
    manifest = json.loads(path.read_text(encoding="utf-8"))
    listed = manifest["files"] if stage == "report" else manifest["outputs"]
    problems = []
    for file_name, expected in sorted(listed.items()):
        target = out_dir / file_name
        if not target.is_file():
            problems.append(f"{name}: {file_name} missing")
        elif digest(target) != expected:
            problems.append(f"{name}: {file_name} digest differs")
    if stage == "report":
        present = {p.name for p in out_dir.iterdir() if p.is_file()} - {"manifest.json"}
        if present != set(listed):
            problems.append("manifest.json does not list exactly the files in out_dir")
    return problems


def _read_tsv(path: Path) -> list[dict[str, str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def check_outputs(stage: str, out_dir: Path, workload) -> list[str]:
    """Stage-specific checks of the outputs against the generator's plan."""
    problems = []
    if stage == "link":
        seen = {(row["match_form"], row["source"], row["lemmatized"])
                for row in _read_tsv(out_dir / "links.tsv")}
        for phrase in workload.phrases:
            for tag in GAZETTEER_TAGS:
                for variant in ("false", "true"):
                    if (phrase, tag, variant) not in seen:
                        problems.append(f"links.tsv lacks {phrase!r} for {tag}/"
                                        f"lemmatized={variant}")
    elif stage == "mathel":
        ranks = {(row["doc"], row["formula"], row["phrase"]): row["rank"]
                 for row in _read_tsv(out_dir / "mathel.tsv")}
        for doc_id, fid, phrase in workload.pinned:
            rank = ranks.get((doc_id, fid, phrase), "")
            if not rank or abs(int(rank)) > WINDOW:
                problems.append(f"mathel.tsv lacks pinned {phrase!r} near {fid}")
    elif stage == "classify":
        rows = {row["metric"]: row["value"] for row in _read_tsv(out_dir / "classify.tsv")}
        accuracy = float(rows["accuracy"])
        if accuracy < workload.accuracy_floor:
            problems.append(f"test accuracy {accuracy:.3f} below floor "
                            f"{workload.accuracy_floor:.3f}")
    return problems


def check_stage(stage: str, out_dir: Path, workload) -> list[str]:
    """All output checks for one finished stage run; never raises."""
    try:
        return check_manifest(out_dir, stage) + check_outputs(stage, out_dir, workload)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return [f"output check raised {type(exc).__name__}: {exc}"]


def run_walk(launcher: Launcher, out_dir: Path, workload) -> list[StageResult]:
    """The full walk into ``out_dir``; failures are recorded, never raised."""
    out_dir.mkdir(parents=True)
    results = []
    for stage, extra in STAGE_RUNS:
        result = launcher.run(stage, extra, out_dir)
        if not result.failed:
            result.problems.extend(check_stage(stage, out_dir, workload))
        results.append(result)
    return results
