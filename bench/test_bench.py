"""Tests of the benchmark itself, on small copies of the workloads.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import tracing  # noqa: E402
import walk  # noqa: E402
import workloads  # noqa: E402


def small(name: str, seed: int, dest: Path):
    shape = workloads.warm_up_shape(workloads.WORKLOADS[name])
    return workloads.generate(name, seed, dest, shape)


def _files(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_generator_is_deterministic_per_seed(tmp_path):
    small("link-long", 5, tmp_path / "a")
    small("link-long", 5, tmp_path / "b")
    small("link-long", 6, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a")["corpus.jsonl"] != _files(tmp_path / "c")["corpus.jsonl"]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_walk_counters_repeat_exactly(tmp_path, name):
    workload = small(name, 3, tmp_path / "inputs")
    tracer = tracing.Tracer()
    per_walk = []
    for walk_id in range(2):
        tracer.walk = walk_id
        with tracer:
            seconds, outcomes = tracing.inprocess_walk(workload, tmp_path / f"out{walk_id}",
                                                       tracer)
        assert [problems for _, problems in outcomes if problems] == []
        assert [stage for stage, _ in seconds] == [stage for stage, _ in walk.STAGE_RUNS]
        per_walk.append(tracing.walk_metrics(tracer, walk_id, workload.ngrams_examined))
    for metric in tracing.DETERMINISTIC:
        assert per_walk[0][metric] == per_walk[1][metric], metric
    assert per_walk[0]["classify.fits"] > 0
    assert per_walk[0]["linker.links"] > 0
    assert per_walk[0]["explain.lime_samples"] > 0
    assert ((tmp_path / "out0" / "manifest.json").read_bytes()
            == (tmp_path / "out1" / "manifest.json").read_bytes())


def test_tracer_restores_the_program(tmp_path):
    from stemexplain import augment, classify, corpus, encode, linker

    before = (augment.train_logreg, classify.train_logreg, linker.lemmatize,
              encode.tokenize, corpus.Document.__dict__["text_tokens"])
    with tracing.Tracer():
        assert augment.train_logreg is not before[0]
        assert linker.lemmatize is not before[2]
    after = (augment.train_logreg, classify.train_logreg, linker.lemmatize,
             encode.tokenize, corpus.Document.__dict__["text_tokens"])
    assert after == before


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    outer = tracer.open("cli.write_tsv")
    inner = tracer.open("cli.write_json")
    tracer.close(inner)
    tracer.close(outer)
    tracer.spans[outer][tracing.START:tracing.END + 1] = [0.0, 3.0]
    tracer.spans[inner][tracing.START:tracing.END + 1] = [1.0, 2.0]
    self_times, _ = tracing.span_times(tracer, 0)
    assert self_times["cli.write_tsv"] == pytest.approx(2.0)
    assert self_times["cli.write_json"] == pytest.approx(1.0)


def test_high_percentile_keeps_ten_samples_beyond():
    values = [float(v) for v in range(1, 41)]
    value, rank = tracing.high_percentile(values)
    assert sum(1 for v in values if v > value) == 10
    assert rank == 75.0


def test_subprocess_walk_passes_checks_and_check_catches_drift(tmp_path):
    workload = small("train-wide", 2, tmp_path / "inputs")
    launcher = walk.Launcher(ROOT, workload.config, time.monotonic() + 120)
    results = walk.run_walk(launcher, tmp_path / "out", workload)
    assert [r.stage for r in results] == [s for s, _ in walk.STAGE_RUNS]
    assert [r.problems for r in results if r.problems] == []
    assert all(r.wall_s > 0 and r.maxrss_mb > 0 for r in results)
    assert len(launcher.probes) == len(results) and min(launcher.probes) > 0

    (tmp_path / "out" / "classify.tsv").write_text("metric\tvalue\naccuracy\t0\n")
    problems = walk.check_stage("classify", tmp_path / "out", workload)
    assert any("digest differs" in p for p in problems)
    assert any("below floor" in p for p in problems)
