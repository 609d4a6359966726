"""Repeat the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --workloads train-wide link-long lime-dense \
        --seeds 1-10 --seconds 40 --trace 0 --out bench/baseline.json

Run from the repository root.  For every workload, one ``bench/run.py`` run
per seed.  Each metric gets the median, quartiles and spread of its per-run
values; the spread is the interquartile distance as a share of the median,
the quantity the end-to-end bounds in ``BENCHMARK.json`` are compared with.
The output also records the machine the numbers came from.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(s) for s in text.split(",")]


def blas_facts() -> dict:
    """BLAS library name and version that numpy links, and its thread count."""
    import numpy

    facts = {}
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    facts["blas"] = f"{blas.get('name')} {blas.get('version')}"
    # Ask the OpenBLAS copy that numpy wheels ship, if there is one.
    import ctypes
    libs = Path(numpy.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*.so*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                facts["blas_threads"] = getter()
                return facts
    facts["blas_threads"] = None
    return facts


def machine_facts() -> dict:
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), "")
    except OSError:
        pass
    ram_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return {"nproc": os.cpu_count(), "cpu": cpu, "ram_gb": round(ram_gb, 1),
            "python": platform.python_version(), "numpy": numpy.__version__,
            **blas_facts()}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    sys.path[:0] = [str(Path(__file__).parent), "src"]
    from run import ONE_BLAS_THREAD
    os.environ.update(ONE_BLAS_THREAD)  # so blas_threads is what the program uses
    import workloads

    report = {"machine": machine_facts(), "seconds": args.seconds, "trace": args.trace,
              "shapes": workloads.describe(), "workloads": {}}
    for workload in args.workloads:
        runs = []
        for seed in parse_seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            if not args.trace:
                samples = json.loads(lines[-2])["samples"]
                result["unscaled"] = {
                    "wall.pipeline_s": statistics.median(samples["wall"]["pipeline_s"]),
                    "wall.setup_s": statistics.median(samples["wall"]["setup_s"]),
                    "speed_probe_s": statistics.median(samples["speed_probe_s"])}
            runs.append(result)
            print(workload, seed, result["correct"], result["attempted"],
                  result["failed"], file=sys.stderr)
        metrics = {name: summarize([r["metrics"][name]["value"] for r in runs])
                   | {"unit": runs[0]["metrics"][name]["unit"]}
                   for name in runs[0]["metrics"]}
        report["workloads"][workload] = {
            "seeds": [r["seed"] for r in runs],
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": metrics,
        }
        if not args.trace:  # the run medians before scaling, for comparison
            report["workloads"][workload]["unscaled"] = {
                name: summarize([r["unscaled"][name] for r in runs])
                for name in runs[0]["unscaled"]}
        for name, m in metrics.items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.3f}"
            print(f"{workload:11s} {name:28s} {m['median']:12.6g} {m['unit']:10s} "
                  f"spread {spread}", file=sys.stderr)
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.out:
        args.out.write_text(text, encoding="utf-8")
    else:
        print(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
