"""Command-line pipeline over corpus files.

Each subcommand runs one stage: it resolves its inputs, makes one library
call and writes its tables into the output directory, then a stage
manifest.  ``report`` stitches the stage tables into one markdown report plus
an overall manifest.  All outputs are plain TSV, JSON, JSONL, or markdown,
and are byte-identical across runs with the same config and input bytes,
regardless of where the output directory lives: manifests record content
digests and relative names, never paths.

Every file goes through one ``StageWriter``: it is written to
``.<name>.partial`` next to its target and moved over it with
``os.replace``.  A stage removes its old manifest before its first write and
writes the new one last, so a manifest on disk always matches its files.  A
stage killed mid-write can leave a ``.partial`` file, which a rerun replaces.

Exit codes: 0 success, 2 config error (bad JSON, unknown keys, missing
seed, mistyped or out-of-range settings), 3 input error (missing
or malformed input files, missing stage outputs), 4 runtime failure
(training or evaluation raised).  Failures print a single JSON record on
stderr: {"error": <class>, "message": <text>}.  A model fit that stops without
converging prints {"warning": "ConvergenceWarning", "stage", "iterations",
"final_loss", "message"} on stderr and the stage goes on.

Relative file paths inside a config file resolve against the config file's
directory; paths given on the command line resolve against the working
directory.

A stage process ends through ``entry``: it runs ``main``, flushes stdout
and stderr and calls ``os._exit`` with the exit code, skipping the
interpreter's teardown (11-27 ms per stage process on the link-long bench
workload, on two shared Xeon vCPUs).  Nothing is lost by that: every file
is renamed into place before the manifest is written, and no module of
the package registers an ``atexit`` handler or keeps a file open.  An
exception from ``main`` or from a flush ends the process the usual way,
with a traceback and exit 1.  ``main`` itself returns the code, so
in-process callers keep running.

Each stage runs in its own process and loads only the code it runs.  This
module holds the parser, the config and its checks, the ``StageWriter``
and the manifests, and imports no other module of the package but
``errors`` at its top.  The body of stage ``<name>`` is ``run(config, out)``
in module ``stages.<name>``, imported when the stage runs; it imports the
library modules it calls.  ``STAGE_REGISTRY`` lists each stage with its
help line, so ``--help`` and ``print-config`` load no stage module.
"""

from __future__ import annotations

import argparse
import copy
import hashlib
import importlib
import json
import math
import os
import sys
import warnings
from collections.abc import Callable
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import ConfigError, ConvergenceWarning, ParseError, ToolkitError, read_utf8

TOOL_NAME = "stemexplain"

# Exhaustive key schema; unknown keys anywhere in a config file are rejected.
# gazetteers and sources map user-chosen tags to files and are replaced
# wholesale, as is the top_k list.
DEFAULT_CONFIG = {
    "corpus": "@demo",
    "out_dir": "out",
    "seed": None,
    "class_axis": "arxiv",
    "encode": {"remove_stopwords": True, "lemmatize": False},
    "split": {"test_fraction": 0.2},
    "logreg": {"l2": 1e-4, "max_iterations": 500, "tolerance": 1e-6},
    "lime": {"num_samples": 300, "kernel_width": None, "ridge": 1.0, "top_k": 10},
    "linker": {"gazetteers": {}, "max_n": 3, "window": 10},
    "augment": {"sources": {}, "top_k": [3, 5], "concept_map": None},
    "explain": {"budget": 5, "top_m": 20, "num_samples": 300,
                "source": None, "source_top_k": 3},
    "plot": {"which": "symbol-name-distribution", "symbol": None, "name": None},
}

_SECTIONS = ("encode", "split", "logreg", "lime", "linker", "augment",
             "explain", "plot")

# Stage tables stitched together by `report`, in presentation order.
REPORT_SECTIONS = (
    ("Corpus", "ingest_summary.tsv"),
    ("Distribution entropies", "entropy_summary.tsv"),
    ("Category co-occurrence", "cooccurrence.tsv"),
    ("Co-occurrence uncertainty", "uncertainty_summary.tsv"),
    ("Argmax vs classifier", "argmax_vs_classifier.tsv"),
    ("Category prediction", "category_accuracy.tsv"),
    ("Text classification", "classify.tsv"),
    ("Identifier augmentation", "augment.tsv"),
    ("Input ablation", "ablate.tsv"),
    ("Entity linking evaluation", "link_eval.tsv"),
    ("Formula concept coverage", "mathel_coverage.tsv"),
    ("Entity ranking entropies", "entropy_report.tsv"),
)


def _digest_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _digest_file(path: Path) -> str:
    return _digest_bytes(path.read_bytes())


def _format_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def write_tsv(path: Path, header: list[str], rows: list[tuple]) -> None:
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join(_format_cell(cell) for cell in row))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2,
                               ensure_ascii=False) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Configuration


def _merge_config(base: dict, override: dict, trail: str = "") -> dict:
    merged = copy.deepcopy(base)
    for key, value in override.items():
        where = f"{trail}{key}"
        if key not in merged:
            raise ConfigError(f"unknown config key: {where}")
        if not trail and key in _SECTIONS:
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where} must be an object")
            merged[key] = _merge_config(merged[key], value, where + ".")
        else:
            merged[key] = value
    return merged


def _anchor(path_value, base: Path):
    if not isinstance(path_value, str) or path_value == "@demo":
        return path_value
    candidate = Path(path_value)
    return path_value if candidate.is_absolute() else str(base / candidate)


def _check_paths(config: dict) -> None:
    """Type checks on the file settings, so that anchoring can rely on them."""
    if not isinstance(config["corpus"], str):
        raise ConfigError("corpus must be a string")
    for section, key in (("linker", "gazetteers"), ("augment", "sources")):
        paths = config[section][key]
        if not isinstance(paths, dict) or not all(isinstance(p, str) for p in paths.values()):
            raise ConfigError(f"{section}.{key} must be an object with string values")
    concept_map = config["augment"]["concept_map"]
    if concept_map is not None and not isinstance(concept_map, str):
        raise ConfigError("augment.concept_map must be null or a string")


def _map_files(config: dict, fn) -> None:
    """Replace each file setting by ``fn(role, value)``, roles named as in manifests."""
    config["corpus"] = fn("corpus", config["corpus"])
    for section, key, role in (("linker", "gazetteers", "gazetteer"),
                               ("augment", "sources", "source")):
        config[section][key] = {tag: fn(f"{role}:{tag}", value)
                                for tag, value in config[section][key].items()}
    config["augment"]["concept_map"] = fn("concept_map", config["augment"]["concept_map"])


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then the config file, then command-line overrides."""
    config = copy.deepcopy(DEFAULT_CONFIG)
    if path is not None:
        source = Path(path)
        if not source.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            loaded = json.loads(read_utf8(source))
        except ParseError as exc:  # bytes that are not UTF-8
            raise ConfigError(str(exc)) from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config root must be a JSON object")
        config = _merge_config(config, loaded)
        _check_paths(config)
        base = source.resolve().parent
        _map_files(config, lambda role, value: _anchor(value, base))
    for key, value in overrides.items():
        if value is None:
            continue
        slot = config
        parts = key.split(".")
        for part in parts[:-1]:
            slot = slot[part]
        slot[parts[-1]] = value
    if config["seed"] is None:
        raise ConfigError("seed is required (set it in the config file or pass --seed)")
    if not isinstance(config["seed"], int) or isinstance(config["seed"], bool):
        raise ConfigError("seed must be an integer")
    if config["class_axis"] not in ("arxiv", "msc"):
        raise ConfigError("class_axis must be 'arxiv' or 'msc'")
    _check_settings(config)
    return config


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# Settings that must be integers >= 1.
_COUNT_KEYS = (("logreg", "max_iterations"), ("linker", "max_n"), ("linker", "window"),
               ("lime", "num_samples"), ("explain", "budget"), ("explain", "top_m"),
               ("explain", "num_samples"), ("explain", "source_top_k"))


def _check_settings(config: dict) -> None:
    """Type and range checks on the numeric and boolean settings of the stages."""
    for key in ("remove_stopwords", "lemmatize"):
        if not isinstance(config["encode"][key], bool):
            raise ConfigError(f"encode.{key} must be true or false")
    fraction = config["split"]["test_fraction"]
    if not _is_number(fraction) or not 0 <= fraction < 1:
        raise ConfigError("split.test_fraction must lie in [0, 1)")
    logreg, lime = config["logreg"], config["lime"]
    for key in ("l2", "tolerance"):
        if not _is_number(logreg[key]) or logreg[key] < 0:
            raise ConfigError(f"logreg.{key} must be a number >= 0")
    for section, key in _COUNT_KEYS:
        if not _is_count(config[section][key]):
            raise ConfigError(f"{section}.{key} must be an integer >= 1")
    if lime["top_k"] is not None and not _is_count(lime["top_k"]):
        raise ConfigError("lime.top_k must be null or an integer >= 1")
    if not _is_number(lime["ridge"]) or lime["ridge"] < 0:
        raise ConfigError("lime.ridge must be a number >= 0")
    width = lime["kernel_width"]
    if width is not None and (not _is_number(width) or width <= 0):
        raise ConfigError("lime.kernel_width must be null or a number > 0")
    top_ks = config["augment"]["top_k"]
    if not isinstance(top_ks, list) or not top_ks or not all(map(_is_count, top_ks)):
        raise ConfigError("augment.top_k must be a non-empty list of integers >= 1")


def config_digest(config: dict, known: dict[str, str] | None = None) -> str:
    """Digest of the effective config with file paths replaced by content.

    Two runs pointed at byte-identical inputs hash the same even when
    the files live at different paths; out_dir never participates.
    ``known`` holds digests a stage already computed, keyed by role
    ("corpus", "gazetteer:<tag>", "source:<tag>", "concept_map"); those
    files are not read again.
    """
    canon = copy.deepcopy(config)
    canon.pop("out_dir", None)
    known = known or {}

    def _content(role, path_value):
        if path_value is None or path_value == "@demo":
            return path_value
        digest = known.get(role)
        return _digest_file(Path(path_value)) if digest is None else digest

    _map_files(canon, _content)
    return _digest_bytes(json.dumps(canon, sort_keys=True).encode("utf-8"))


# ---------------------------------------------------------------------------
# Stage inputs and outputs


def build_math_streams(*args) -> dict[str, list[str]]:
    """``sources.build_math_streams``; no stage calls it, bench/tracing.py spans this name."""
    from .sources import build_math_streams

    return build_math_streams(*args)


class StageWriter:
    """One stage run's inputs (role -> digest) and the files it writes into ``out_dir``.

    Each file is written to ``.<name>.partial`` and renamed over its
    target.  The stage's manifest is removed before the first file and
    written last, so a manifest on disk always matches its files.
    """

    def __init__(self, out_dir: Path, manifest: str | None):
        self.out_dir = out_dir
        self.manifest = manifest
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []

    def file(self, name: str, write) -> None:
        """``write(path)`` writes the file; the path it gets is the temp file."""
        if not self.outputs and self.manifest is not None:
            (self.out_dir / self.manifest).unlink(missing_ok=True)
        partial = self.out_dir / f".{name}.partial"
        try:
            write(partial)
            os.replace(partial, self.out_dir / name)
        except BaseException:
            partial.unlink(missing_ok=True)
            raise
        self.outputs.append(name)

    def load_input(self, role: str, ref: str, what: str, load):
        """``load(path)``, its digest recorded as input ``role``; a missing file is an input error."""
        path = Path(ref)
        if not path.is_file():
            raise ParseError(f"{what} file not found: {ref}")
        self.inputs[role] = _digest_file(path)
        return load(path)

    def tsv(self, name: str, header, rows) -> None:
        self.file(name, lambda path: write_tsv(path, header, rows))

    def json(self, name: str, payload) -> None:
        self.file(name, lambda path: write_json(path, payload))


def _write_manifest(out: StageWriter, stage: str, config: dict) -> None:
    manifest = {
        "tool": TOOL_NAME,
        "version": __version__,
        "stage": stage,
        "seed": config["seed"],
        "config_digest": config_digest(config, out.inputs),
        "inputs": dict(sorted(out.inputs.items())),
        "outputs": {name: _digest_file(out.out_dir / name) for name in sorted(out.outputs)},
    }
    out.json(out.manifest, manifest)


# ---------------------------------------------------------------------------
# Stages

# Stage name -> (help line, whether the stage writes ``<name>_manifest.json``
# after its files).  The body of each stage is ``run(config, out)`` in module
# ``stages.<name>``.
STAGE_REGISTRY = {
    "synth": ("write the demo corpus and its fixture files", False),
    "ingest": ("validate the corpus and summarize its contents", True),
    "stats": ("identifier/name/class distributions and their entropies", True),
    "correspond": ("arXiv/MSC co-occurrence, uncertainty, and cross prediction", True),
    "classify": ("train and score the text classifier", True),
    "augment": ("identifier-name augmentation experiment", True),
    "ablate": ("text/math input ablation experiment", True),
    "link": ("gazetteer entity linking and its evaluation", True),
    "mathel": ("formula-concept linking and coverage", True),
    "explain": ("surrogate explanations, entity rankings, entropy table", True),
    "plotdata": ("plot-ready tables derived from stage outputs", True),
    "report": ("assemble stage tables into report.md and manifest.json", False),
}


def _stage_runner(name: str, manifest: bool) -> Callable[[dict, Path], list[str]]:
    def run(config: dict, out_dir: Path) -> list[str]:
        body = importlib.import_module(f"{__package__}.stages.{name}").run
        out = StageWriter(out_dir, f"{name}_manifest.json" if manifest else None)
        body(config, out)
        if manifest:
            _write_manifest(out, name, config)
        return out.outputs
    return run


STAGES: dict[str, Callable[[dict, Path], list[str]]] = {
    name: _stage_runner(name, manifest) for name, (_, manifest) in STAGE_REGISTRY.items()}
"""Stage name -> ``run(config, out_dir)``, which returns the files it wrote."""


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-c", "--config", metavar="FILE",
                        help="JSON config file (flags override its values)")
    common.add_argument("--corpus", metavar="FILE",
                        help="corpus JSONL file, or @demo for the built-in corpus")
    common.add_argument("--out-dir", metavar="DIR", help="output directory")
    common.add_argument("--seed", type=int, metavar="N", help="master random seed")
    parser = argparse.ArgumentParser(
        prog=TOOL_NAME,
        description="Desk-scale pipeline for classifying STEM documents and "
                    "explaining the classifiers through their identifiers, "
                    "names, and linked entities.")
    parser.add_argument("--version", action="version",
                        version=f"{TOOL_NAME} {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("print-config", parents=[common],
                          help="print the effective configuration and exit")
    for name, (help_line, _) in STAGE_REGISTRY.items():
        stage_parser = subparsers.add_parser(name, parents=[common], help=help_line)
        if name == "plotdata":
            stage_parser.add_argument(
                "--which", choices=("symbol-name-distribution", "entropy-table"),
                help="which plot table to produce")
            stage_parser.add_argument("--symbol", help="identifier symbol to plot")
            stage_parser.add_argument("--name", help="identifier name to plot")
    return parser


def _fail(exc: Exception, code: int) -> int:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
    return code


@contextmanager
def _convergence_warnings(stage: str):
    """Print one JSON line on stderr per fit that stopped unconverged.

    Other warnings pass through unchanged.
    """
    caught: list[warnings.WarningMessage] = []
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ConvergenceWarning)
            yield
    finally:
        for item in caught:
            if isinstance(item.message, ConvergenceWarning):
                record = {"warning": "ConvergenceWarning", "stage": stage,
                          "iterations": item.message.iterations,
                          "final_loss": item.message.final_loss,
                          "message": str(item.message)}
                print(json.dumps(record, ensure_ascii=False), file=sys.stderr)
            else:
                warnings.showwarning(item.message, item.category, item.filename,
                                     item.lineno, item.file, item.line)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {"corpus": args.corpus, "out_dir": args.out_dir, "seed": args.seed,
                 **{f"plot.{key}": getattr(args, key, None) for key in ("which", "symbol", "name")}}
    try:
        config = load_config(args.config, overrides)
        if args.command == "print-config":
            print(json.dumps(config, sort_keys=True, indent=2, ensure_ascii=False))
            return 0
        out_dir = Path(config["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        with _convergence_warnings(args.command):
            outputs = STAGES[args.command](config, out_dir)
        print(f"{args.command}: wrote {', '.join(outputs)}")
        return 0
    except ConfigError as exc:
        return _fail(exc, 2)
    except (ParseError, OSError) as exc:
        return _fail(exc, 3)
    except ToolkitError as exc:
        return _fail(exc, 4)


def entry():
    """Run ``main`` on the command line, flush stdout and stderr, and end the process.

    The entry point of ``python -m stemexplain`` and of the ``stemexplain``
    script; it never returns.  ``os._exit`` skips freeing the interpreter's
    objects, which no output depends on.  An exception from ``main`` or from
    a flush propagates, so the interpreter exits the usual way.
    """
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
