"""Command-line pipeline over corpus files.

Each subcommand runs one stage: it resolves its inputs, computes its tables
with one or more library calls, writes them into the output directory, then
a stage manifest.  ``report`` stitches the stage tables into one markdown
report plus an overall manifest.  All outputs are plain TSV, JSON, JSONL, or markdown,
and are byte-identical across runs with the same config and input bytes,
regardless of where the output directory lives: manifests record content
digests and relative names, never paths.

Every file goes through one ``StageWriter``: it is written to
``.<name>.partial`` next to its target and moved over it with
``os.replace``.  A stage removes its old manifest before its first write and
writes the new one last, so a manifest on disk always matches its files.  A
stage killed mid-write can leave a ``.partial`` file, which a rerun replaces.

Exit codes: 0 success, 2 config error (bad JSON, unknown keys, missing
seed, a setting outside what ``SETTINGS`` accepts for it, or one a stage
cannot use, such as a ``plot.symbol`` absent from the corpus), 3 input
error (missing or malformed input files, missing stage outputs), 4 runtime
failure (training or evaluation raised).  Failures print a single JSON
record on stderr: {"error": <class>, "message": <text>}.  A model fit that
stops without converging prints {"warning": "ConvergenceWarning", "stage",
"iterations", "final_loss", "message"} on stderr and the stage goes on.

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

# Every setting, by dotted path: (default, kind, domain).  A kind is a key
# of _KINDS, one of those plus " or null", or "choice"; a choice's domain is
# the values it accepts, and a file's or tag map's domain is its role in
# manifests.  Unknown keys anywhere in a config file are rejected; a tag
# map or list value replaces the default wholesale.
SETTINGS = {
    "corpus": ("@demo", "file", "corpus"),
    "out_dir": ("out", "string", None),
    "seed": (None, "seed", None),
    "class_axis": ("arxiv", "choice", ("arxiv", "msc")),
    "encode.remove_stopwords": (True, "bool", None),
    "encode.lemmatize": (False, "bool", None),
    "split.test_fraction": (0.2, "fraction", None),
    "logreg.l2": (1e-4, "number >= 0", None),
    "logreg.max_iterations": (500, "count", None),
    "logreg.tolerance": (1e-6, "number >= 0", None),
    "lime.num_samples": (300, "count", None),
    "lime.kernel_width": (None, "number > 0 or null", None),
    "lime.ridge": (1.0, "number >= 0", None),
    "lime.top_k": (10, "count or null", None),
    "linker.gazetteers": ({}, "tag map", "gazetteer"),
    "linker.max_n": (3, "count", None),
    "linker.window": (10, "count", None),
    "augment.sources": ({}, "tag map", "source"),
    "augment.top_k": ([3, 5], "count list", None),
    "augment.concept_map": (None, "file or null", "concept_map"),
    "explain.budget": (5, "count", None),
    "explain.top_m": (20, "count", None),
    "explain.num_samples": (300, "count", None),
    "explain.source": (None, "string or null", None),
    "explain.source_top_k": (3, "count", None),
    "plot.which": ("symbol-name-distribution", "choice",
                   ("symbol-name-distribution", "entropy-table")),
    "plot.symbol": (None, "string or null", None),
    "plot.name": (None, "string or null", None),
}

DEFAULT_CONFIG: dict = {}
for _path, (_default, _, _) in SETTINGS.items():
    _section, _, _key = _path.rpartition(".")
    (DEFAULT_CONFIG.setdefault(_section, {}) if _section else DEFAULT_CONFIG)[_key] = _default

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
    if type(value) is str:  # most cells
        return value
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


def _is_number(value) -> bool:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


# Kind -> (whether a value is of the kind, what a value of the kind is).  A
# boolean is not an integer or a number here.
_KINDS = {
    "string": (lambda value: isinstance(value, str), "a string"),
    "file": (lambda value: isinstance(value, str), "a string"),
    "tag map": (lambda value: isinstance(value, dict)
                and all(isinstance(v, str) for v in value.values()),
                "an object with string values"),
    "bool": (lambda value: isinstance(value, bool), "true or false"),
    "count": (_is_count, "an integer >= 1"),
    "count list": (lambda value: isinstance(value, list) and value != []
                   and all(map(_is_count, value)), "a non-empty list of integers >= 1"),
    "number >= 0": (lambda value: _is_number(value) and value >= 0, "a number >= 0"),
    "number > 0": (lambda value: _is_number(value) and value > 0, "a number > 0"),
    "fraction": (lambda value: _is_number(value) and 0 <= value < 1, "a number in [0, 1)"),
    # null until the overrides are in; load_config then requires it
    "seed": (lambda value: value is None or isinstance(value, int)
             and not isinstance(value, bool), "an integer"),
}


def accepts(path: str) -> tuple[Callable[[object], bool], str]:
    """Whether a value fits setting ``path``, and what it must be in the words
    of its ConfigError and of the README's settings table."""
    _, kind, domain = SETTINGS[path]
    if kind == "choice":
        return (lambda value: value in domain), " or ".join(map(repr, domain))
    if kind.endswith(" or null"):
        test, what = _KINDS[kind.removesuffix(" or null")]
        return (lambda value: value is None or test(value)), f"null or {what}"
    return _KINDS[kind]


def _put(config: dict, path: str, value) -> None:
    """Set ``path`` of ``config`` to ``value``; a ConfigError if no setting has
    that path or the value does not fit it.  A tag becomes the ``source``
    cell of table rows, so a tab, CR or LF in one is a ConfigError too."""
    if path not in SETTINGS:
        raise ConfigError(f"unknown config key: {path}")
    test, what = accepts(path)
    if not test(value):
        raise ConfigError(f"{path} must be {what}")
    if SETTINGS[path][1] == "tag map":
        for tag in value:
            if any(c in tag for c in "\t\r\n"):
                raise ConfigError(f"{path} tag {tag!r} holds a tab or line break")
    section, _, key = path.rpartition(".")
    (config[section] if section else config)[key] = value


def _anchor(path_value, base: Path):
    if path_value is None or path_value == "@demo" or Path(path_value).is_absolute():
        return path_value
    return str(base / path_value)


def _map_files(config: dict, fn) -> None:
    """Replace each file setting by ``fn(role, value)``, roles named as in manifests."""
    for path, (_, kind, role) in SETTINGS.items():
        section, _, key = path.rpartition(".")
        holder = config[section] if section else config
        if kind == "tag map":
            holder[key] = {tag: fn(f"{role}:{tag}", value) for tag, value in holder[key].items()}
        elif kind.startswith("file"):
            holder[key] = fn(role, holder[key])


def load_config(path: str | None, overrides: dict) -> dict:
    """Defaults, then the config file, then overrides keyed by dotted path,
    each value checked as it goes in."""
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
        for key, value in loaded.items():
            if key not in DEFAULT_CONFIG:  # a dotted path too: those are for overrides
                raise ConfigError(f"unknown config key: {key}")
            if not isinstance(DEFAULT_CONFIG[key], dict):  # not a section
                _put(config, key, value)
            elif not isinstance(value, dict):
                raise ConfigError(f"config key {key} must be an object")
            else:
                for inner, setting in value.items():
                    _put(config, f"{key}.{inner}", setting)
        base = source.resolve().parent
        _map_files(config, lambda role, value: _anchor(value, base))
    for key, value in overrides.items():
        if value is not None:
            _put(config, key, value)
    if config["seed"] is None:
        raise ConfigError("seed is required (set it in the config file or pass --seed)")
    return config


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
                "--which", choices=SETTINGS["plot.which"][2],
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
    except MemoryError as exc:  # numpy's message names the array it could not allocate
        return _fail(MemoryError(str(exc) or "out of memory"), 4)


def entry():
    """Run ``main`` on the command line, flush stdout and stderr, and end the process.

    The entry point of ``python -m stemexplain`` and of the ``stemexplain``
    script; it never returns.  Before numpy is first imported it pins BLAS
    to one thread, over any value the caller set: a product split across
    threads sums in another order, and its last bits would depend on the
    thread count.  ``os._exit`` skips freeing the interpreter's objects,
    which no output depends on.  An exception from ``main`` or from a flush
    propagates, so the interpreter exits the usual way.
    """
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
