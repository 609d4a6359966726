"""Byte identity of the pure-Python stage outputs on two fixed inputs.

``golden_demo.json`` maps every file that ``synth --seed 12`` and then the
``ingest``, ``stats``, ``link``, ``mathel`` and ``plotdata --which
symbol-name-distribution`` stages write into one directory to its sha256.
The stages that fit a model are left out, because their floats depend on
the BLAS build.

``golden_judging.json`` does the same for ``link`` and ``mathel`` on the
small hand-written corpus and gazetteers below.  They run the judging
paths that the demo and the benchmark workloads never reach, since those
judge every linked n-gram 0 or 1: relevance-1/2 tuples both covered and
uncovered (one of them stopword-only), links that no gold judges,
gazetteer entries with only a title or only an item id, and a hit that
only the lemmatized lookup finds.

A change meant to alter one of these files rewrites both tables with
``python tests/test_golden.py`` (``PYTHONPATH=src``) and says which file
changed and why.
"""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_demo.json")
GOLDEN_JUDGING = Path(__file__).with_name("golden_judging.json")

STAGE_ARGV = (("ingest",), ("stats",), ("link",), ("mathel",),
              ("plotdata", "--which", "symbol-name-distribution"))

# Item-only entries (a Q-number target) and title-only entries in each source.
GAZETTEERS = {
    "wikidump": ["wave function\tWave_function", "energy level\tEnergy_level",
                 "function\tFunction_(mathematics)", "level\tQ5"],
    "item-name": ["wave function\tQ100", "energy\tEnergy", "spin\tQ7"],
    "sparql-export": ["energy level\tQ200", "wave\tWave", "spin wave\tSpin_wave"],
}

JUDGED_DOCUMENT = {
    "id": "judged", "arxiv": ["quant-ph"], "msc": ["81Q05"],
    "segments": [
        {"kind": "text", "content": "The wave functions of an energy level"},
        {"kind": "formula", "content": "<mi>E</mi>", "fid": "f1"},
        {"kind": "text", "content": "and the spin wave decay. Energy levels shift."},
        {"kind": "formula", "content": "<mi>&#x3C8;</mi>"},
    ],
    "gold": {
        # "wave functions" links only through its lemmas; "functions" and
        # "levels" link but are not judged.
        "entity_relevance": {"wave functions": 1, "energy level": 1, "energy": 0,
                             "wave": 0, "spin wave": 0.5, "the decay": 0.5, "of an": 0.5},
        "entity_targets": {"Wave_functions": {"title": "Wave function", "qid": "Q100"},
                           "energy level": {"title": "Energy level", "qid": "Q999"},
                           "energy": {}},
        "concept_relevance": {"f1": {"energy level": 2, "wave function": 1, "Spin": 0},
                              "seg3": {"energy": 1, "wave": 2}},
    },
}

UNJUDGED_DOCUMENT = {
    "id": "unjudged", "arxiv": ["math-ph"], "msc": ["35Q40"],
    "segments": [
        {"kind": "text", "content": "A spin wave and a wave function meet"},
        {"kind": "formula", "content": "<mi>H</mi>"},
        {"kind": "text", "content": "at every energy level."},
    ],
}


def _digests(directory: Path) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def demo_digests(directory: Path) -> dict[str, str]:
    """Run ``synth`` and the pure-Python stages into ``directory``; each file's sha256."""
    from stemexplain.cli import main

    assert main(["synth", "--seed", "12", "--out-dir", str(directory)]) == 0
    config = str(directory / "demo_config.json")
    for argv in STAGE_ARGV:
        assert main([*argv, "-c", config, "--out-dir", str(directory)]) == 0, argv
    return _digests(directory)


def judging_digests(directory: Path) -> dict[str, str]:
    """Write the judging fixture into ``directory``, run ``link`` and ``mathel``
    into its ``out`` directory; each output file's sha256."""
    from stemexplain.cli import main

    (directory / "corpus.jsonl").write_text(
        "".join(json.dumps(record) + "\n" for record in (JUDGED_DOCUMENT, UNJUDGED_DOCUMENT)),
        encoding="utf-8")
    for tag, lines in GAZETTEERS.items():
        (directory / f"{tag}.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    config = directory / "config.json"
    config.write_text(json.dumps({"seed": 1, "corpus": "corpus.jsonl", "linker": {
        "gazetteers": {tag: f"{tag}.tsv" for tag in GAZETTEERS}}}), encoding="utf-8")
    out_dir = directory / "out"
    for stage in ("link", "mathel"):
        assert main([stage, "-c", str(config), "--out-dir", str(out_dir)]) == 0, stage
    return _digests(out_dir)


def test_demo_outputs_match_the_golden_digests(tmp_path, capsys):
    assert demo_digests(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_judging_outputs_match_the_golden_digests(tmp_path, capsys):
    assert judging_digests(tmp_path) == json.loads(GOLDEN_JUDGING.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    for path, digests_of in ((GOLDEN, demo_digests), (GOLDEN_JUDGING, judging_digests)):
        with tempfile.TemporaryDirectory() as scratch:
            digests = digests_of(Path(scratch))
        path.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {len(digests)} digests to {path}", file=sys.stderr)
