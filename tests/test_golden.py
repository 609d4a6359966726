"""Byte identity of the pure-Python stage outputs on the demo fixtures.

``golden_demo.json`` maps every file that ``synth --seed 12`` and then the
``ingest``, ``stats``, ``link``, ``mathel`` and ``plotdata --which
symbol-name-distribution`` stages write into one directory to its sha256.
The stages that fit a model are left out, because their floats depend on
the BLAS build.  A change meant to alter one of these files rewrites the
table with ``python tests/test_golden.py`` (``PYTHONPATH=src``) and says
which file changed and why.
"""

import hashlib
import json
import sys
from pathlib import Path

GOLDEN = Path(__file__).with_name("golden_demo.json")

STAGE_ARGV = (("ingest",), ("stats",), ("link",), ("mathel",),
              ("plotdata", "--which", "symbol-name-distribution"))


def demo_digests(directory: Path) -> dict[str, str]:
    """Run ``synth`` and the pure-Python stages into ``directory``; each file's sha256."""
    from stemexplain.cli import main

    assert main(["synth", "--seed", "12", "--out-dir", str(directory)]) == 0
    config = str(directory / "demo_config.json")
    for argv in STAGE_ARGV:
        assert main([*argv, "-c", config, "--out-dir", str(directory)]) == 0, argv
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


def test_demo_outputs_match_the_golden_digests(tmp_path, capsys):
    assert demo_digests(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        digests = demo_digests(Path(scratch))
    GOLDEN.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
