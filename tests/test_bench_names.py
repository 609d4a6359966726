"""The package names the benchmark looks up must exist.

``bench/tracing.py`` wraps the functions its ``SPANNED`` and ``COUNTED``
tables name, and ``bench/test_bench.py`` reads ``augment.train_logreg`` and
``linker.lemmatize``.  Tier-1 runs ``bench/test_bench.py`` too (``testpaths``
in ``pyproject.toml``), but a missing name fails there inside a traced walk;
this test names every missing one.  It goes away when ROADMAP item 3
replaces the tracer's name tables with spans the program records itself.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _tracing():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("tracing")
    finally:
        sys.path.remove(str(BENCH))


def test_every_traced_name_resolves():
    tracing = _tracing()
    wanted = [(layer, name) for table in (tracing.SPANNED, tracing.COUNTED)
              for layer, names in table.items() for name in names]
    wanted += [("augment", "train_logreg"), ("linker", "lemmatize")]
    missing = []
    for layer, name in wanted:
        owner = importlib.import_module(f"stemexplain.{layer}")
        *classes, attr = name.split(".")
        for class_name in classes:
            owner = getattr(owner, class_name, None)
        # The tracer replaces a method in its class's own namespace.
        namespace = vars(owner) if owner is not None else {}
        if not callable(namespace.get(attr)):
            missing.append(f"{layer}.{name}")
    assert missing == []
