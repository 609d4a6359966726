"""One module per CLI stage, plus the input loaders several stages share.

The body of stage ``<name>`` is ``run(config, out)`` in module
``stages.<name>``.  It reads its inputs and writes its files through
``out``, a ``cli.StageWriter``.  ``cli`` imports a stage module only when
that stage runs, and a stage module imports the library modules it calls,
so a stage process loads no other stage's code.  Stage code calls library
functions through their module (``corpus.load_corpus``), looked up at call
time, so a wrapper installed on a library module's functions sees the
calls.

Each loader below imports its library module when it is called:
``report`` and the entropy table of ``plotdata`` read only stage tables,
and load none of them.
"""

from __future__ import annotations

from .. import cli
from ..errors import ConfigError


def resolve_corpus(config: dict, out: cli.StageWriter) -> list:
    """The documents of ``config["corpus"]``, or of the demo corpus for ``@demo``."""
    from .. import corpus

    ref = config["corpus"]
    if ref == "@demo":
        from ..synth import demo_corpus

        docs = demo_corpus()
        out.inputs["corpus"] = cli._digest_bytes(corpus.corpus_to_text(docs).encode("utf-8"))
        return docs
    return out.load_input("corpus", ref, "corpus", corpus.load_corpus)


def load_gazetteers(config: dict, out: cli.StageWriter) -> dict:
    """Every gazetteer of ``linker.gazetteers`` by tag; none is a config error."""
    from .. import linker

    gazetteers = {tag: out.load_input(f"gazetteer:{tag}", ref, "gazetteer",
                                      lambda path: linker.load_gazetteer(path, tag))
                  for tag, ref in sorted(config["linker"]["gazetteers"].items())}
    if not gazetteers:
        raise ConfigError("linker.gazetteers is empty; nothing to link against")
    return gazetteers


def load_source(config: dict, tag: str, out: cli.StageWriter):
    """The symbol-name source ``augment.sources[tag]``."""
    from .. import sources

    ref = config["augment"]["sources"].get(tag)
    if ref is None:
        raise ConfigError(f"augment.sources has no entry {tag!r}")
    return out.load_input(f"source:{tag}", ref, "symbol source",
                          lambda path: sources.load_symbol_source(path, tag))


def load_concept_map(config: dict, out: cli.StageWriter):
    """The concept map ``augment.concept_map``, which this stage requires."""
    from .. import sources

    ref = config["augment"]["concept_map"]
    if ref is None:
        raise ConfigError("augment.concept_map is required for this stage")
    return out.load_input("concept_map", ref, "concept map", sources.load_concept_map)
