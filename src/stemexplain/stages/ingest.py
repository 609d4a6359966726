"""ingest: ``ingest_summary.tsv``, the corpus's documents, labels, segments and gold."""

from __future__ import annotations

from .. import cli, corpus
from . import resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    out.tsv("ingest_summary.tsv", ["metric", "value"],
            corpus.corpus_summary(resolve_corpus(config, out)))
