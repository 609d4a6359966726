"""link: gazetteer links of the text, their evaluation, and the gold tuples."""

from __future__ import annotations

from .. import cli, linker
from . import load_gazetteers, resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    gazetteers = load_gazetteers(config, out)
    links, evaluation, tuples = linker.link_corpus(docs, gazetteers,
                                                   max_n=config["linker"]["max_n"])
    out.tsv("links.tsv", linker.LINK_COLUMNS, links)
    out.tsv("link_eval.tsv", linker.LINK_EVAL_COLUMNS, evaluation)
    out.tsv("link_tuples.tsv", linker.LINK_TUPLE_COLUMNS, tuples)
