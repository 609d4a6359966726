"""mathel: concept links of each formula's text window, and their coverage."""

from __future__ import annotations

from .. import cli, linker
from . import load_gazetteers, resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    gazetteers = load_gazetteers(config, out)
    rows, coverage = linker.link_corpus_concepts(
        docs, gazetteers, window=config["linker"]["window"], max_n=config["linker"]["max_n"])
    out.tsv("mathel.tsv", linker.MATHEL_COLUMNS, rows)
    if coverage is not None:
        out.tsv("mathel_coverage.tsv", ["metric", "value"], [
            ("gold_concepts", coverage.n_concepts),
            ("fraction_with_article", coverage.fraction_with_article),
            ("fraction_with_item", coverage.fraction_with_item),
            ("fraction_name_in_window", coverage.fraction_name_in_window),
            ("highly_relevant_found", coverage.highly_relevant_found),
        ])
