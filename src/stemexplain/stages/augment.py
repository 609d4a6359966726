"""augment: accuracy of text augmented with identifier names, per source and top_k."""

from __future__ import annotations

from .. import augment, cli
from ..errors import ConfigError
from . import load_source, resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    sources = [load_source(config, tag, out) for tag in sorted(config["augment"]["sources"])]
    if not sources:
        raise ConfigError("augment.sources is empty")
    report = augment.run_augmentation_experiment(
        docs, sources, config["augment"]["top_k"], seed=config["seed"],
        class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"], **config["logreg"])
    rows = [("baseline", "text_only", "", report.text_only),
            ("baseline", "symbols_only", "", report.symbols_only),
            ("baseline", "text_plus_symbols", "", report.text_plus_symbols)]
    rows += [("augmented", cell.source, cell.top_k, cell.accuracy) for cell in report.cells]
    out.tsv("augment.tsv", ["row_kind", "source", "top_k", "accuracy"], rows)
    out.json("augment.json", {
        "class_axis": report.class_axis,
        "n_train": report.n_train,
        "n_test": report.n_test,
        "baselines": {"text_only": report.text_only,
                      "symbols_only": report.symbols_only,
                      "text_plus_symbols": report.text_plus_symbols},
        "cells": [{"source": c.source, "top_k": c.top_k, "accuracy": c.accuracy}
                  for c in report.cells],
        "full_scale_reference": augment.FULL_SCALE_REFERENCE,
    })
