"""stats: the distribution library and the entropies of its class distributions."""

from __future__ import annotations

import json

from .. import cli, stats
from . import resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    library = stats.build_distribution_library(docs, class_axis=config["class_axis"])
    text = "".join(json.dumps(record, sort_keys=True, ensure_ascii=False) + "\n"
                   for record in library.to_records())
    out.file("library.jsonl", lambda path: path.write_text(text, encoding="utf-8"))
    summary_rows, key_rows = [], []
    for keyed in ("identifier", "name"):
        summary = stats.entropy_summary(library, keyed=keyed)
        summary_rows.append((keyed, summary.minimum, summary.mean, summary.maximum))
        for key, value in sorted(summary.per_key.items()):
            key_rows.append((keyed, key, value))
    out.tsv("entropy_summary.tsv",
            ["keyed_by", "min_entropy", "mean_entropy", "max_entropy"], summary_rows)
    out.tsv("key_entropies.tsv", ["keyed_by", "key", "entropy"], key_rows)
