"""explain: LIME explanations, entity rankings and the entity entropy table."""

from __future__ import annotations

import json

from .. import cli, explain
from ..errors import ConfigError
from . import load_concept_map, load_source, resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    source_tag, tags = config["explain"]["source"], sorted(config["augment"]["sources"])
    if source_tag not in tags:
        raise ConfigError(f"explain.source is {json.dumps(source_tag)}; it must name one of "
                          f"augment.sources ({', '.join(tags) or 'none configured'})")
    source = load_source(config, source_tag, out)
    concept_map = (None if config["augment"]["concept_map"] is None
                   else load_concept_map(config, out))
    lime, settings = config["lime"], config["explain"]
    report = explain.run_explain(
        docs, source, concept_map, seed=config["seed"], class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"],
        lime=explain.LimeSettings(lime["num_samples"], lime["kernel_width"], lime["ridge"]),
        top_k=lime["top_k"], rank_samples=settings["num_samples"], budget=settings["budget"],
        top_m=settings["top_m"], source_top_k=settings["source_top_k"], **config["logreg"])
    out.tsv("explanations.tsv", ["doc", "class", "fidelity", "position", "token", "weight"],
            report.explanation_rows)
    out.tsv("rankings.tsv", ["mode", "kind", "class", "position", "entity", "strength"],
            report.ranking_rows)
    out.tsv("entropy_report.tsv", ["row", "entropy_bits"], report.entropy.rows)
    out.json("explain.json", {
        "entropy_rows": dict(report.entropy.rows),
        "top_m": report.entropy.top_m,
        "budget": settings["budget"],
        "warnings": report.warnings,
        "lime": report.lime,
        "full_scale_reference": report.entropy.reference,
    })
