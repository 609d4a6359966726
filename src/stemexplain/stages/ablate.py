"""ablate: accuracy and relative cost of the four text/math input modes."""

from __future__ import annotations

from .. import augment, cli
from . import load_concept_map, resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    concept_map = load_concept_map(config, out)
    report = augment.run_ablation_experiment(
        docs, concept_map, seed=config["seed"], class_axis=config["class_axis"],
        test_fraction=config["split"]["test_fraction"], **config["logreg"])
    out.tsv("ablate.tsv", ["mode", "accuracy", "relative_cost"],
            [(row.mode, row.accuracy, row.relative_cost) for row in report.rows])
    out.tsv("ablate_coverage.tsv", ["phrase", "missing_class"],
            list(report.coverage_violations))
    out.json("ablate.json", {
        "class_axis": report.class_axis,
        "rows": [{"mode": r.mode, "accuracy": r.accuracy,
                  "relative_cost": r.relative_cost} for r in report.rows],
        "coverage_violations": [list(v) for v in report.coverage_violations],
        "n_train": report.n_train,
        "n_test": report.n_test,
        "full_scale_reference": augment.FULL_SCALE_REFERENCE,
    })
