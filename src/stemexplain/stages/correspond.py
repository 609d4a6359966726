"""correspond: arXiv x MSC co-occurrence, its uncertainty, and category cross prediction."""

from __future__ import annotations

from .. import classify, cli, stats
from . import resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    matrix = stats.build_cooccurrence(docs)
    out.tsv("cooccurrence.tsv", ["arxiv\\msc"] + list(matrix.col_labels),
            [(label,) + tuple(matrix.counts[i]) for i, label in enumerate(matrix.row_labels)])

    uncertainty_rows, summary_rows = [], []
    for direction in ("rows", "columns"):
        report = stats.uncertainty_report(matrix, direction)
        for label, entropy, margin in report.rows:
            uncertainty_rows.append((direction, label, entropy, margin))
        summary_rows.append((direction, report.entropy_mean, report.entropy_max,
                             report.margin_mean, report.margin_max))
    out.tsv("uncertainty.tsv", ["direction", "label", "entropy", "margin"], uncertainty_rows)
    out.tsv("uncertainty_summary.tsv",
            ["direction", "entropy_mean", "entropy_max", "margin_mean", "margin_max"],
            summary_rows)

    # Dual route: count-table argmax next to a trained classifier.
    agreement_rows = []
    for direction, axis in (("arxiv-from-msc", "columns"), ("msc-from-arxiv", "rows")):
        counting = stats.argmax_predict(matrix, axis)
        learned = classify.classifier_label_map(docs, direction, **config["logreg"])
        matches, mismatches = stats.compare_predictions(counting, learned)
        agreement_rows.append((direction, matches, mismatches))
    out.tsv("argmax_vs_classifier.tsv", ["direction", "matches", "mismatches"],
            agreement_rows)

    accuracy_rows = []
    for direction in ("arxiv-from-msc", "msc-from-arxiv"):
        for label_mode in ("single", "multi"):
            for granularity in ("fine", "coarse"):
                report = classify.predict_categories(
                    docs, direction, label_mode=label_mode,
                    granularity=granularity, seed=config["seed"],
                    test_fraction=config["split"]["test_fraction"],
                    **config["logreg"])
                accuracy_rows.append((direction, label_mode, granularity,
                                      report.accuracy, report.train_accuracy,
                                      report.n_train, report.n_test,
                                      report.evaluated_on))
    out.tsv("category_accuracy.tsv",
            ["direction", "label_mode", "granularity", "accuracy", "train_accuracy",
             "n_train", "n_test", "evaluated_on"], accuracy_rows)
