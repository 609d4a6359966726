"""classify: the text classifier's scores, its model, and its test predictions."""

from __future__ import annotations

from .. import classify, cli, encode
from . import resolve_corpus


def run(config: dict, out: cli.StageWriter) -> None:
    docs = resolve_corpus(config, out)
    kept, labels, skipped = classify.labeled_documents(docs, config["class_axis"])
    streams = encode.text_streams(kept, config["encode"]["remove_stopwords"],
                                  config["encode"]["lemmatize"])
    train_idx, test_idx = classify.stratified_split(
        labels, config["split"]["test_fraction"], classify.derive_seed(config["seed"], "classify"))
    encoder, vectors, model = classify.fit_split_model(streams, labels, train_idx,
                                                       **config["logreg"])
    model.metadata["seed"] = config["seed"]
    train_accuracy = classify.subset_accuracy(model, vectors, labels, train_idx)
    accuracy, evaluated_on, predicted = classify.held_out_accuracy(model, vectors, labels,
                                                                   train_idx, test_idx)
    out.tsv("classify.tsv", ["metric", "value"], [
        ("accuracy", accuracy),
        ("train_accuracy", train_accuracy),
        ("evaluated_on", evaluated_on),
        ("n_train", len(train_idx)),
        ("n_test", len(test_idx)),
        ("n_skipped_unlabeled", skipped),
        ("classes", len(model.classes)),
        ("vocabulary", len(encoder.vocabulary)),
        ("solver", model.metadata["solver"]),
        ("iterations", model.metadata["iterations"]),
        ("final_loss", model.metadata["final_loss"]),
        ("grad_norm", model.metadata["grad_norm"]),
        ("converged", model.metadata["converged"]),
    ])
    out.json("classify_model.json", {"tfidf": encoder.to_record(), "logreg": model.to_record()})
    out.tsv("classify_predictions.tsv", ["doc", "label", "predicted"],
            [(kept[i].doc_id, labels[i], guess) for i, guess in zip(test_idx, predicted)])
