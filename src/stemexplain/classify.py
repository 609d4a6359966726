"""Multinomial logistic regression over sparse tf-idf vectors.

Training minimizes L2-regularized multinomial cross-entropy, starting
from zero weights, with limited-memory BFGS (Liu & Nocedal 1989): a
two-loop recursion over the last few curvature pairs gives the search
direction and an Armijo backtracking line search the step length.  It
is the only solver; the former fixed-step gradient descent lives in
``tests/oracles.py`` as the reference the tests measure L-BFGS against.
The fit is deterministic, so the same data and hyperparameters always
reproduce bit-identical weights.

Every model is fitted through ``fit_split_model``: tf-idf on the
training rows, then the classifier on their vectors.  Multi-label
documents become one single-label instance per label, each carrying
the document's token stream.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass, field

import numpy as np

from .corpus import Document, axis_labels, labeled_documents  # noqa: F401 (re-export)
from .encode import SparseVector, TfIdfModel, TokenStream, fit_tfidf, transform_all
from .errors import ConvergenceWarning, DomainError, ValidationError

LBFGS_HISTORY = 5  # curvature pairs kept by L-BFGS; each holds two parameter vectors
ARMIJO_C = 1e-4  # sufficient-decrease constant of the line search
MAX_BACKTRACKS = 50  # step halvings before the line search gives up


@dataclass
class LabeledDataset:
    """Feature vectors with one string label each.

    ``dim`` is the feature-space dimension; it defaults to the largest
    index seen plus one but should normally be the vocabulary size of
    the encoder that produced the vectors.
    """

    vectors: list[SparseVector]
    labels: list[str]
    dim: int = 0

    def __post_init__(self):
        if len(self.vectors) != len(self.labels):
            raise ValidationError("vectors and labels must align")
        max_index = max((v.indices[-1] for v in self.vectors if v.indices), default=-1)
        if self.dim <= max_index:
            self.dim = max_index + 1

    def classes(self) -> list[str]:
        return sorted(set(self.labels))


@dataclass
class LogRegModel:
    classes: list[str]
    weights: np.ndarray  # shape (n_classes, dim)
    bias: np.ndarray  # shape (n_classes,)
    metadata: dict = field(default_factory=dict)

    def to_record(self) -> dict:
        return {
            "classes": list(self.classes),
            "weights": [[float(x) for x in row] for row in self.weights],
            "bias": [float(x) for x in self.bias],
            "metadata": dict(self.metadata),
        }

    @staticmethod
    def from_record(record: dict) -> "LogRegModel":
        return LogRegModel(list(record["classes"]),
                           np.array(record["weights"], dtype=float),
                           np.array(record["bias"], dtype=float),
                           dict(record.get("metadata", {})))


def softmax(scores: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row-wise softmax, shifted by the row maximum for stability.

    The result goes to ``out``, which may be ``scores`` itself; by default
    it is a new array and ``scores`` is left as it was.
    """
    shifted = np.subtract(scores, scores.max(axis=-1, keepdims=True), out=out)
    exp = np.exp(shifted, out=out)
    return np.divide(exp, exp.sum(axis=-1, keepdims=True), out=out)


def loss_and_gradient(weights: np.ndarray, bias: np.ndarray, x: np.ndarray,
                      y: np.ndarray, l2: float):
    """Mean cross-entropy plus (l2/2)||W||^2 and its analytic gradient.

    ``y`` holds class indices; the bias is not regularized.  Returns
    (loss, weight gradient, bias gradient).
    """
    n = x.shape[0]
    probs = softmax(x @ weights.T + bias)
    with np.errstate(divide="ignore"):  # zero prob -> inf loss, caught by caller
        log_likelihood = np.log(probs[np.arange(n), y])
    loss = -float(log_likelihood.mean()) + 0.5 * l2 * float((weights ** 2).sum())
    residual = probs
    residual[np.arange(n), y] -= 1.0
    grad_w = residual.T @ x / n + l2 * weights
    grad_b = residual.mean(axis=0)
    return loss, grad_w, grad_b


def _dense(vectors: list[SparseVector], dim: int) -> np.ndarray:
    x = np.zeros((len(vectors), dim), dtype=float)
    for row, vector in enumerate(vectors):
        for index, value in zip(vector.indices, vector.values):
            if index >= dim:
                raise ValidationError(f"vector index {index} exceeds dimension {dim}")
            x[row, index] = value
    return x


def _lbfgs(x, y, weights, bias, l2, max_iterations, tolerance):
    """Limited-memory BFGS, writing the solution into ``weights`` and ``bias``.

    Weights and bias form one parameter vector.  The direction comes from
    the two-loop recursion over the newest ``LBFGS_HISTORY`` pairs, kept
    in preallocated ring buffers; pairs without clearly positive curvature
    are not stored.  The first trial step is 1 (at most unit length while
    no pair is stored) and halves until the Armijo condition holds on a
    finite loss.  Each accepted step is one iteration; the fit has
    converged when a step changes the loss by less than ``tolerance``.
    Returns (loss, gradient norm, iterations, converged).
    """
    n_classes, dim = weights.shape
    split = n_classes * dim

    def evaluate(theta):
        loss, grad_w, grad_b = loss_and_gradient(
            theta[:split].reshape(n_classes, dim), theta[split:], x, y, l2)
        return loss, np.concatenate((grad_w.ravel(), grad_b))

    theta = np.zeros(split + n_classes)
    loss, grad = evaluate(theta)
    s_hist = np.empty((LBFGS_HISTORY, theta.size))
    y_hist = np.empty((LBFGS_HISTORY, theta.size))
    rho = np.empty(LBFGS_HISTORY)
    alpha = np.empty(LBFGS_HISTORY)
    stored = 0
    newest = -1
    iterations = 0
    converged = False
    while iterations < max_iterations:
        direction = -grad
        if stored:
            order = [(newest - k) % LBFGS_HISTORY for k in range(stored)]
            for i in order:
                alpha[i] = rho[i] * (s_hist[i] @ direction)
                direction -= alpha[i] * y_hist[i]
            direction *= (s_hist[newest] @ y_hist[newest]) / (y_hist[newest] @ y_hist[newest])
            for i in reversed(order):
                direction += (alpha[i] - rho[i] * (y_hist[i] @ direction)) * s_hist[i]
        slope = float(grad @ direction)
        if slope >= 0.0:  # not a descent direction: restart from steepest descent
            stored = 0
            direction = -grad
            slope = float(grad @ direction)
        t = 1.0 if stored else 1.0 / max(1.0, math.sqrt(-slope))
        for _ in range(MAX_BACKTRACKS):
            candidate = theta + t * direction
            with np.errstate(over="ignore", invalid="ignore"):
                new_loss, new_grad = evaluate(candidate)
            if math.isfinite(new_loss) and new_loss <= loss + ARMIJO_C * t * slope:
                break
            t *= 0.5
        else:
            break  # no acceptable step: stop unconverged
        iterations += 1
        step_vec = candidate - theta
        grad_change = new_grad - grad
        curvature = float(step_vec @ grad_change)
        if curvature > 1e-10 * float(grad_change @ grad_change):
            newest = (newest + 1) % LBFGS_HISTORY
            s_hist[newest] = step_vec
            y_hist[newest] = grad_change
            rho[newest] = 1.0 / curvature
            stored = min(stored + 1, LBFGS_HISTORY)
        theta, grad, previous, loss = candidate, new_grad, loss, new_loss
        if abs(previous - loss) < tolerance:
            converged = True
            break
    weights[...] = theta[:split].reshape(n_classes, dim)
    bias[...] = theta[split:]
    return loss, float(np.linalg.norm(grad)), iterations, converged


def train_logreg(data: LabeledDataset, l2: float = 1e-4, max_iterations: int = 500,
                 tolerance: float = 1e-6) -> LogRegModel:
    """Fit the classifier with L-BFGS, the only solver.

    Starts from zero weights, so the fit reads no seed, and stops when the
    loss changes by less than ``tolerance`` or after ``max_iterations``
    steps; a fit that hits the cap emits a ``ConvergenceWarning``.
    Requires at least two distinct labels.  The fixed-step gradient descent
    the tests compare against is ``gradient_descent`` in ``tests/oracles.py``.
    """
    classes = data.classes()
    if len(classes) < 2:
        raise ValidationError("training needs at least two distinct labels")
    index_of = {label: i for i, label in enumerate(classes)}
    x = _dense(data.vectors, data.dim)
    y = np.array([index_of[label] for label in data.labels], dtype=int)
    weights = np.zeros((len(classes), data.dim), dtype=float)
    bias = np.zeros(len(classes), dtype=float)
    loss, grad_norm, iterations, converged = _lbfgs(
        x, y, weights, bias, l2, max_iterations, tolerance)
    if not converged:
        warnings.warn(ConvergenceWarning(
            f"lbfgs fit stopped after {iterations} iterations at loss {loss:.6g} "
            f"without converging", iterations, loss), stacklevel=2)
    metadata = {"solver": "lbfgs", "iterations": iterations, "final_loss": loss,
                "grad_norm": grad_norm, "converged": converged, "l2": l2}
    return LogRegModel(classes, weights, bias, metadata)


def _scores(model: LogRegModel, vectors: list[SparseVector]) -> np.ndarray:
    """One row of class scores per vector, from one dense product."""
    return _dense(vectors, model.weights.shape[1]) @ model.weights.T + model.bias


def predict_proba(model: LogRegModel, vector: SparseVector) -> np.ndarray:
    """Class probabilities for one vector; probabilities sum to 1."""
    return softmax(_scores(model, [vector])[0])


def predict_labels(model: LogRegModel, vectors: list[SparseVector]) -> list[str]:
    """Argmax class of every vector, scored with one dense product.

    The argmax is taken over the raw class scores, so two scores that
    softmax would round to one probability still differ; ties resolve to
    the lowest class index.  Every prediction of the package is made here.
    """
    if not vectors:
        return []
    return [model.classes[i] for i in np.argmax(_scores(model, vectors), axis=1)]


def predict_label(model: LogRegModel, vector: SparseVector) -> str:
    """``predict_labels`` of the one vector."""
    return predict_labels(model, [vector])[0]


def _accuracy(predicted: list[str], labels: list[str]) -> float:
    if not labels:
        raise DomainError("accuracy undefined on an empty dataset")
    return sum(guess == label for guess, label in zip(predicted, labels)) / len(labels)


def evaluate_accuracy(model: LogRegModel, data: LabeledDataset) -> float:
    return _accuracy(predict_labels(model, data.vectors), data.labels)


def subset_accuracy(model: LogRegModel, vectors: list[SparseVector], labels: list[str],
                    indices: list[int]) -> float:
    """Accuracy on the rows ``indices`` of parallel vector and label lists."""
    return evaluate_accuracy(model, LabeledDataset(
        [vectors[i] for i in indices], [labels[i] for i in indices],
        dim=model.weights.shape[1]))


def held_out_accuracy(model: LogRegModel, vectors: list[SparseVector], labels: list[str],
                      train_idx: list[int], test_idx: list[int]) -> tuple[float, str, list[str]]:
    """Accuracy on the test rows, or on the training rows when the split left
    none: (accuracy, "test" or "train", the predicted label of each row)."""
    rows, evaluated_on = (test_idx, "test") if test_idx else (train_idx, "train")
    predicted = predict_labels(model, [vectors[i] for i in rows])
    return _accuracy(predicted, [labels[i] for i in rows]), evaluated_on, predicted


def fit_split_model(streams: list[TokenStream], labels: list[str], train_idx: list[int],
                    **train_kwargs) -> tuple[TfIdfModel, list[SparseVector], LogRegModel]:
    """Fit tf-idf and the classifier on the training rows; encode every stream.

    The only caller of ``train_logreg`` in the package.  Returns
    (encoder, one vector per stream, model).
    """
    encoder = fit_tfidf([streams[i] for i in train_idx])
    vectors = transform_all(encoder, streams)
    train = LabeledDataset([vectors[i] for i in train_idx], [labels[i] for i in train_idx],
                           dim=len(encoder.vocabulary))
    return encoder, vectors, train_logreg(train, **train_kwargs)


# ---------------------------------------------------------------------------
# Splits and the category-from-category experiment


def derive_seed(seed: int, *parts: str) -> int:
    """Stable per-stage seed derived from a master seed and name parts."""
    import hashlib

    digest = hashlib.sha256(("/".join([str(seed), *parts])).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stratified_split(labels: list[str], test_fraction: float, seed: int) -> tuple[list[int], list[int]]:
    """Seeded per-label split into train/test index lists.

    Each label keeps at least one training instance; labels with a
    single instance stay entirely in the training set.
    """
    if not 0.0 <= test_fraction < 1.0:
        raise ValidationError(f"test fraction must lie in [0, 1), got {test_fraction}")
    by_label: dict[str, list[int]] = {}
    for index, label in enumerate(labels):
        by_label.setdefault(label, []).append(index)
    train: list[int] = []
    test: list[int] = []
    for label in sorted(by_label):
        indices = sorted(by_label[label])
        rng = random.Random(derive_seed(seed, "split", label))
        rng.shuffle(indices)
        n_test = min(int(len(indices) * test_fraction), len(indices) - 1)
        test.extend(indices[:n_test])
        train.extend(indices[n_test:])
    return sorted(train), sorted(test)


def truncate_label(label: str, axis: str, granularity: str) -> str:
    """Coarse labels keep the top level: arXiv up to the dot, MSC the
    two leading digits.  Fine labels pass through unchanged."""
    if granularity == "fine":
        return label
    if granularity != "coarse":
        raise ValidationError(f"granularity must be 'coarse' or 'fine', got {granularity!r}")
    if axis == "arxiv":
        return label.split(".")[0]
    return label[:2]


@dataclass(frozen=True)
class CategoryPredictionReport:
    direction: str
    label_mode: str
    granularity: str
    accuracy: float
    train_accuracy: float
    n_train: int
    n_test: int
    skipped: int
    evaluated_on: str  # "test", or "train" when the split left no test set


def direction_axes(direction: str) -> tuple[str, str]:
    """(source axis, target axis) of a cross-prediction direction."""
    if direction == "arxiv-from-msc":
        return "msc", "arxiv"
    if direction == "msc-from-arxiv":
        return "arxiv", "msc"
    raise ValidationError(f"unknown direction {direction!r}")


def _label_streams(documents: list[Document], source_axis: str, target_axis: str,
                   granularity: str = "fine") -> tuple[list[TokenStream], list[list[str]], int]:
    """The inputs of both category experiments.

    For each document labeled on both axes: a stream of its source-axis
    labels (one token per code) and its list of target-axis labels, all
    truncated to ``granularity``.  Also returns the number of documents
    skipped for lacking either; none labeled on both is a ValidationError.
    """
    streams, targets = [], []
    for doc in documents:
        source = [truncate_label(c, source_axis, granularity) for c in axis_labels(doc, source_axis)]
        target = [truncate_label(c, target_axis, granularity) for c in axis_labels(doc, target_axis)]
        if source and target:
            streams.append(TokenStream.of(doc.doc_id, source))
            targets.append(target)
    if not streams:
        raise ValidationError("no document carries labels on both axes")
    return streams, targets, len(documents) - len(streams)


def predict_categories(documents: list[Document], direction: str,
                       label_mode: str = "single", granularity: str = "fine",
                       seed: int = 0, test_fraction: float = 0.2,
                       **train_kwargs) -> CategoryPredictionReport:
    """Predict one category axis from the other.

    The source-axis labels of a document are its token stream (one
    token per code), classified toward the target axis.  ``label_mode``
    "single" keeps the primary target label; "multi" makes one instance
    per target label, each with the document's stream.  Documents are
    split, stratified by their primary target label, and then expanded
    into instances, so all instances of a document fall on the same
    side.  Tf-idf and the classifier are fitted on the training instances
    only, so a training document with k labels counts k times in the
    document frequencies as in the loss.
    """
    source_axis, target_axis = direction_axes(direction)
    if label_mode not in ("single", "multi"):
        raise ValidationError(f"label_mode must be 'single' or 'multi', got {label_mode!r}")
    doc_streams, doc_targets, skipped = _label_streams(documents, source_axis, target_axis,
                                                       granularity)
    if label_mode == "single":
        doc_targets = [target[:1] for target in doc_targets]

    doc_train, _ = stratified_split([target[0] for target in doc_targets], test_fraction,
                                    derive_seed(seed, "categories", direction))
    in_train = set(doc_train)
    streams, labels, train_idx, test_idx = [], [], [], []
    for d, (stream, target) in enumerate(zip(doc_streams, doc_targets)):
        for label in target:
            (train_idx if d in in_train else test_idx).append(len(streams))
            streams.append(stream)
            labels.append(label)
    _, vectors, model = fit_split_model(streams, labels, train_idx, **train_kwargs)
    accuracy, evaluated_on, _ = held_out_accuracy(model, vectors, labels, train_idx, test_idx)
    return CategoryPredictionReport(direction, label_mode, granularity, accuracy,
                                    subset_accuracy(model, vectors, labels, train_idx),
                                    len(train_idx), len(test_idx), skipped, evaluated_on)


def classifier_label_map(documents: list[Document], direction: str,
                         **train_kwargs) -> dict[str, str]:
    """Train on the full corpus and map each source label to a prediction.

    Used to compare the classifier against co-occurrence argmax
    predictions label by label.  The documents and streams are those of
    ``predict_categories`` at fine granularity, each labeled with its
    first target label; every source label is probed as a one-token
    stream.
    """
    streams, targets, _ = _label_streams(documents, *direction_axes(direction))
    encoder, _, model = fit_split_model(streams, [target[0] for target in targets],
                                        list(range(len(streams))), **train_kwargs)
    probes = sorted({label for stream in streams for label in stream.tokens})
    vectors = transform_all(encoder, [TokenStream.of("probe", [label]) for label in probes])
    return dict(zip(probes, predict_labels(model, vectors)))
