"""Classical comparison models over bag-of-words / TF-IDF features.

All three are written out directly: multinomial Naive Bayes with add-one
smoothing, logistic regression by full-batch gradient descent, and a linear
SVM by Pegasos-style stochastic subgradient descent.

A split is one ``CsrMatrix`` of token counts over the shared Vocabulary
(compressed sparse row: one row per document, one column per real
vocabulary token), made once by ``count_vector``.  Naive Bayes reads the
counts and the linear models their TF-IDF reweighting.  The models take
the matrix whole and answer for every row at once; only the Pegasos step
loop and the counting pass run per document.  Pegasos keeps w as
``scale * v``, so that a step costs O(row length), not O(columns).

TF-IDF convention (pinned because the bare name is ambiguous):
tf = raw count, idf(t) = ln((1+N)/(1+df(t))) + 1, rows L2-normalized.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .ingest import Label
from .seeds import stream
from .vocab import OOV_INDEX, Vocabulary


@dataclass(frozen=True)
class CsrMatrix:
    """Row i holds columns ``indices[indptr[i]:indptr[i+1]]`` (sorted, unique)
    with values ``data[indptr[i]:indptr[i+1]]``."""
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @cached_property
    def rows(self) -> np.ndarray:
        """Row index of each stored entry."""
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.data * w[self.indices],
                           minlength=self.n_rows)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        return np.bincount(self.indices, self.data * r[self.rows],
                           minlength=self.n_cols)


def count_vector(docs: Sequence[Sequence[str]], vocab: Vocabulary) -> CsrMatrix:
    """Raw token counts of each document; out-of-vocabulary tokens carry no
    feature, and column c is vocabulary index c + 2 (past PAD and OOV)."""
    lookup = vocab.token_to_index
    n_rows, n_cols = len(docs), vocab.size - 2
    lengths = np.fromiter(map(len, docs), dtype=np.int64, count=n_rows)
    ids = np.fromiter((lookup.get(t, OOV_INDEX) for tokens in docs for t in tokens),
                      dtype=np.int64, count=int(lengths.sum()))
    real = ids > OOV_INDEX
    rows = np.repeat(np.arange(n_rows), lengths)[real]
    # sorted unique (row, column) keys: one entry per distinct token of a row
    keys, counts = np.unique(rows * n_cols + (ids[real] - 2), return_counts=True)
    entry_rows, indices = np.divmod(keys, n_cols)
    indptr = np.zeros(n_rows + 1, dtype=np.int64)
    np.cumsum(np.bincount(entry_rows, minlength=n_rows), out=indptr[1:])
    return CsrMatrix(indptr, indices, counts.astype(np.float64), n_cols)


# A class, not a bare idf vector and a function: the benchmark's tracer
# times ``TfidfVectorizer.fit`` and ``TfidfVectorizer.transform`` by name.
@dataclass
class TfidfVectorizer:
    idf: np.ndarray  # (n_features,)

    @classmethod
    def fit(cls, counts: CsrMatrix) -> "TfidfVectorizer":
        df = np.bincount(counts.indices, minlength=counts.n_cols)
        return cls(idf=np.log((1.0 + counts.n_rows) / (1.0 + df)) + 1.0)

    def transform(self, counts: CsrMatrix) -> CsrMatrix:
        """Weighted, row-L2-normalized features; an empty row stays empty."""
        data = counts.data * self.idf[counts.indices]
        # every stored entry is >= 1 (count >= 1, idf >= 1): no zero norms
        norms = np.sqrt(np.bincount(counts.rows, data * data,
                                    minlength=counts.n_rows))
        data /= norms[counts.rows]
        return CsrMatrix(counts.indptr, counts.indices, data, counts.n_cols)


# --- multinomial Naive Bayes -------------------------------------------------

@dataclass
class NaiveBayesModel:
    log_priors: np.ndarray       # (C,)
    log_likelihoods: np.ndarray  # (C, n_features), add-one smoothed

    def _scores(self, counts: CsrMatrix) -> np.ndarray:
        return self.log_priors + np.stack(
            [counts.matvec(ll) for ll in self.log_likelihoods], axis=1)

    def log_posteriors(self, counts: CsrMatrix) -> np.ndarray:
        """(n_docs, C) normalized log posteriors."""
        scores = self._scores(counts)
        m = scores.max(axis=1, keepdims=True)
        return scores - (m + np.log(np.exp(scores - m).sum(axis=1, keepdims=True)))

    def predict(self, counts: CsrMatrix) -> np.ndarray:
        # argmax ties resolve to Negative
        return np.argmax(self._scores(counts), axis=1)


def nb_fit(counts: CsrMatrix, labels: Sequence[int | Label]) -> NaiveBayesModel:
    n_classes = 2
    if counts.n_rows == 0:
        raise ValueError("no training documents")
    labels = np.asarray(labels, dtype=np.int64)
    class_counts = np.bincount(labels, minlength=n_classes).astype(np.float64)
    # one bincount over (class, column) keys gives every class's word counts
    word_counts = np.bincount(labels[counts.rows] * counts.n_cols + counts.indices,
                              counts.data, minlength=n_classes * counts.n_cols
                              ).reshape(n_classes, counts.n_cols)
    with np.errstate(divide="ignore"):
        # a class with no documents gets a -inf prior: never predicted
        log_priors = np.log(class_counts / class_counts.sum())
    smoothed = word_counts + 1.0
    log_likelihoods = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    return NaiveBayesModel(log_priors, log_likelihoods)


# --- linear models (logistic / hinge) ----------------------------------------

@dataclass
class LinearModel:
    w: np.ndarray
    b: float

    def score(self, x: CsrMatrix) -> np.ndarray:
        return x.matvec(self.w) + self.b

    def predict(self, x: CsrMatrix) -> np.ndarray:
        # sign rule with ties to Negative: positive score means Positive
        return (self.score(x) > 0).astype(np.int64)


def _logistic_grad(w: np.ndarray, b: float, x: CsrMatrix, ys: np.ndarray,
                   l2: float) -> tuple[np.ndarray, float]:
    """(grad_w, grad_b) of ``logistic_loss_and_grad``, without its loss."""
    margin = ys * (x.matvec(w) + b)
    # 1 / (1 + e^m), stable for both signs of m
    e = np.exp(-np.abs(margin))
    neg_sigmoid = np.where(margin >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
    s = -ys * neg_sigmoid / x.n_rows
    return l2 * w + x.rmatvec(s), float(s.sum())


def logistic_loss_and_grad(w: np.ndarray, b: float, x: CsrMatrix,
                           ys: np.ndarray, l2: float,
                           ) -> tuple[float, np.ndarray, float]:
    """L2-regularized mean log loss with y in {-1, +1}."""
    grad_w, grad_b = _logistic_grad(w, b, x, ys, l2)
    margin = ys * (x.matvec(w) + b)
    # log(1 + e^-m), stable for both signs of m
    e = np.exp(-np.abs(margin))
    data_loss = float(np.sum(np.log1p(e) + np.maximum(0.0, -margin)))
    loss = data_loss / x.n_rows + 0.5 * l2 * float(w @ w)
    return loss, grad_w, grad_b


def linear_fit(x: CsrMatrix, labels: Sequence[int | Label],
               objective: str = "logistic", l2: float = 1e-4,
               lr: float = 1.0, epochs: int = 200, seed: int = 0) -> LinearModel:
    """Logistic: full-batch gradient descent.  Hinge: Pegasos SGD.

    Pegasos takes the step eta = 1/(l2*t) on row j of the ``svm`` stream's
    permutation of each epoch: w shrinks by the factor 1 - eta*l2, then,
    when the row's margin is below 1, w gains eta*y*x_j and the bias
    eta*y.  w is kept as ``scale * v``: the shrink multiplies ``scale``
    alone and the gain goes into v over the row's columns, so a step costs
    O(row length).  The loop runs on Python floats, with v a list and each
    row its own (columns, values) slices, since a row has ~10 entries and
    a numpy call costs more than its arithmetic does.

    The bias step is deliberately left unregularised and unscaled: on some
    corpora the fit still ends above the hinge objective at w = 0.  Its fix
    waits for a benchmark change, since the benchmark's SVM check expects
    that failure (ROADMAP.md, the SVM item).
    """
    if objective not in ("logistic", "hinge"):
        raise ValueError(f"unknown objective {objective!r}")
    if x.n_rows == 0:
        raise ValueError("no training documents")
    ys = np.where(np.asarray(labels, dtype=np.int64) == 1, 1.0, -1.0)
    b = 0.0
    if objective == "logistic":
        w = np.zeros(x.n_cols)
        for _ in range(epochs):
            grad_w, grad_b = _logistic_grad(w, b, x, ys, l2)
            w -= lr * grad_w
            b -= lr * grad_b
            if not np.all(np.isfinite(w)) or not math.isfinite(b):
                raise FloatingPointError("logistic regression diverged")
        return LinearModel(w=w, b=float(b))
    rng = stream(seed, "svm")
    lam = max(l2, 1e-12)
    indptr = x.indptr.tolist()
    indices = array("q", np.asarray(x.indices, dtype=np.int64).tobytes())
    data = array("d", np.asarray(x.data, dtype=np.float64).tobytes())
    rows = [(indices[lo:hi], data[lo:hi], y)
            for lo, hi, y in zip(indptr, indptr[1:], ys.tolist())]
    v = [0.0] * x.n_cols
    scale = 1.0
    t = 0
    for _ in range(epochs):
        for j in rng.permutation(x.n_rows).tolist():
            cols, vals, y = rows[j]
            t += 1
            eta = 1.0 / (lam * t)
            dot = 0.0
            for c, value in zip(cols, vals):
                dot += v[c] * value
            margin = y * (scale * dot + b)
            # at t = 1 the shrink factor is 0 (up to rounding) and w is
            # still all zeros: skip it rather than zero the scale
            if t > 1:
                scale *= 1.0 - eta * lam
            if margin < 1.0:
                gain = eta * y / scale
                for c, value in zip(cols, vals):
                    v[c] += gain * value
                b += eta * y
        if not np.all(np.isfinite(v)):
            raise FloatingPointError("SVM training diverged")
    return LinearModel(w=np.array(v) * scale, b=b)


# --- model comparison ---------------------------------------------------------

# the classical models run_comparison can include
MODELS = ("majority", "naive_bayes", "logistic_regression", "linear_svm")


@dataclass(frozen=True)
class ComparisonRow:
    model: str
    accuracy: float
    macro_f1: float


def majority_class(labels: Sequence[int | Label]) -> Label:
    counts = Counter(int(l) for l in labels)
    # ties to Negative
    return Label(max(sorted(counts), key=lambda k: counts[k]))


def compare_models(rows: Iterable[ComparisonRow]) -> str:
    """Aligned text table, 4-decimal metrics."""
    rows = list(rows)
    width = max([len("model")] + [len(r.model) for r in rows])
    lines = [f"{'model':<{width}}  accuracy  macro_f1"]
    for r in rows:
        lines.append(f"{r.model:<{width}}  {r.accuracy:8.4f}  {r.macro_f1:8.4f}")
    return "\n".join(lines)


def _row(name: str, preds: Sequence[int | Label],
         truth: Sequence[int | Label]) -> ComparisonRow:
    from .evaluation import report
    rep = report(list(preds), truth)  # confusion() tests `not preds`
    return ComparisonRow(model=name, accuracy=rep.accuracy, macro_f1=rep.macro_f1)


def run_comparison(train_docs: Sequence[Sequence[str]],
                   train_labels: Sequence[int | Label],
                   test_docs: Sequence[Sequence[str]],
                   test_labels: Sequence[int | Label],
                   vocab: Vocabulary, seed: int = 0,
                   include: Sequence[str] = MODELS,
                   ) -> list[ComparisonRow]:
    """Fit each classical model on identical features and score the test set."""
    unknown = sorted(set(include) - set(MODELS))
    if unknown:
        raise ValueError(f"unknown baseline models {unknown}; "
                         f"choose from {list(MODELS)}")
    rows = []
    if "majority" in include:
        major = majority_class(train_labels)
        rows.append(_row("majority", [major] * len(test_labels), test_labels))
    if set(include) - {"majority"}:
        train_counts = count_vector(train_docs, vocab)
        test_counts = count_vector(test_docs, vocab)
    if "naive_bayes" in include:
        model = nb_fit(train_counts, train_labels)
        rows.append(_row("naive_bayes", model.predict(test_counts), test_labels))
    if {"logistic_regression", "linear_svm"} & set(include):
        vectorizer = TfidfVectorizer.fit(train_counts)
        train_x = vectorizer.transform(train_counts)
        test_x = vectorizer.transform(test_counts)
        if "logistic_regression" in include:
            lr_model = linear_fit(train_x, train_labels, objective="logistic",
                                  l2=1e-4, lr=1.0, epochs=200, seed=seed)
            rows.append(_row("logistic_regression", lr_model.predict(test_x),
                             test_labels))
        if "linear_svm" in include:
            svm = linear_fit(train_x, train_labels, objective="hinge",
                             l2=1e-4, epochs=30, seed=seed)
            rows.append(_row("linear_svm", svm.predict(test_x), test_labels))
    return rows
