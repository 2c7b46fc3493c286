"""Reference copies of the text-path loops, as they were before the loops
were made cheaper.

``load_csv`` (read through ``csv.DictReader``), ``save_csv`` (written
through ``csv.writer``), ``build_vocab`` (sorted by a ``(-frequency, token)``
key function), ``logistic_loss_and_grad`` and ``linear_fit`` (Pegasos
indexing flat ``array`` buffers by position) are verbatim copies, except
that ``load_csv`` decodes ``utf-8-sig``, as the program does since a
leading byte-order mark stopped being read as part of the first column
name.  The rewritten functions do the same floating-point operations in
the same order, and write the same bytes, so ``tests/test_text_oracle.py``
requires their results to be equal to these, not close.  The helpers,
record types and error types they use are imported from the package.
"""

from __future__ import annotations

import csv
import io
import math
from array import array
from collections import Counter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from sentimen.baselines import CsrMatrix, LinearModel
from sentimen.ingest import (COLUMNS, LABEL_NAMES, CorpusError, Dataset,
                             Label, LabeledComment, _parse_label)
from sentimen.vocab import Vocabulary


def load_csv(path: str | Path, strict: bool = True) -> Dataset:
    """Load a corpus CSV.

    In strict mode any bad row aborts with its row number; in lenient mode
    bad rows are skipped and tallied on ``Dataset.skipped``.  A row the csv
    module cannot read, such as one with a field over its size limit, or
    one that is not UTF-8 aborts in either mode.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")

    records: list[LabeledComment] = []
    skipped: list[tuple[int, str]] = []
    row_no = 1  # the row being read; 1 is the header
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.DictReader(fh)
        try:
            if reader.fieldnames is None:
                raise CorpusError(f"{path}: empty file, expected a header row")
            for col in COLUMNS:
                if col not in reader.fieldnames:
                    raise CorpusError(f"{path}: missing column {col!r} "
                                      f"(header has {reader.fieldnames})")
            has_tokens = "tokens" in reader.fieldnames
            row_no = 2
            for row in reader:
                try:
                    label = _parse_label(row["label"] or "")
                    text = row["text"] or ""
                    if label is not None and not text.strip():
                        raise CorpusError("empty text on a labeled row")
                    records.append(LabeledComment(
                        id=(row["id"] or "").strip(),
                        source=(row["source"] or "").strip(),
                        text=text,
                        label=label,
                        tokens=tuple((row["tokens"] or "").split())
                        if has_tokens else None,
                    ))
                except CorpusError as exc:
                    if strict:
                        raise CorpusError(
                            f"{path}: row {row_no}: {exc}") from None
                    skipped.append((row_no, str(exc)))
                row_no += 1
        except csv.Error as exc:
            raise CorpusError(f"{path}: row {row_no}: {exc}") from None
        except UnicodeDecodeError:
            # the reader decodes ahead of the csv module: count rows anew
            try:
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:  # "x": the bad byte's row
                head = exc.object[:exc.start].decode("utf-8") + "x"
            row = sum(1 for r in csv.reader(io.StringIO(head, newline="")) if r)
            raise CorpusError(f"{path}: row {row}: not UTF-8 text") from None
    return Dataset(tuple(records), tuple(skipped))


def save_csv(ds: Dataset | Iterable[LabeledComment], path: str | Path,
             extra_columns: dict[str, list[str]] | None = None) -> None:
    """Write records in the canonical CSV format.

    ``extra_columns`` maps column name -> per-record values (e.g. the
    ``tokens`` column emitted by the preprocess command).
    """
    records = list(ds)
    extra = extra_columns or {}
    for name, values in extra.items():
        if len(values) != len(records):
            raise ValueError(f"extra column {name!r} has {len(values)} values "
                             f"for {len(records)} records")
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*COLUMNS, *extra.keys()])
        for i, r in enumerate(records):
            name = "" if r.label is None else LABEL_NAMES[r.label]
            writer.writerow([r.id, r.source, r.text, name,
                             *(extra[c][i] for c in extra)])


def build_vocab(corpus: Iterable[Sequence[str]], min_freq: int = 1) -> Vocabulary:
    """Index tokens of frequency >= min_freq by (-frequency, token)."""
    if min_freq < 1:
        raise ValueError("min_freq must be >= 1")
    freq = Counter()
    n_docs = 0
    for tokens in corpus:
        n_docs += 1
        freq.update(tokens)
    if n_docs == 0:
        raise ValueError("empty corpus")
    kept = sorted((t for t, n in freq.items() if n >= min_freq),
                  key=lambda t: (-freq[t], t))
    token_to_index = {t: i + 2 for i, t in enumerate(kept)}
    index_to_token = {i: t for t, i in token_to_index.items()}
    return Vocabulary(token_to_index, index_to_token)


def logistic_loss_and_grad(w: np.ndarray, b: float, x: CsrMatrix,
                           ys: np.ndarray, l2: float,
                           ) -> tuple[float, np.ndarray, float]:
    """L2-regularized mean log loss with y in {-1, +1}."""
    n = x.n_rows
    margin = ys * (x.matvec(w) + b)
    # log(1 + e^-m) and 1 / (1 + e^m), stable for both signs of m
    e = np.exp(-np.abs(margin))
    data_loss = float(np.sum(np.log1p(e) + np.maximum(0.0, -margin)))
    neg_sigmoid = np.where(margin >= 0, e / (1.0 + e), 1.0 / (1.0 + e))
    s = -ys * neg_sigmoid / n
    grad_w = l2 * w + x.rmatvec(s)
    loss = data_loss / n + 0.5 * l2 * float(w @ w)
    return loss, grad_w, float(s.sum())


def linear_fit(x: CsrMatrix, labels: Sequence[int | Label],
               objective: str = "logistic", l2: float = 1e-4,
               lr: float = 1.0, epochs: int = 200, seed: int = 0) -> LinearModel:
    """Logistic: full-batch gradient descent.  Hinge: Pegasos SGD.

    Pegasos takes the step eta = 1/(l2*t) on row j of the ``(seed, 3)``
    permutation of each epoch: w shrinks by the factor 1 - eta*l2, then,
    when the row's margin is below 1, w gains eta*y*x_j and the bias
    eta*y.  w is kept as ``scale * v``: the shrink multiplies ``scale``
    alone and the gain goes into v over the row's columns, so a step costs
    O(row length).  The loop runs on Python floats, since a row has ~10
    entries and a numpy call costs more than its arithmetic does.

    The bias step is deliberately left unregularised and unscaled: on some
    corpora the fit still ends above the hinge objective at w = 0.  Its fix
    waits for a benchmark change, since the benchmark's SVM check expects
    that failure (ROADMAP.md, the SVM item).
    """
    if objective not in ("logistic", "hinge"):
        raise ValueError(f"unknown objective {objective!r}")
    ys = np.where(np.asarray(labels, dtype=np.int64) == 1, 1.0, -1.0)
    b = 0.0
    if objective == "logistic":
        w = np.zeros(x.n_cols)
        for _ in range(epochs):
            _, grad_w, grad_b = logistic_loss_and_grad(w, b, x, ys, l2)
            w -= lr * grad_w
            b -= lr * grad_b
            if not np.all(np.isfinite(w)) or not math.isfinite(b):
                raise FloatingPointError("logistic regression diverged")
        return LinearModel(w=w, b=float(b))
    rng = np.random.default_rng((seed, 3))
    lam = max(l2, 1e-12)
    indptr = x.indptr.tolist()
    indices = array("q", np.asarray(x.indices, dtype=np.int64).tobytes())
    data = array("d", np.asarray(x.data, dtype=np.float64).tobytes())
    y_of = ys.tolist()
    v = array("d", bytes(8 * x.n_cols))
    scale = 1.0
    t = 0
    for _ in range(epochs):
        for j in rng.permutation(x.n_rows).tolist():
            t += 1
            eta = 1.0 / (lam * t)
            lo, hi = indptr[j], indptr[j + 1]
            y = y_of[j]
            dot = 0.0
            for k in range(lo, hi):
                dot += v[indices[k]] * data[k]
            margin = y * (scale * dot + b)
            # at t = 1 the shrink factor is 0 (up to rounding) and w is
            # still all zeros: skip it rather than zero the scale
            if t > 1:
                scale *= 1.0 - eta * lam
            if margin < 1.0:
                gain = eta * y / scale
                for k in range(lo, hi):
                    v[indices[k]] += gain * data[k]
                b += eta * y
        if not np.all(np.isfinite(np.frombuffer(v))):
            raise FloatingPointError("SVM training diverged")
    return LinearModel(w=np.frombuffer(v) * scale, b=b)
