"""Independent reference computations that the correctness checks compare
the program's outputs against.

Nothing here calls the program: the checkpoint is parsed from its byte
layout, the LSTM runs in float64 with its own gate arithmetic, steps 1-5 of
preprocessing are re-implemented from the documented rules and the bundled
dictionary files, and the baselines are refitted on CSR arrays with
``np.bincount``.
"""

from __future__ import annotations

import re
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# --- checkpoint ----------------------------------------------------------------

_ARRAY_ORDER = ("embedding", "w_ih", "w_hh", "b_ih", "b_hh", "w_out", "b_out")
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


@dataclass(frozen=True)
class Checkpoint:
    dims: dict[str, int]           # vocab_size, embed_dim, hidden_dim, ...
    arrays: dict[str, np.ndarray]  # stored dtype, in serialization order


def read_checkpoint(path: Path) -> Checkpoint:
    """Parse the v1 layout: magic, version, dtype code, five u64 dims, two
    f64 dropout rates, seven length-prefixed arrays, the Adam flag."""
    raw = Path(path).read_bytes()
    if raw[:8] != b"SENTCKPT":
        raise ValueError("bad checkpoint magic")
    version, code = struct.unpack_from("<IB", raw, 8)
    if version != 1 or code not in _DTYPES:
        raise ValueError(f"unexpected checkpoint version {version} / dtype {code}")
    names = ("vocab_size", "embed_dim", "hidden_dim", "num_classes", "max_len")
    dims = dict(zip(names, struct.unpack_from("<5Q", raw, 13)))
    v, e, h, c = (dims[k] for k in names[:4])
    shapes = {"embedding": (v, e), "w_ih": (4 * h, e), "w_hh": (4 * h, h),
              "b_ih": (4 * h,), "b_hh": (4 * h,), "w_out": (c, h), "b_out": (c,)}
    pos = 13 + 40 + 16
    dtype = _DTYPES[code]
    arrays = {}
    for name in _ARRAY_ORDER:
        (nbytes,) = struct.unpack_from("<Q", raw, pos)
        pos += 8
        if nbytes != int(np.prod(shapes[name])) * dtype.itemsize:
            raise ValueError(f"array {name}: {nbytes} bytes for shape {shapes[name]}")
        arrays[name] = np.frombuffer(raw, dtype, int(np.prod(shapes[name])),
                                     pos).reshape(shapes[name])
        pos += nbytes
    if raw[pos:pos + 1] != b"\x00" or pos + 1 != len(raw):
        raise ValueError("expected an Adam flag of 0 ending the file")
    return Checkpoint(dims, arrays)


def parameter_count(v: int, e: int, h: int, c: int) -> int:
    return v * e + 4 * (e * h + h * h + 2 * h) + h * c + c


# --- LSTM forward in float64 ------------------------------------------------------

def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def lstm_logits(ckpt: Checkpoint, ids: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """(N, C) logits for (N, T) index rows whose first ``lengths`` are real;
    the state is held at the last real step, so a length-0 row gives b_out."""
    w = {k: a.astype(np.float64) for k, a in ckpt.arrays.items()}
    h_dim = w["w_hh"].shape[1]
    n, seq_len = ids.shape
    pre = w["embedding"][ids] @ w["w_ih"].T + (w["b_ih"] + w["b_hh"])
    h = np.zeros((n, h_dim))
    c = np.zeros((n, h_dim))
    for t in range(seq_len):
        a = pre[:, t] + h @ w["w_hh"].T
        i, f, g, o = (a[:, k * h_dim:(k + 1) * h_dim] for k in range(4))
        c_next = _sigmoid(f) * c + _sigmoid(i) * np.tanh(g)
        h_next = _sigmoid(o) * np.tanh(c_next)
        live = (t < lengths)[:, None]
        c = np.where(live, c_next, c)
        h = np.where(live, h_next, h)
    return h @ w["w_out"].T + w["b_out"]


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=1, keepdims=True))


def encode_rows(docs: list[list[str]], index: dict[str, int],
                max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """PAD = 0, OOV = 1; first ``max_len`` tokens kept."""
    ids = np.zeros((len(docs), max_len), dtype=np.int64)
    lengths = np.zeros(len(docs), dtype=np.int64)
    for r, doc in enumerate(docs):
        kept = doc[:max_len]
        ids[r, :len(kept)] = [index.get(t, 1) for t in kept]
        lengths[r] = len(kept)
    return ids, lengths


def read_vocab(path: Path) -> tuple[list[str], int]:
    """Tokens in index order from 2 on, and max_len from the sidecar."""
    tokens = [t for t in Path(path).read_text("utf-8").split("\n") if t]
    meta = dict(line.split("=", 1) for line in
                Path(str(path) + ".meta").read_text("utf-8").split("\n") if "=" in line)
    return tokens, int(meta["max_len"])


# --- preprocessing steps 1-5 -------------------------------------------------------

# the URL, mention and hashtag patterns documented in preprocess.clean
_URL = re.compile(r"(?:\w+://|www\.)\S*")
_MENTION = re.compile(r"(?<!\S)@\S+")
_HASHTAG = re.compile(r"(?<!\S)#\S+")
_ASCII_LETTERS = frozenset("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ")


@dataclass(frozen=True)
class TextDictionaries:
    roots: frozenset[str]
    stopwords: frozenset[str]
    slang: dict[str, str]
    golden: dict[str, str]

    @classmethod
    def read(cls, data_dir: Path) -> "TextDictionaries":
        def rows(name):
            return [ln.split("\t") for ln in
                    (data_dir / name).read_text("utf-8").split("\n") if ln]
        return cls(roots=frozenset(r[0] for r in rows("root_words.txt")),
                   stopwords=frozenset(r[0] for r in rows("stopwords.txt")),
                   slang=dict((r[0], r[1]) for r in rows("slang.tsv")),
                   golden=dict((r[0], r[1]) for r in rows("stem_golden.tsv")))


def tokens_before_stemming(text: str, d: TextDictionaries) -> list[str]:
    """Case-fold, clean, slang, tokenize, stopwords: the documented steps."""
    text = text.lower()
    for pattern in (_URL, _MENTION, _HASHTAG):
        text = pattern.sub(" ", text)
    # digits and other non-letters are deleted in place, whitespace kept
    text = "".join(ch for ch in text if ch in _ASCII_LETTERS or ch.isspace())
    words = [d.slang.get(w, w) for w in text.split()]
    return [t for w in words for t in w.split() if t not in d.stopwords]


# --- sparse features and baselines ---------------------------------------------------

@dataclass(frozen=True)
class Csr:
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    n_cols: int

    @property
    def n_rows(self) -> int:
        return len(self.indptr) - 1

    @property
    def rows(self) -> np.ndarray:
        return np.repeat(np.arange(self.n_rows), np.diff(self.indptr))

    def matvec(self, w: np.ndarray) -> np.ndarray:
        return np.bincount(self.rows, self.data * w[self.indices],
                           minlength=self.n_rows)

    def rmatvec(self, r: np.ndarray) -> np.ndarray:
        return np.bincount(self.indices, self.data * r[self.rows],
                           minlength=self.n_cols)


def count_matrix(docs: list[list[str]], columns: dict[str, int]) -> Csr:
    indptr, indices, data = [0], [], []
    for doc in docs:
        cols = np.array([columns[t] for t in doc if t in columns], dtype=np.int64)
        uniq, counts = np.unique(cols, return_counts=True)
        indices.append(uniq)
        data.append(counts.astype(np.float64))
        indptr.append(indptr[-1] + len(uniq))
    cat = lambda parts, dt: np.concatenate(parts) if parts else np.empty(0, dt)
    return Csr(np.array(indptr), cat(indices, np.int64), cat(data, np.float64),
               len(columns))


def tfidf(train: Csr, other: Csr) -> tuple[Csr, Csr]:
    """idf = ln((1+N)/(1+df)) + 1 from ``train``; rows L2-normalised."""
    df = np.bincount(train.indices, minlength=train.n_cols)
    idf = np.log((1.0 + train.n_rows) / (1.0 + df)) + 1.0

    def weigh(m: Csr) -> Csr:
        vals = m.data * idf[m.indices]
        norms = np.sqrt(np.bincount(m.rows, vals * vals, minlength=m.n_rows))
        safe = np.where(norms > 0, norms, 1.0)
        return Csr(m.indptr, m.indices, vals / safe[m.rows], m.n_cols)

    return weigh(train), weigh(other)


def naive_bayes_margin(train: Csr, labels: np.ndarray, test: Csr,
                       alpha: float = 1.0) -> np.ndarray:
    """score(positive) - score(negative) of multinomial NB on dense counts."""
    counts = np.zeros((2, train.n_cols))
    for k in (0, 1):
        sel = labels[train.rows] == k
        counts[k] = np.bincount(train.indices[sel], train.data[sel],
                                minlength=train.n_cols)
    prior = np.bincount(labels, minlength=2) / len(labels)
    smoothed = counts + alpha
    loglik = np.log(smoothed / smoothed.sum(axis=1, keepdims=True))
    with np.errstate(divide="ignore"):
        log_prior = np.log(prior)
    return (log_prior[1] - log_prior[0]) + test.matvec(loglik[1] - loglik[0])


def logistic_fit(x: Csr, labels: np.ndarray, l2: float, lr: float,
                 epochs: int) -> tuple[np.ndarray, float]:
    """Full-batch gradient descent on the L2-regularised mean log loss."""
    y = np.where(labels == 1, 1.0, -1.0)
    w = np.zeros(x.n_cols)
    b = 0.0
    n = x.n_rows
    for _ in range(epochs):
        margin = y * (x.matvec(w) + b)
        s = -y * 0.5 * (1.0 - np.tanh(0.5 * margin))  # -y / (1 + e^margin)
        grad_w = l2 * w + x.rmatvec(s) / n
        grad_b = s.sum() / n
        w = w - lr * grad_w
        b = b - lr * grad_b
    return w, b


def hinge_objective(x: Csr, labels: np.ndarray, w: np.ndarray, b: float,
                    lam: float) -> float:
    y = np.where(labels == 1, 1.0, -1.0)
    loss = np.maximum(0.0, 1.0 - y * (x.matvec(w) + b)).mean()
    return float(0.5 * lam * (w @ w) + loss)
