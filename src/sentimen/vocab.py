"""Token <-> integer index mapping with reserved PAD (0) and OOV (1) indices.

Real tokens occupy indices 2..size-1, assigned by descending training-corpus
frequency with lexicographic tie-breaks, so building is deterministic.
A corpus encodes to one (N, max_len) index array, each row the first
``max_len`` tokens of a document post-padded with zeros, and an (N,) array
of how many positions of each row are real.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .preprocess import _file_text

PAD_INDEX = 0
OOV_INDEX = 1
OOV_TOKEN = "⟨unk⟩"  # decode-side sentinel only, never a real token
# suggest_max_len: this percentile of the token counts, at most MAX_LEN_CAP
MAX_LEN_PERCENTILE = 95.0
MAX_LEN_CAP = 100


@dataclass(frozen=True)
class Vocabulary:
    token_to_index: dict[str, int]
    index_to_token: dict[int, str]

    @property
    def size(self) -> int:
        """Number of indices including the two reserved ones."""
        return len(self.token_to_index) + 2

    def index(self, token: str) -> int:
        return self.token_to_index.get(token, OOV_INDEX)


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
    # by token, then (stable) by descending frequency: (-frequency, token)
    kept = sorted(t for t, n in freq.items() if n >= min_freq)
    kept.sort(key=freq.__getitem__, reverse=True)
    token_to_index = {t: i + 2 for i, t in enumerate(kept)}
    index_to_token = {i: t for t, i in token_to_index.items()}
    return Vocabulary(token_to_index, index_to_token)


def encode(docs: Sequence[Sequence[str]], vocab: Vocabulary,
           max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """(indices, lengths): the (N, max_len) int64 indices of each doc's first
    ``max_len`` tokens, post-padded with PAD, and the (N,) int64 count of
    real positions in each row."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    indices = np.zeros((len(docs), max_len), dtype=np.int64)
    lengths = np.zeros(len(docs), dtype=np.int64)
    index = vocab.token_to_index.get  # Vocabulary.index, without its call
    for row, tokens in enumerate(docs):
        kept = tokens[:max_len]
        indices[row, :len(kept)] = [index(tok, OOV_INDEX) for tok in kept]
        lengths[row] = len(kept)
    return indices, lengths


def decode(row: np.ndarray, vocab: Vocabulary) -> list[str]:
    """Tokens of one index row of ``encode``; PAD dropped, OOV -> sentinel."""
    out = []
    for idx in row:
        idx = int(idx)
        if idx == PAD_INDEX:
            continue
        if idx == OOV_INDEX:
            out.append(OOV_TOKEN)
            continue
        if not 0 <= idx < vocab.size:
            raise IndexError(f"index {idx} out of range for vocabulary "
                             f"of size {vocab.size}")
        out.append(vocab.index_to_token[idx])
    return out


def suggest_max_len(corpus: Iterable[Sequence[str]]) -> int:
    """95th percentile of token counts, capped at 100; sequence length default."""
    lengths = [len(t) for t in corpus]
    if not lengths:
        raise ValueError("empty corpus")
    return max(1, min(MAX_LEN_CAP,
                      int(np.ceil(np.percentile(lengths, MAX_LEN_PERCENTILE)))))


def save_vocab(vocab: Vocabulary, path: str | Path, max_len: int,
               min_freq: int = 1) -> None:
    """Line k holds the token for index k+1 (reserved indices implicit);
    a ``<path>.meta`` sidecar records max_len and min_freq."""
    path = Path(path)
    tokens = [vocab.index_to_token[i] for i in range(2, vocab.size)]
    path.write_text("\n".join(tokens) + ("\n" if tokens else ""), "utf-8")
    Path(str(path) + ".meta").write_text(
        f"max_len={max_len}\nmin_freq={min_freq}\n", "utf-8")


def load_vocab(path: str | Path) -> tuple[Vocabulary, int, int]:
    """(vocabulary, max_len, min_freq); ValueError, naming the ``.meta``
    sidecar, when it is missing, records no max_len, or records a max_len
    or min_freq that is not an integer >= 1."""
    path = Path(path)
    tokens = [t for t in _file_text(path).split("\n") if t]
    token_to_index = dict(zip(tokens, range(2, len(tokens) + 2)))
    meta_path = Path(str(path) + ".meta")
    if not meta_path.exists():
        raise ValueError(f"vocabulary sidecar not found: {meta_path}")
    meta: dict[str, str] = {}
    for line in _file_text(meta_path).splitlines():
        if "=" in line:
            key, value = line.split("=", 1)
            meta[key.strip()] = value.strip()
    if "max_len" not in meta:
        raise ValueError(f"{meta_path}: no max_len")
    meta.setdefault("min_freq", "1")
    for key in ("max_len", "min_freq"):
        if not (meta[key].isdecimal() and int(meta[key]) >= 1):
            raise ValueError(f"{meta_path}: {key} = '{meta[key]}': "
                             "expected an integer >= 1")
    vocab = Vocabulary(token_to_index, {i: t for t, i in token_to_index.items()})
    return vocab, int(meta["max_len"]), int(meta["min_freq"])
