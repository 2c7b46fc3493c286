#!/usr/bin/env python3
"""Corpus accounting, deterministic stratified splits, and integer encoding.

Reproduces the reference dataset shape: a 5,629 / 790 class split at
70/15/15 yields a ~963-sample test set with ~845/118 supports.
"""

from sentimen.ingest import (Dataset, Label, LabeledComment, SplitSpec,
                             class_distribution, stratified_split)
from sentimen.vocab import build_vocab, decode, encode, suggest_max_len

# synthetic corpus with the reference class counts
records = tuple(
    [LabeledComment(f"n{i}", "chan", "teks", Label.NEGATIVE)
     for i in range(5629)]
    + [LabeledComment(f"p{i}", "chan", "teks", Label.POSITIVE)
       for i in range(790)])
ds = Dataset(records)

dist = class_distribution(ds)
print(f"class distribution: negative {dist[Label.NEGATIVE]:.1%}, "
      f"positive {dist[Label.POSITIVE]:.1%}")

train, val, test = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15, seed=42))
for name, part in (("train", train), ("val", val), ("test", test)):
    c = part.counts
    print(f"{name:5s}: {len(part):5d} records "
          f"(neg {c[Label.NEGATIVE]}, pos {c[Label.POSITIVE]})")

# same spec, same membership: splits are fully deterministic
again = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15, seed=42))
assert [r.id for r in again[2].records] == [r.id for r in test.records]
print("re-split with the same seed: identical membership")

# integer encoding with reserved indices: PAD=0, OOV=1
corpus = [["makan", "gratis", "enak"], ["makan", "buruk"], ["gratis"]]
vocab = build_vocab(corpus, min_freq=1)
print("\nvocabulary (reserved indices 0=PAD, 1=OOV):")
for token, index in sorted(vocab.token_to_index.items(), key=lambda kv: kv[1]):
    print(f"  {index}: {token}")

max_len = suggest_max_len(corpus)
docs = [["makan", "lezat", "gratis"], ["gratis"]]
indices, lengths = encode(docs, vocab, max_len=5)
print(f"\nencode({docs}, max_len=5):")
print(f"  indices = {indices.tolist()}  ('lezat' is out-of-vocabulary)")
print(f"  lengths = {lengths.tolist()}")
print(f"  decoded = {[decode(row, vocab) for row in indices]}")
