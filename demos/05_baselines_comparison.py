#!/usr/bin/env python3
"""Classical baselines next to the LSTM on one shared preprocessing path.

Multinomial Naive Bayes, logistic regression and a linear SVM all consume
the same vocabulary; the comparison table reports accuracy and macro-F1.
"""

import numpy as np

from sentimen import nn
from sentimen.baselines import (TfidfVectorizer, compare_models, count_vector,
                                nb_fit, run_comparison)
from sentimen.evaluation import report
from sentimen.train import EncodedDataset, TrainConfig, train
from sentimen.vocab import build_vocab, encode

pos_docs = [["bagus", "enak", "mantap"], ["enak", "sehat", "bagus"],
            ["mantap", "gizi", "bagus"], ["sehat", "enak", "mantap"]] * 5
neg_docs = [["buruk", "jelek", "gagal"], ["basi", "jelek", "buruk"],
            ["gagal", "buruk", "basi"], ["jelek", "gagal", "basi"]] * 5
docs = pos_docs + neg_docs
labels = [1] * len(pos_docs) + [0] * len(neg_docs)

vocab = build_vocab(docs)
print(f"vocabulary size (incl. PAD/OOV): {vocab.size}")

# TF-IDF features: tf * (ln((1+N)/(1+df)) + 1), rows L2-normalized; the
# corpus is one CSR matrix, a row per document
x = TfidfVectorizer.fit(docs, vocab).transform(docs)
print(f"tf-idf matrix: {x.n_rows} x {x.n_cols}, {len(x.data)} stored entries")
first = slice(x.indptr[0], x.indptr[1])
print("tf-idf of first doc:", dict(zip(x.indices[first].tolist(),
                                       np.round(x.data[first], 3).tolist())))

# Naive Bayes posteriors, one row per document
model = nb_fit(docs, labels, vocab)
posterior = np.exp(model.log_posteriors(count_vector([["bagus"], ["basi"]], vocab)))
for word, (neg, pos) in zip(("bagus", "basi"), posterior):
    print(f"NB posterior for ['{word}']: negative {neg:.3f}, positive {pos:.3f}")

# classical models on the shared features
rows = run_comparison(docs, labels, docs, labels, vocab, seed=0)

# the LSTM on the same documents
max_len = 3
indices, lengths = encode(docs, vocab, max_len)
ds = EncodedDataset(indices, lengths, np.array(labels))
cfg = nn.ModelConfig(vocab_size=vocab.size, embed_dim=16, hidden_dim=16,
                     max_len=max_len, fc_dropout=0.0)
params = nn.init_params(cfg, seed=0)
train(params, ds, None, TrainConfig(batch_size=8, learning_rate=0.02,
                                    epochs=40, seed=0))
preds = [int(p.label) for p in nn.predict_encoded(params, indices, lengths)]
lstm_rep = report(preds, labels)
from sentimen.baselines import ComparisonRow
rows.append(ComparisonRow("lstm", lstm_rep.accuracy, lstm_rep.macro_f1))

print()
print(compare_models(rows))
