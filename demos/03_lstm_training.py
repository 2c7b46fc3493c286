#!/usr/bin/env python3
"""Train the LSTM classifier end to end on a small separable corpus.

Shows the architecture bookkeeping (the 2,228,738-parameter check for the
full-size configuration), the gradient machinery, and a training run that
memorizes the toy data.
"""

import numpy as np

from sentimen import nn
from sentimen.train import EncodedDataset, TrainConfig, evaluate_split, train

# the full-size architecture: vocab 16,378, embed 128, hidden 128, 2 classes
print("parameter count at full scale:",
      f"{nn.count_parameters(16378, 128, 128, 2):,}")

# toy corpus: token blocks [2, 20) mean negative, [20, 38) mean positive
rng = np.random.default_rng(0)
T = 6
idx = np.zeros((32, T), dtype=np.int64)
labels = (np.arange(32) % 2).astype(np.int64)
for b in range(32):
    lo, hi = (2, 20) if labels[b] == 0 else (20, 38)
    idx[b] = rng.integers(lo, hi, size=T)
ds = EncodedDataset(idx, np.full(32, T, dtype=np.int64), labels)

cfg = nn.ModelConfig(vocab_size=40, embed_dim=32, hidden_dim=32, max_len=T,
                     fc_dropout=0.5)
params = nn.init_params(cfg, seed=0)
toy_count = nn.count_parameters(cfg.vocab_size, cfg.embed_dim,
                                cfg.hidden_dim, cfg.num_classes)
print("toy model parameters:", f"{toy_count:,}")

# one gradient step by hand: backward + Adam
grads, loss = nn.backward(params, ds.indices[:16], ds.lengths[:16],
                          ds.labels[:16], rng=np.random.default_rng(1))
print(f"initial batch loss: {loss:.4f}  (chance level is ln 2 = 0.6931)")
adam = nn.AdamState.for_params(params)
nn.adam_step(params, grads, adam, lr=0.005)

# full training loop
params = nn.init_params(cfg, seed=0)
result = train(params, ds, None,
               TrainConfig(batch_size=16, learning_rate=0.005, epochs=80,
                           seed=0))
for stats in result.history[::20] + [result.history[-1]]:
    print(f"epoch {stats.epoch:3d}  loss {stats.train_loss:.4f}  "
          f"accuracy {stats.train_accuracy:.3f}")

loss, acc = evaluate_split(params, ds)
print(f"\nfinal train-set evaluation: loss {loss:.2e}, accuracy {acc:.0%}")

# checkpoint round trip
import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "model.bin"
    nn.save_checkpoint(path, params, adam)
    loaded, _ = nn.load_checkpoint(path)
    same = all(np.array_equal(a, b) for a, b in
               zip(params.arrays().values(), loaded.arrays().values()))
    print("checkpoint round trip bitwise identical:", same)
