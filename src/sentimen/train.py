"""Mini-batch training loop with per-epoch history and checkpointing.

Flat schedule: no early stopping, no learning-rate decay.  All randomness
(shuffling, dropout) derives from the config seed, so a rerun with the same
seed and data reproduces the history bit for bit.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from . import nn
from .seeds import stream


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 16
    learning_rate: float = 5e-4
    epochs: int = 20
    seed: int = 0
    class_weights: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.class_weights is not None and any(w <= 0 for w in self.class_weights):
            raise ValueError("class weights must be positive")


@dataclass(frozen=True)
class EpochStats:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float


@dataclass(frozen=True)
class EncodedDataset:
    """Column-wise view of an encoded corpus: (N, T) indices + lengths + labels."""
    indices: np.ndarray
    lengths: np.ndarray
    labels: np.ndarray

    def __len__(self) -> int:
        return self.indices.shape[0]


def batch_iter(ds: EncodedDataset, batch_size: int, seed: int,
               epoch_index: int) -> Iterator[EncodedDataset]:
    """Batches in a seeded shuffle of each epoch; the final short batch is
    kept."""
    n = len(ds)
    if n == 0:
        raise ValueError("empty dataset")
    order = stream(seed, "shuffle", epoch_index).permutation(n)
    for start in range(0, n, batch_size):
        sel = order[start:start + batch_size]
        yield EncodedDataset(ds.indices[sel], ds.lengths[sel], ds.labels[sel])


def evaluate_split(params: nn.ModelParams,
                   ds: EncodedDataset) -> tuple[float, float]:
    """(mean loss, accuracy) in inference mode, over length-sorted batches."""
    if len(ds) == 0:
        raise ValueError("empty dataset")
    total_loss = 0.0
    correct = 0
    for sel in nn.length_sorted_batches(ds.lengths):
        labels = ds.labels[sel]
        logits = nn.forward_logits(params, ds.indices[sel], ds.lengths[sel])
        losses = nn.row_cross_entropy(logits, labels)
        total_loss += float(losses.sum(dtype=np.float64))
        correct += int((logits.argmax(axis=1) == labels).sum())
    return total_loss / len(ds), correct / len(ds)


@dataclass
class TrainResult:
    history: list[EpochStats]
    best_epoch: int | None
    best_params: nn.ModelParams | None
    final_params: nn.ModelParams


def train(params: nn.ModelParams, train_set: EncodedDataset,
          val_set: EncodedDataset | None, cfg: TrainConfig,
          log=None) -> TrainResult:
    """Run the full schedule; returns history plus best/final parameters.

    Best = highest validation accuracy, ties to the earlier epoch.  With no
    validation set the training metrics stand in for the validation columns.
    Class weights that are not one per class raise ``ValueError`` first.
    """
    n_classes = params.b_out.shape[0]
    if cfg.class_weights is not None and len(cfg.class_weights) != n_classes:
        raise ValueError(f"{len(cfg.class_weights)} class weights for a model "
                         f"of {n_classes} classes")
    adam = nn.AdamState.for_params(params)
    drop_rng = stream(cfg.seed, "dropout")
    weights = (np.asarray(cfg.class_weights, dtype=np.float64)
               if cfg.class_weights is not None else None)

    history: list[EpochStats] = []
    best_epoch: int | None = None
    best_acc = -1.0
    best_params: nn.ModelParams | None = None

    for epoch in range(cfg.epochs):
        epoch_loss = 0.0
        correct = 0
        for batch_no, batch in enumerate(batch_iter(train_set, cfg.batch_size,
                                                    cfg.seed, epoch)):
            # the rows the batch reads, brought up to the current step
            nn.adam_catch_up(params, adam, np.unique(batch.indices))
            # train accuracy comes from the no-dropout logits of the
            # forward pass the loss is taken on, before the update
            logits = np.empty((len(batch), n_classes))
            grads, loss = nn.backward(params, batch.indices, batch.lengths,
                                      batch.labels, rng=drop_rng,
                                      class_weights=weights,
                                      logits_out=logits)
            if not np.isfinite(loss):
                raise FloatingPointError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}")
            nn.adam_step(params, grads, adam, cfg.learning_rate)
            epoch_loss += loss * len(batch)
            correct += int((logits.argmax(axis=1) == batch.labels).sum())
        train_loss = epoch_loss / len(train_set)
        train_acc = correct / len(train_set)
        # every row current for validation, best_params and final_params
        nn.adam_catch_up(params, adam)

        if val_set is not None and len(val_set):
            val_loss, val_acc = evaluate_split(params, val_set)
        else:
            val_loss, val_acc = train_loss, train_acc
        history.append(EpochStats(epoch, train_loss, train_acc,
                                  val_loss, val_acc))
        if log is not None:
            print(f"epoch {epoch:3d}  train_loss {train_loss:.4f}  "
                  f"train_acc {train_acc:.4f}  val_loss {val_loss:.4f}  "
                  f"val_acc {val_acc:.4f}", file=log)
        if val_acc > best_acc:
            best_acc = val_acc
            best_epoch = epoch
            best_params = nn.ModelParams(
                params.config, **{k: a.copy() for k, a in params.arrays().items()})

    return TrainResult(history=history, best_epoch=best_epoch,
                       best_params=best_params, final_params=params)


def save_history_csv(history: Sequence[EpochStats], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "train_acc",
                         "val_loss", "val_acc"])
        for s in history:
            writer.writerow([s.epoch, repr(s.train_loss), repr(s.train_accuracy),
                             repr(s.val_loss), repr(s.val_accuracy)])
