"""Numeric core: embedding + single-layer LSTM + dense softmax classifier.

Everything is plain numpy with hand-derived reverse-mode gradients; gate
blocks along the 4H axis are ordered [input i, forget f, candidate g,
output o].  Two separate bias vectors (b_ih and b_hh) are kept so the
parameter count matches the double-bias convention:

    V*E + 4*(E*H + H*H + 2H) + (H*C + C)

There is one LSTM implementation, over (B, T) batches; a single sequence
is a batch of one.  It runs on the packed form of the batch, as
``pack_padded_sequence`` lays it out: the rows go longest first, and step
t runs over the prefix of rows still inside their sequence.  Only the P
real positions are gathered, projected, stepped and differentiated, so a
padded row does the same arithmetic as its unpadded self, and the pad
embedding row stays frozen at zero.  Final states, logits and gradients
come back in the caller's row order.

A batch's P real positions touch at most P of the embedding table's V
rows, so ``backward`` returns the embedding gradient as a ``RowGrad``: the
sorted, unique touched rows and their summed gradients, with no dense
(V, E) array built or scanned.  ``adam_step`` takes a ``RowGrad`` for any
array and applies dense Adam to it exactly: every row's moments decay and
every row steps, and only the touched rows add their gradient terms.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Iterator

import numpy as np

from .ingest import Label
from .seeds import stream
from .vocab import Vocabulary, encode

class CheckpointError(Exception):
    pass


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; safe for huge logits."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def row_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row -log softmax(logits)[label] of (B, C) logits, in their dtype."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return lse - shifted[np.arange(len(labels)), labels]


def count_parameters(vocab_size: int, embed_dim: int, hidden_dim: int,
                     num_classes: int) -> int:
    cfg = ModelConfig(vocab_size, embed_dim, hidden_dim, num_classes)
    return sum(math.prod(shape) for shape in _expected_shapes(cfg).values())


# --- parameters --------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 128
    hidden_dim: int = 128
    num_classes: int = 2
    max_len: int = 100
    fc_dropout: float = 0.5

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "hidden_dim", "num_classes",
                     "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} {getattr(self, name)}, "
                                 f"expected >= 1")


def _expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Each parameter array's shape, in the fixed serialization order."""
    v, e = cfg.vocab_size, cfg.embed_dim
    h, c = cfg.hidden_dim, cfg.num_classes
    return {"embedding": (v, e), "w_ih": (4 * h, e), "w_hh": (4 * h, h),
            "b_ih": (4 * h,), "b_hh": (4 * h,), "w_out": (c, h), "b_out": (c,)}


@dataclass
class ModelParams:
    config: ModelConfig
    embedding: np.ndarray  # (V, E); row 0 is PAD and stays zero
    w_ih: np.ndarray       # (4H, E)
    w_hh: np.ndarray       # (4H, H)
    b_ih: np.ndarray       # (4H,)
    b_hh: np.ndarray       # (4H,)
    w_out: np.ndarray      # (C, H)
    b_out: np.ndarray      # (C,)

    def arrays(self) -> dict[str, np.ndarray]:
        """Parameter arrays in the fixed serialization order."""
        return {"embedding": self.embedding, "w_ih": self.w_ih,
                "w_hh": self.w_hh, "b_ih": self.b_ih, "b_hh": self.b_hh,
                "w_out": self.w_out, "b_out": self.b_out}

    def n_parameters(self) -> int:
        return sum(a.size for a in self.arrays().values())


def init_params(config: ModelConfig, seed: int = 0,
                dtype=np.float64) -> ModelParams:
    """Uniform +-1/sqrt(H) weights (+-1/sqrt(E) embedding), zero biases,
    pad embedding row zeroed."""
    rng = stream(seed, "init")

    def draw(name: str, shape: tuple[int, ...]) -> np.ndarray:
        if name.startswith("b_"):
            return np.zeros(shape, dtype=dtype)
        fan = config.embed_dim if name == "embedding" else config.hidden_dim
        lim = 1.0 / np.sqrt(fan)
        return rng.uniform(-lim, lim, size=shape).astype(dtype)

    # in the table's order, so the draws stay emb, w_ih, w_hh, w_out
    arrays = {name: draw(name, shape)
              for name, shape in _expected_shapes(config).items()}
    arrays["embedding"][0] = 0.0
    return ModelParams(config, **arrays)


# --- batched forward/backward ----------------------------------------------

@dataclass(frozen=True)
class RowGrad:
    """The gradient of an array that is zero outside ``rows``.

    ``rows`` holds sorted, unique row indices and ``values[k]`` the
    gradient of row ``rows[k]``.  A dense gradient is the case where every
    row is listed.
    """
    rows: np.ndarray    # (K,) integer
    values: np.ndarray  # (K,) + the array's shape[1:]

    def check(self, shape: tuple[int, ...], name: str) -> None:
        """Raise ``ValueError`` unless this is a gradient of a ``shape`` array."""
        rows = self.rows
        want = (len(rows),) + tuple(shape[1:])
        if self.values.shape != want:
            raise ValueError(f"gradient shape {self.values.shape} != "
                             f"{want} for {name}")
        if rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise ValueError(f"row gradient rows of {name} are not a 1-D "
                             f"integer array")
        if len(rows) and (rows[0] < 0 or rows[-1] >= shape[0]
                          or np.any(rows[1:] <= rows[:-1])):
            raise ValueError(f"row gradient rows of {name} are not sorted, "
                             f"unique and in [0, {shape[0]})")


def dropout_mask(shape, rate: float, rng: np.random.Generator,
                 dtype=np.float64) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability rate, else 1/(1-rate)."""
    if not 0 <= rate < 1:
        raise ValueError("dropout rate must be in [0, 1)")
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / (1.0 - rate)


@lru_cache(maxsize=8)
def _gate_affine(h_dim: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) over the 4H gate axis: ``scale*tanh(scale*a) + shift``
    is the sigmoid on the i, f, o blocks and tanh on the g block.  Cached
    per (h_dim, dtype), so both arrays are read-only."""
    scale = np.full((4, h_dim), 0.5, dtype=dtype)
    shift = np.full((4, h_dim), 0.5, dtype=dtype)
    scale[2] = 1.0
    shift[2] = 0.0
    scale, shift = scale.reshape(-1), shift.reshape(-1)
    scale.flags.writeable = shift.flags.writeable = False
    return scale, shift


def _packing(lengths: np.ndarray) -> tuple[np.ndarray, list, list]:
    """The packed layout of a batch of (clamped) lengths.

    ``order`` lists the rows longest first, ties in the caller's order;
    step t runs over the first ``sizes[t]`` of them, the rows still inside
    their sequence, and its positions start at ``offsets[t]``.  ``offsets``
    ends with P, the number of real positions.  Plain Python, with no numpy
    call per step.
    """
    lens = lengths.tolist()
    order = sorted(range(len(lens)), key=lens.__getitem__, reverse=True)
    sizes = []
    live = len(order)
    for t in range(lens[order[0]] if order else 0):
        while lens[order[live - 1]] <= t:
            live -= 1
        sizes.append(live)
    offsets = [0, *accumulate(sizes)]
    return np.array(order, dtype=np.intp), sizes, offsets


def _lstm_forward_batch(params: ModelParams, indices: np.ndarray,
                        lengths: np.ndarray, for_backward: bool = True) -> dict:
    """Forward over the packed form of a (B, T) batch; caches what the
    backward pass reuses.

    The rows run longest first, and step t runs over the first
    ``sizes[t]`` of them: the rows still inside their sequence.  The P real
    positions are stored time-major, step after step, so no pad position is
    gathered, multiplied or stored.  ``h_final`` and ``c_final`` are each
    row's state after its last real token (zero for an empty row), in the
    caller's row order.

    With ``for_backward`` every position's h, c and tanh(c) is kept;
    without it each is one (B, H) buffer, the current step only, whose
    prefix of live rows each step updates in place.  The recurrent product
    reads ``w_hh`` transposed; a batch of more than two rows copies that
    transpose to contiguous memory once, which more than pays for itself
    over the steps, while one or two rows run the view as a GEMV.
    """
    h_dim = params.w_hh.shape[1]
    dtype = params.w_ih.dtype
    batch = indices.shape[0]
    lengths = np.minimum(np.maximum(lengths, 0), indices.shape[1])
    order, sizes, offsets = _packing(lengths)
    steps, n_pos = len(sizes), offsets[-1]
    sorted_lengths = lengths[order]
    ids = indices[order, :steps].T[np.arange(steps)[:, None] < sorted_lengths]
    x = params.embedding[ids]                # (P, E)

    # input projection and bias of every real position in one GEMM
    gates = x @ params.w_ih.T                # (P, 4H)
    gates += params.b_ih + params.b_hh
    gate4 = gates.reshape(n_pos, 4, h_dim)
    scale, shift = _gate_affine(h_dim, dtype)
    w_hh_t = params.w_hh.T
    if batch > 2:
        w_hh_t = np.ascontiguousarray(w_hh_t)

    # state rows: position p when kept for backward, else the live prefix
    # of one (B, H) buffer
    slots = n_pos if for_backward else batch
    h_buf = np.zeros((slots, h_dim), dtype=dtype)
    c_buf = np.zeros((slots, h_dim), dtype=dtype)
    tanh_c = np.empty((slots, h_dim), dtype=dtype)
    cur = prev = 0
    for t, (n, off) in enumerate(zip(sizes, offsets)):
        a = gates[off:off + n]
        if t:
            a += h_buf[prev:prev + n] @ w_hh_t
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        i, f, g, o = gate4[off:off + n].swapaxes(0, 1)  # (n, H) views
        if for_backward:
            cur = off
        c = c_buf[cur:cur + n]
        if t:
            np.multiply(f, c_buf[prev:prev + n], out=c)
            c += i * g
        else:
            np.multiply(i, g, out=c)
        tc = tanh_c[cur:cur + n]
        np.tanh(c, out=tc)
        np.multiply(o, tc, out=h_buf[cur:cur + n])
        prev = cur

    if for_backward:
        # row r of the sorted batch ends at position offsets[len - 1] + r
        live = sizes[0] if steps else 0
        last = [offsets[n - 1] + r
                for r, n in enumerate(sorted_lengths[:live].tolist())]
        h_end = np.zeros((batch, h_dim), dtype=dtype)
        c_end = np.zeros((batch, h_dim), dtype=dtype)
        h_end[:live] = h_buf[last]
        c_end[:live] = c_buf[last]
    else:
        h_end, c_end = h_buf, c_buf
    h_final, c_final = np.empty_like(h_end), np.empty_like(c_end)
    h_final[order] = h_end
    c_final[order] = c_end
    return {"x": x, "ids": ids, "lengths": lengths, "order": order,
            "sizes": sizes, "offsets": offsets, "gates": gates,
            "h": h_buf, "c": c_buf, "tanh_c": tanh_c,
            "h_final": h_final, "c_final": c_final}


def _lstm_backward_batch(params: ModelParams, cache: dict,
                         d_h_final: np.ndarray,
                         ) -> dict[str, np.ndarray | RowGrad]:
    """Gradients of the forward pass in ``cache``, given dL/d h_final in
    the caller's row order.

    Runs backward over the same packed layout: a row's output gradient
    enters at its last real step, the recurrent gradient of step t + 1
    flows into the first ``sizes[t + 1]`` rows of step t, and ``w_ih``,
    ``w_hh`` and the biases reduce over the P real positions.  The
    embedding gradient is a ``RowGrad`` summed in time-major, caller-row
    order.
    """
    h_dim = params.w_hh.shape[1]
    x, ids, lengths = cache["x"], cache["ids"], cache["lengths"]
    order, sizes, offsets = cache["order"], cache["sizes"], cache["offsets"]
    h_buf, c_buf, tanh_c = cache["h"], cache["c"], cache["tanh_c"]
    steps, n_pos = len(sizes), len(x)
    batch = len(lengths)
    first = sizes[0] if steps else 0
    gate4 = cache["gates"].reshape(n_pos, 4, h_dim)
    i, f, g, o = gate4.transpose(1, 0, 2)  # (P, H) views
    # position p of step t >= 1 follows position p - sizes[t - 1]
    prev = np.arange(first, n_pos) - np.repeat(
        np.array(sizes[:-1], dtype=np.intp), sizes[1:])
    h_prev, c_prev = h_buf[prev], c_buf[prev]

    # Gate gradients, shaped (P, 4H).  The factors that do not depend on
    # the recurrence go in first: d a_{i,f,g} / d c and d a_o / d h.  The
    # loop then multiplies in each step's dc (i, f, g) and dh (o).
    d_gates = np.empty_like(cache["gates"])
    d4 = d_gates.reshape(n_pos, 4, h_dim)
    np.multiply(g, i * (1.0 - i), out=d4[:, 0])
    d4[:first, 1] = 0.0
    np.multiply(c_prev, f[first:] * (1.0 - f[first:]), out=d4[first:, 1])
    np.multiply(i, 1.0 - g * g, out=d4[:, 2])
    np.multiply(tanh_c, o * (1.0 - o), out=d4[:, 3])
    dc_dh = o * (1.0 - tanh_c * tanh_c)

    # over the sorted rows: a row's dh holds its output gradient at its
    # last step, and step t writes the recurrent gradient of step t - 1
    # over the first sizes[t] rows; a row's dc is zero at its last step
    dh = d_h_final[order].astype(x.dtype)
    dc = np.zeros((first, h_dim), dtype=x.dtype)
    for t in range(steps - 1, -1, -1):
        n, off = sizes[t], offsets[t]
        dc_total = dh[:n] * dc_dh[off:off + n]
        dc_total += dc[:n]
        d4[off:off + n, :3] *= dc_total[:, None, :]
        d4[off:off + n, 3] *= dh[:n]
        if t:
            np.matmul(d_gates[off:off + n], params.w_hh, out=dh[:n])
            np.multiply(dc_total, f[off:off + n], out=dc[:n])

    d_w_ih = d_gates.T @ x
    d_w_hh = d_gates[first:].T @ h_prev
    d_b = d_gates.sum(axis=0)
    # each touched row sums its positions in time-major, caller-row order,
    # as a scatter into the dense table would; the pad row, when the batch
    # has a pad position, is listed first with a zero (frozen) gradient.
    # pos lists the packed positions in that order: step t of caller row b
    # is at offsets[t] + (b's place in the sorted order).
    rank = np.empty(batch, dtype=np.intp)
    rank[order] = np.arange(batch)
    pos = np.array(offsets[:steps], dtype=np.intp)[:, None] + rank
    pos = pos[np.arange(steps)[:, None] < lengths]
    ids = ids[pos]
    real = np.flatnonzero(ids)
    touched, slot = np.unique(ids[real], return_inverse=True)
    pad = int(len(real) < batch * steps)
    rows = np.concatenate((np.zeros(pad, dtype=touched.dtype), touched))
    d_rows = np.zeros((len(rows), x.shape[-1]), dtype=x.dtype)
    np.add.at(d_rows[pad:], slot, d_gates[pos[real]] @ params.w_ih)
    return {"embedding": RowGrad(rows, d_rows), "w_ih": d_w_ih, "w_hh": d_w_hh,
            "b_ih": d_b, "b_hh": d_b.copy()}


def forward_logits(params: ModelParams, indices: np.ndarray,
                   lengths: np.ndarray) -> np.ndarray:
    """Inference-mode logits for a (B, T) batch; dropout off."""
    h_final = _lstm_forward_batch(params, indices, lengths,
                                  for_backward=False)["h_final"]
    return h_final @ params.w_out.T + params.b_out


def backward(params: ModelParams, indices: np.ndarray, lengths: np.ndarray,
             labels: np.ndarray, rng: np.random.Generator | None = None,
             class_weights: np.ndarray | None = None,
             logits_out: np.ndarray | None = None,
             ) -> tuple[dict[str, np.ndarray | RowGrad], float]:
    """Full reverse-mode pass; returns (gradients, batch loss).

    The embedding gradient is a ``RowGrad`` over the batch's token ids, the
    pad row's values zero; the other gradients are dense arrays.  ``rng``
    draws the dropout mask, and a model with ``fc_dropout > 0`` needs it.

    Loss is the (optionally class-weight normalized) mean of per-example
    fused softmax cross-entropies; gradients match that reduction.  When
    ``logits_out`` is given, the (B, C) inference-mode logits of the same
    forward pass (what ``forward_logits`` returns) are written into it.
    """
    if indices.shape[0] == 0:
        raise ValueError("empty batch")
    cfg = params.config
    cache = _lstm_forward_batch(params, indices, lengths)
    h_final = cache["h_final"]
    dtype = h_final.dtype
    if logits_out is not None:
        logits_out[...] = h_final @ params.w_out.T + params.b_out

    fc_mult = np.ones_like(h_final)
    if cfg.fc_dropout > 0:
        if rng is None:
            raise ValueError("training with dropout needs an rng")
        fc_mult = dropout_mask(h_final.shape, cfg.fc_dropout, rng, dtype)
    h_drop = h_final * fc_mult

    logits = h_drop @ params.w_out.T + params.b_out
    losses = row_cross_entropy(logits, labels)
    d_logits = softmax(logits)
    d_logits[np.arange(len(labels)), labels] -= 1.0
    # unweighted is weights of one: the weighted mean is then the plain mean
    w = (np.ones(len(labels)) if class_weights is None
         else np.asarray(class_weights, dtype=np.float64)[labels])
    total = w.sum()
    loss = float((w * losses).sum(dtype=np.float64) / total)
    d_logits *= w[:, None]
    d_logits /= total
    d_logits = d_logits.astype(dtype)

    d_w_out = d_logits.T @ h_drop
    d_b_out = d_logits.sum(axis=0)
    d_h = (d_logits @ params.w_out) * fc_mult

    grads = _lstm_backward_batch(params, cache, d_h)
    grads["w_out"] = d_w_out
    grads["b_out"] = d_b_out
    for name, g in grads.items():
        # a RowGrad's other rows are exactly zero
        if not np.all(np.isfinite(g.values if isinstance(g, RowGrad) else g)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    return grads, loss


# --- Adam --------------------------------------------------------------------

# elements per slice of the blocked Adam update: the slice's parameters,
# gradients, moments and scratch stay in cache between passes
_ADAM_BLOCK = 1 << 16

# Adam's moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in params.arrays().items()},
                   v={k: np.zeros_like(a) for k, a in params.arrays().items()})


def adam_step(params: ModelParams, grads: dict[str, np.ndarray | RowGrad],
              state: AdamState, lr: float) -> tuple[ModelParams, AdamState]:
    """Bias-corrected Adam update, in place on the parameters and moments.

    Works through each array in row slices of about ``_ADAM_BLOCK``
    elements.  The per-element arithmetic is the plain formula's,
    ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g**2``,
    ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``, in the same order, so the
    result is bit-identical to it when gradients share the parameter dtype.

    A gradient may be a dense array or a ``RowGrad``; a dense one is the
    case where every row is touched.  Every row takes ``m *= b1``,
    ``v *= b2`` and the parameter step, and only the touched rows add
    ``(1-b1)*g`` and ``(1-b2)*g**2``.  For an untouched row that is the
    plain formula with g = 0, where adding +0.0 changes no bit, with one
    exception: a moment that underflows to -0.0 stays -0.0, where the dense
    formula would make it +0.0.  The parameters are the same either way.

    A gradient of the wrong shape, or a malformed ``RowGrad``, raises
    ``ValueError`` before anything changes.  A non-finite update raises
    ``FloatingPointError`` at the first slice that has one.  The update is
    then partial: the arrays and slices before it, and that slice's
    moments, are already updated; the rest are not.
    """
    arrays = params.arrays()
    touched = {}
    for name, p in arrays.items():
        g = grads[name]
        if not isinstance(g, RowGrad):
            g = RowGrad(np.arange(len(p)), np.asarray(g))
        g.check(p.shape, name)
        touched[name] = g
    state.t += 1
    b1, b2, eps = ADAM_BETA1, ADAM_BETA2, ADAM_EPS
    bc1 = 1.0 - b1 ** state.t
    bc2 = 1.0 - b2 ** state.t
    for name, p in arrays.items():
        g = touched[name]
        m, v = state.m[name], state.v[name]
        n = max(1, _ADAM_BLOCK // max(1, math.prod(p.shape[1:])))
        step_buf, den_buf = np.empty((2,) + p[:n].shape, p.dtype)
        finite_buf = np.empty(step_buf.shape, bool)
        # slice [s, s + n) holds the touched rows g.rows[lo:hi]
        cuts = np.searchsorted(g.rows, range(0, len(p) + n, n))
        for s, lo, hi in zip(range(0, len(p), n), cuts, cuts[1:]):
            pb, mb, vb = p[s:s + n], m[s:s + n], v[s:s + n]
            step, den, finite = (b[:len(pb)] for b in
                                 (step_buf, den_buf, finite_buf))
            gb, g_term = g.values[lo:hi], step[:hi - lo]
            at = slice(None) if hi - lo == len(pb) else g.rows[lo:hi] - s
            mb *= b1
            np.multiply(gb, 1.0 - b1, out=g_term)
            mb[at] += g_term
            vb *= b2
            np.square(gb, out=g_term)
            g_term *= 1.0 - b2
            vb[at] += g_term
            np.divide(vb, bc2, out=den)
            np.sqrt(den, out=den)
            den += eps
            np.divide(mb, bc1, out=step)
            step *= lr
            step /= den
            if not np.isfinite(step, out=finite).all():
                raise FloatingPointError(f"non-finite Adam update for {name}")
            pb -= step
    params.embedding[0] = 0.0  # pad row frozen
    return params, state


# --- prediction ---------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    label: Label
    probabilities: np.ndarray  # (C,), class order [negative, positive]
    low_confidence: bool = False


# sequences per forward pass of predict_encoded and train.evaluate_split
_PREDICT_BATCH = 256


def length_sorted_batches(lengths: np.ndarray) -> Iterator[np.ndarray]:
    """Row indices in batches of ``_PREDICT_BATCH``, ordered by length
    (stable), so the rows of a batch have similar lengths and its packed
    forward pass runs few steps, each over most of the batch."""
    order = np.argsort(lengths, kind="stable")
    for start in range(0, len(order), _PREDICT_BATCH):
        yield order[start:start + _PREDICT_BATCH]


def predict_encoded(params: ModelParams, indices: np.ndarray,
                    lengths: np.ndarray) -> list[Prediction]:
    """Predictions for the rows of an encoded corpus, in their order.

    ``forward_logits`` runs over batches sorted by length, so each batch
    runs few steps.  The label is the argmax of the float64 softmax, ties
    to Negative; a row left empty by preprocessing is Negative off the
    zero-state pass, flagged low-confidence.
    """
    probs = np.empty((len(lengths), params.b_out.shape[0]))
    for sel in length_sorted_batches(lengths):
        probs[sel] = softmax(forward_logits(params, indices[sel], lengths[sel]))
    return [Prediction(Label.NEGATIVE, p, low_confidence=True) if n == 0
            else Prediction(Label(int(np.argmax(p))), p)
            for p, n in zip(probs, lengths)]


def predict(text: str, params: ModelParams, vocab: Vocabulary,
            preprocess_cfg, max_len: int | None = None) -> Prediction:
    from .preprocess import run_pipeline
    tokens = run_pipeline(text, preprocess_cfg)
    return predict_encoded(params, *encode(
        [tokens], vocab,
        params.config.max_len if max_len is None else max_len))[0]


# --- checkpoints ---------------------------------------------------------------

_MAGIC = b"SENTCKPT"
_VERSION = 1
_DTYPE_CODES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}


def _dtype_code(dtype) -> int:
    for code, dt in _DTYPE_CODES.items():
        if np.dtype(dtype) == dt:
            return code
    raise CheckpointError(f"unsupported checkpoint dtype {dtype}")


def _write_array(fh, arr: np.ndarray) -> None:
    """The array's byte count, then its little-endian C-order bytes, written
    from the array itself when it is already laid out that way."""
    arr = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
    fh.write(struct.pack("<Q", arr.nbytes))
    fh.write(memoryview(arr).cast("B"))


class _Reader:
    """Length-checked reads over the bytes of a checkpoint file."""

    def __init__(self, view: memoryview):
        self._view = view
        self._pos = 0

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self._view) - self._pos:
            raise CheckpointError(f"truncated checkpoint: {what}")
        self._pos += n
        return self._view[self._pos - n:self._pos]

    def unpack(self, fmt: str, what: str) -> tuple:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt), what))

    def array(self, shape, dtype) -> np.ndarray:
        (nbytes,) = self.unpack("<Q", "array header")
        expected = math.prod(shape) * dtype.itemsize
        if nbytes != expected:
            raise CheckpointError(f"array payload {nbytes} bytes, "
                                  f"expected {expected}")
        raw = self.take(nbytes, "array payload")
        return np.frombuffer(raw, dtype=dtype).reshape(shape).copy()

    def end(self) -> None:
        extra = len(self._view) - self._pos
        if extra:
            raise CheckpointError(f"{extra} bytes after the checkpoint payload")


def save_checkpoint(path: str | Path, params: ModelParams,
                    adam: AdamState | None = None) -> None:
    cfg = params.config
    dtype = params.embedding.dtype
    code = _dtype_code(dtype)
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<IB", _VERSION, code))
        fh.write(struct.pack("<5Q", cfg.vocab_size, cfg.embed_dim,
                             cfg.hidden_dim, cfg.num_classes, cfg.max_len))
        # the first rate is a retired second dropout on h_final; always 0.0
        fh.write(struct.pack("<2d", 0.0, cfg.fc_dropout))
        for arr in params.arrays().values():
            _write_array(fh, arr)
        if adam is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(struct.pack("<Q", adam.t))
            for key in params.arrays():
                _write_array(fh, adam.m[key])
                _write_array(fh, adam.v[key])


def load_checkpoint(path: str | Path) -> tuple[ModelParams, AdamState | None]:
    """Read a version-1 checkpoint; any deviation from the layout
    ``save_checkpoint`` writes raises ``CheckpointError``.  The retired
    first dropout rate is read and ignored."""
    blob = Path(path).read_bytes()
    if not blob.startswith(_MAGIC):
        raise CheckpointError("not a model checkpoint")
    reader = _Reader(memoryview(blob)[len(_MAGIC):])
    version, code = reader.unpack("<IB", "header")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if code not in _DTYPE_CODES:
        raise CheckpointError(f"unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    dims = reader.unpack("<5Q", "dimensions")
    _, fc_dropout = reader.unpack("<2d", "dropout rates")
    try:
        cfg = ModelConfig(*dims, fc_dropout=fc_dropout)
    except ValueError as exc:
        raise CheckpointError(str(exc)) from None
    shapes = _expected_shapes(cfg)
    params = ModelParams(cfg, **{name: reader.array(shape, dtype)
                                 for name, shape in shapes.items()})
    (flag,) = reader.unpack("<B", "Adam flag")
    if flag not in (0, 1):
        raise CheckpointError(f"Adam flag {flag}, expected 0 or 1")
    adam = None
    if flag == 1:
        (t,) = reader.unpack("<Q", "Adam step count")
        m, v = {}, {}
        for name, shape in shapes.items():
            m[name] = reader.array(shape, dtype)
            v[name] = reader.array(shape, dtype)
        adam = AdamState(m=m, v=v, t=t)
    reader.end()
    return params, adam
