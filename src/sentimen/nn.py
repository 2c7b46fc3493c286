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
embedding row stays frozen at zero.  Final hidden states, logits and
gradients come back in the caller's row order.

A batch's P real positions touch at most P of the embedding table's V
rows, so ``backward`` returns the embedding gradient as a ``RowGrad``: the
sorted, unique touched rows and their summed gradients, with no dense
(V, E) array built or scanned.  After its first steps ``adam_step`` moves
only those rows, and ``adam_catch_up`` brings an idle row up to date in
closed form before anything reads it.

The forward pass reads its weights prescaled: each gate column of
``w_ih.T``, ``w_hh.T`` and the fused bias is multiplied by that gate's
pre-activation scale (``_gate_affine``), so the recurrence applies the
nonlinearity to the sums as they come.  A model from ``load_checkpoint`` is
read-only and forward-ready: every parameter array is read-only, and
``ModelParams.forward_ready`` holds the prescaled weights, computed once,
which a trainable model derives per call by the same formula, so a loaded
model and its writable copy agree bit for bit.  The Adam steps reject a
read-only model.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import accumulate
from pathlib import Path
from typing import Iterator

import numpy as np

from . import preprocess
from .ingest import Label
from .seeds import stream
from .vocab import Vocabulary, encode

class CheckpointError(Exception):
    pass


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted float64 softmax along the last axis; safe for huge
    logits.  Computed in place on one float64 copy of ``logits``."""
    z = np.array(logits, dtype=np.float64)
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


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

    def read_only(self) -> bool:
        """True when no parameter array is writable, as after
        ``load_checkpoint``."""
        return not any(a.flags.writeable for a in self.arrays().values())

    @cached_property
    def forward_ready(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The ``_prescaled_weights``, read-only.  Computed on first use;
        the forward pass reads them only while the model is read-only, so
        while its weights do not change.  They do not follow an array
        assigned to the model later: build a new ``ModelParams`` instead."""
        ready = _prescaled_weights(self)
        for a in ready:
            a.flags.writeable = False
        return ready


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


def _prescaled_weights(params: ModelParams,
                       ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``w_ih.T`` and ``w_hh.T``, C-contiguous, and ``b_ih + b_hh``, each
    gate column times its pre-activation scale (``_gate_affine``).

    Every scale is 0.5 or 1.0, a power of two, so it commutes with the
    rounding of the GEMMs and the adds: the scaled sums are exactly the
    sums times the scale, unless one turns subnormal.
    """
    scale = _gate_affine(params.config.hidden_dim, params.w_hh.dtype)[0]
    return (np.multiply(params.w_ih.T, scale, order="C"),
            np.multiply(params.w_hh.T, scale, order="C"),
            scale * (params.b_ih + params.b_hh))


def _forward_weights(params: ModelParams,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_prescaled_weights``: a read-only model's cached, a trainable
    model's computed per call, since they change every step."""
    if params.read_only():
        return params.forward_ready
    return _prescaled_weights(params)


def _lstm_forward_batch(params: ModelParams, indices: np.ndarray,
                        lengths: np.ndarray, for_backward: bool = True) -> dict:
    """Forward over the packed form of a (B, T) batch; caches what the
    backward pass reuses.

    The rows run longest first, and step t runs over the first
    ``sizes[t]`` of them: the rows still inside their sequence.  The P real
    positions are stored time-major, step after step, so no pad position is
    gathered, multiplied or stored.  ``h_final`` is each row's hidden
    state after its last real token (zero for an empty row), in the
    caller's row order; its cell state is ``c`` at that position.

    With ``for_backward`` every position's h, c and tanh(c) is kept;
    without it each is one (B, H) buffer, the current step only, whose
    prefix of live rows each step updates in place.  The weights come
    from ``_forward_weights``.
    """
    h_dim = params.w_hh.shape[1]
    dtype = params.w_ih.dtype
    batch = indices.shape[0]
    lengths = np.minimum(np.maximum(lengths, 0), indices.shape[1])
    order, sizes, offsets = _packing(lengths)
    steps, n_pos = len(sizes), offsets[-1]
    sorted_lengths = lengths[order]
    ids = indices[order, :steps].T           # (steps, B)
    if sizes[-1:] == [batch]:  # every row runs every step
        ids = ids.ravel()
    else:
        ids = ids[np.arange(steps)[:, None] < sorted_lengths]
    x = params.embedding[ids]                # (P, E)

    # input projection and bias of every real position in one GEMM, in
    # the scaled pre-activations that the tanh reads
    w_ih_t, w_hh_t, bias = _forward_weights(params)
    gates = x @ w_ih_t                       # (P, 4H)
    gates += bias
    gi, gf, gg, go = gates.reshape(n_pos, 4, h_dim).transpose(1, 0, 2)
    # as (1, 4H) rows: numpy runs a one-row step's in-place ops on arrays
    # of one shape at about half the cost of broadcasting a (4H,) vector
    scale, shift = (v.reshape(1, -1) for v in _gate_affine(h_dim, dtype))

    # state rows: position p when kept for backward, else the live prefix
    # of one (B, H) buffer
    slots = n_pos if for_backward else batch
    h_buf = np.zeros((slots, h_dim), dtype=dtype)
    c_buf = np.zeros((slots, h_dim), dtype=dtype)
    tanh_c = np.empty((slots, h_dim), dtype=dtype)
    cur = prev = 0
    for t, (n, off) in enumerate(zip(sizes, offsets)):
        end = off + n
        a = gates[off:end]
        if t:
            a += h_buf[prev:prev + n] @ w_hh_t
        np.tanh(a, out=a)
        a *= scale
        a += shift
        i, f, g, o = gi[off:end], gf[off:end], gg[off:end], go[off:end]
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
        h_end[:live] = h_buf[last]
    else:
        h_end = h_buf
    h_final = np.empty_like(h_end)
    h_final[order] = h_end
    return {"x": x, "ids": ids, "lengths": lengths, "order": order,
            "sizes": sizes, "offsets": offsets, "gates": gates,
            "h": h_buf, "c": c_buf, "tanh_c": tanh_c, "h_final": h_final}


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
    d_pos = d_gates[pos[real]] @ params.w_ih
    # np.add.at's sums, by rounds: round r adds the r-th position of every
    # row that has one, so no row occurs twice in a round's += and each
    # row adds its positions in order
    by_row = np.argsort(slot, kind="stable")
    counts = np.bincount(slot)
    first = np.cumsum(counts) - counts
    for r in range(counts.max(initial=0)):
        have = np.flatnonzero(counts > r)
        d_rows[pad + have] += d_pos[by_row[first[have] + r]]
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

# elements per block of the row-wise Adam passes over the embedding: one
# block's gathered rows, moments and scratch are all a pass holds at once
_ADAM_BLOCK = 1 << 16

# Adam's moment decay rates and denominator epsilon
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Catch-up, by parameter dtype: (T0, J).  For its first T0 steps Adam
# steps every live embedding row, since the catch-up series converges
# slowly over windows that start while bc2 still grows fast; after them,
# only the rows it has a gradient for.  A window sum takes the J steps
# after its start; later terms carry b1**j below 4.9e-8 (float32) or
# 3.4e-17 (float64) and are dropped.
_CATCH_UP = {np.dtype(np.float32): (50, 160), np.dtype(np.float64): (100, 360)}
# terms of the catch-up series, and the steps its pivot is centred over
_SERIES_TERMS = 24
_PIVOT_STEPS = 160


@dataclass
class AdamState:
    """Adam's moments and step count, plus what the embedding's catch-up
    needs.

    ``last[r]`` is the step embedding row r was last brought up to, and
    ``live[r]`` is False while row r's moments are all zero: a g = 0 step
    leaves such a row unchanged, so it is always current.  ``sums[s]``
    holds the window sums of the steps after step s (``adam_catch_up``).
    """
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    last: np.ndarray = field(init=False, repr=False)
    live: np.ndarray = field(init=False, repr=False)
    sums: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        m, v = self.m["embedding"], self.v["embedding"]
        self.last = np.full(len(m), self.t)
        self.live = np.any(m, axis=1) | np.any(v, axis=1)
        self.sums = np.zeros((self.t + 1, _SERIES_TERMS))

    @classmethod
    def for_params(cls, params: ModelParams) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in params.arrays().items()},
                   v={k: np.zeros_like(a) for k, a in params.arrays().items()})

    def behind(self, rows: np.ndarray | None = None) -> np.ndarray:
        """The embedding rows among ``rows`` (default: all) that are not
        up to step ``t``."""
        if rows is None:
            return np.flatnonzero(self.live & (self.last < self.t))
        return rows[self.live[rows] & (self.last[rows] < self.t)]


def _row_blocks(rows: np.ndarray, width: int) -> Iterator[np.ndarray]:
    """``rows`` in pieces of at most ``_ADAM_BLOCK`` elements of ``width``."""
    n = max(1, _ADAM_BLOCK // width)
    return (rows[lo:lo + n] for lo in range(0, len(rows), n))


def _adam_update(p, m, v, g, lr: float, bc1: float, bc2: float,
                 name: str) -> None:
    """The plain Adam formula, in place on ``p``, ``m`` and ``v``; ``g``
    None is the g = 0 step without its ``+ 0.0`` terms."""
    m *= ADAM_BETA1
    v *= ADAM_BETA2
    if g is not None:
        m += (1.0 - ADAM_BETA1) * g
        v += (1.0 - ADAM_BETA2) * np.square(g)
    den = np.sqrt(v / bc2)
    den += ADAM_EPS
    step = m / bc1
    step *= lr
    step /= den
    if not np.isfinite(step).all():
        raise FloatingPointError(f"non-finite Adam update for {name}")
    p -= step


def _step_rows(params: ModelParams, state: AdamState, rows: np.ndarray,
               values: np.ndarray | None, lr: float, bc1: float,
               bc2: float) -> None:
    """``_adam_update`` on the embedding rows ``rows``, a block at a time."""
    p, m, v = params.embedding, state.m["embedding"], state.v["embedding"]
    n = 0
    for r in _row_blocks(rows, p.shape[1]):
        pb, mb, vb = p[r], m[r], v[r]
        g = None if values is None else values[n:n + len(r)]
        _adam_update(pb, mb, vb, g, lr, bc1, bc2, "embedding")
        p[r], m[r], v[r] = pb, mb, vb
        n += len(r)


def _check_writable(params: ModelParams) -> None:
    """Raise ``ValueError`` when a parameter array is read-only, as a
    loaded model's are."""
    frozen = [name for name, a in params.arrays().items()
              if not a.flags.writeable]
    if frozen:
        raise ValueError(f"parameter arrays {frozen} are read-only; a loaded "
                         f"model serves predictions, train a writable copy")


def _window_c(s, j):
    """c of step s + j in the window after step s: sqrt(bc2) * b2**(-j/2)."""
    return np.sqrt(1.0 - ADAM_BETA2 ** (s + j)) * ADAM_BETA2 ** (-j / 2)


def _pivot(s):
    """c* of the window after step s: c grows with j, so the midpoint of
    its range over the first ``_PIVOT_STEPS`` steps is that of its ends."""
    return (_window_c(s, 1) + _window_c(s, _PIVOT_STEPS)) / 2


def adam_step(params: ModelParams, grads: dict[str, np.ndarray | RowGrad],
              state: AdamState, lr: float) -> tuple[ModelParams, AdamState]:
    """Bias-corrected Adam update, in place on the parameters and moments.

    Each array takes the plain formula, ``m = b1*m + (1-b1)*g``,
    ``v = b2*v + (1-b2)*g**2``, ``p -= lr*(m/bc1) / (sqrt(v/bc2) + eps)``,
    in that order, so the result is bit-identical to it when gradients
    share the parameter dtype.  The dense arrays take it whole.

    The embedding gradient may be a ``RowGrad`` or a dense array (every
    row listed).  Its rows take the formula a block at a time.  For the
    first T0 steps (``_CATCH_UP``) every other live row takes the g = 0
    step too, as ``m *= b1``, ``v *= b2`` and the parameter step, so the
    table is the dense formula's; the one exception is a moment that
    underflows to -0.0, which keeps its sign.  After T0 only the listed
    rows move; each step adds its terms to ``state.sums``, from which
    ``adam_catch_up`` brings an idle row up to date when it is next read.

    A read-only model (``load_checkpoint``), a gradient of the wrong
    shape, a malformed ``RowGrad``, or one for a row that
    ``adam_catch_up`` has not brought up to date raises ``ValueError``
    before anything changes.  A non-finite update raises
    ``FloatingPointError`` naming the array; the step is then partly
    applied, and the state is not fit for further steps.
    """
    _check_writable(params)
    emb = grads["embedding"]
    if not isinstance(emb, RowGrad):
        emb = RowGrad(np.arange(len(params.embedding)), np.asarray(emb))
    emb.check(params.embedding.shape, "embedding")
    for name, p in params.arrays().items():
        if name != "embedding" and np.shape(grads[name]) != p.shape:
            raise ValueError(f"gradient shape {np.shape(grads[name])} != "
                             f"{p.shape} for {name}")
    behind = state.behind(emb.rows)
    if len(behind):
        raise ValueError(f"embedding rows {behind[:5].tolist()} are behind "
                         f"step {state.t}; adam_catch_up them first")
    state.t += 1
    t = state.t
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bc1 = 1.0 - b1 ** t
    bc2 = 1.0 - b2 ** t
    for name, p in params.arrays().items():
        if name != "embedding":
            _adam_update(p, state.m[name], state.v[name], grads[name],
                         lr, bc1, bc2, name)

    t0, span = _CATCH_UP[params.embedding.dtype]
    if t <= t0:
        idle = np.setdiff1d(np.flatnonzero(state.live), emb.rows,
                            assume_unique=True)
        _step_rows(params, state, idle, None, lr, bc1, bc2)
        state.last[:] = t
    _step_rows(params, state, emb.rows, emb.values, lr, bc1, bc2)
    state.live[emb.rows[np.any(emb.values != 0, axis=1)]] = True
    state.last[emb.rows] = t
    params.embedding[0] = 0.0  # pad row frozen

    if t > t0:
        if t >= len(state.sums):
            grown = np.zeros((2 * t, _SERIES_TERMS))
            grown[:len(state.sums)] = state.sums
            state.sums = grown
        # step t is step j = t - s of each open window s
        s = np.arange(max(t0, t - span), t)
        c = _window_c(s, t - s)
        a = lr * b1 ** (t - s) * c / bc1
        # (c - c*)**n for every n, as a running product along the terms
        terms = np.empty((len(s), _SERIES_TERMS))
        terms[:, 0] = 1.0
        terms[:, 1:] = (c - _pivot(s))[:, None]
        np.cumprod(terms, axis=1, out=terms)
        terms *= a[:, None]
        state.sums[s] += terms
    return params, state


def adam_catch_up(params: ModelParams, state: AdamState,
                  rows: np.ndarray | None = None) -> None:
    """Bring the embedding rows ``rows`` (default: all) up to step
    ``state.t``, in place.

    A row last updated at step s missed k = t - s steps with g = 0.  Over
    them m and v decay to b1**k * m and b2**k * v, and step s + j moves the
    parameter by ``lr*a_j*m / (sqrt(v) + eps*c_j)``, with
    ``c_j = sqrt(bc2) * b2**(-j/2)`` and ``a_j = b1**j * c_j / bc1`` at step
    s + j.  Expanding each term around the window's pivot c* gives, with
    ``D = sqrt(v) + eps*c*``,

        delta = m/D * sum_n (-eps/D)**n * S[s, n],
        S[s, n] = sum_j lr*a_j * (c_j - c*)**n,

    which converges for every v >= 0, as |c_j - c*| < c*.  ``adam_step``
    keeps the sums S.  The arithmetic is float64, a block of rows at a
    time, so a float32 row is rounded once, not once per missed step as
    dense Adam would.  A read-only model raises ``ValueError`` before
    anything changes.  A non-finite update raises ``FloatingPointError``
    naming the array; the blocks before it are then caught up and the
    rest are not.
    """
    _check_writable(params)
    p, m, v = params.embedding, state.m["embedding"], state.v["embedding"]
    eps = ADAM_EPS
    for r in _row_blocks(state.behind(rows), p.shape[1]):
        s = state.last[r]
        k = (state.t - s)[:, None]
        sums = state.sums[s]
        mb = m[r].astype(np.float64, copy=False)
        vb = v[r].astype(np.float64, copy=False)
        den = np.sqrt(vb)
        den += eps * _pivot(s)[:, None]
        ratio = -eps / den
        series = np.zeros_like(den)
        for n in range(_SERIES_TERMS - 1, -1, -1):
            series *= ratio
            series += sums[:, n, None]
        series *= mb
        series /= den
        if not np.isfinite(series).all():
            raise FloatingPointError("non-finite Adam catch-up for embedding")
        p[r] -= series
        m[r] = mb * ADAM_BETA1 ** k
        v[r] = vb * ADAM_BETA2 ** k
        state.last[r] = state.t
    p[0] = 0.0  # pad row frozen


# --- prediction ---------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    label: Label
    probabilities: np.ndarray  # (C,), class order [negative, positive]
    low_confidence: bool = False


# sequences per forward pass of predict_encoded and train.evaluate_split
_PREDICT_BATCH = 256
# the labels by class index, as the softmax's argmax gives it
_LABELS = tuple(Label)


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
    runs few steps, and one softmax then runs over all the logits.  One row
    needs no sorting and runs as given.  (More rows keep the sort even when
    they fit one batch: the head's GEMM gives a row that falls in the
    remainder of OpenBLAS's row blocks other bits, so the row order is part
    of the result.)  The label is the argmax of the float64 softmax, ties
    to Negative; a row left empty by preprocessing is Negative off the
    zero-state pass, flagged low-confidence.
    """
    if len(lengths) == 1:
        logits = forward_logits(params, indices, lengths)
    else:
        logits = np.empty((len(lengths), params.b_out.shape[0]),
                          dtype=params.b_out.dtype)
        for sel in length_sorted_batches(lengths):
            logits[sel] = forward_logits(params, indices[sel], lengths[sel])
    probs = softmax(logits)
    return [Prediction(_LABELS[k], p) if n else
            Prediction(Label.NEGATIVE, p, low_confidence=True)
            for p, k, n in zip(probs, probs.argmax(axis=1).tolist(),
                               lengths.tolist())]


def predict(text: str, params: ModelParams, vocab: Vocabulary,
            preprocess_cfg, max_len: int | None = None) -> Prediction:
    tokens = preprocess.run_pipeline(text, preprocess_cfg)
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
    """Write ``params`` and, when given, ``adam``, whose embedding rows
    must all be up to its step (``adam_catch_up``)."""
    if adam is not None and len(adam.behind()):
        raise ValueError("Adam state has embedding rows behind its step; "
                         "adam_catch_up them first")
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
    first dropout rate is read and ignored.

    The model comes back read-only and forward-ready: every parameter
    array is read-only, and its ``forward_ready`` weights are computed
    here, once, so no prediction pays for them.  To train it further,
    copy its arrays.  The Adam state stays writable.
    """
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
    for arr in params.arrays().values():
        arr.flags.writeable = False
    params.forward_ready  # computed here, not by the first prediction
    return params, adam
