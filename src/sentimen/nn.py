"""Numeric core: embedding + single-layer LSTM + dense softmax classifier.

Everything is plain numpy with hand-derived reverse-mode gradients; gate
blocks along the 4H axis are ordered [input i, forget f, candidate g,
output o].  Two separate bias vectors (b_ih and b_hh) are kept so the
parameter count matches the double-bias convention:

    V*E + 4*(E*H + H*H + 2H) + (H*C + C)

There is one LSTM implementation, over (B, T) batches; a single sequence
is a batch of one.  A batch runs only to its longest sequence and each
row's final state is read at its own length, so forward and backward
results on a padded sequence are bit-identical to the unpadded run and the
pad embedding row stays frozen at zero.

A batch touches at most B*T' of the embedding table's V rows, so
``backward`` returns the embedding gradient as a ``RowGrad``: the sorted,
unique touched rows and their summed gradients, with no dense (V, E)
array built or scanned.  ``adam_step`` takes a ``RowGrad`` for any array
and applies dense Adam to it exactly: every row's moments decay and every
row steps, and only the touched rows add their gradient terms.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .ingest import Label
from .vocab import EncodedSequence, Vocabulary, encode

GATE_ORDER = "ifgo"


class CheckpointError(Exception):
    pass


def softmax(logits: np.ndarray) -> np.ndarray:
    """Max-subtracted softmax along the last axis; safe for huge logits."""
    z = np.asarray(logits, dtype=np.float64)
    z = z - z.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, label: int) -> tuple[float, np.ndarray]:
    """Fused -log softmax(logits)[label]; also returns d(loss)/d(logits)."""
    z = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < z.shape[-1]:
        raise ValueError(f"label {label} out of range for {z.shape[-1]} classes")
    z = z - z.max()
    lse = np.log(np.exp(z).sum())
    loss = float(lse - z[label])
    grad = np.exp(z - lse)
    grad[label] -= 1.0
    return loss, grad


def row_cross_entropy(logits: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row -log softmax(logits)[label] of (B, C) logits, in their dtype."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=1))
    return lse - shifted[np.arange(len(labels)), labels]


def count_parameters(vocab_size: int, embed_dim: int, hidden_dim: int,
                     num_classes: int) -> int:
    if min(vocab_size, embed_dim, hidden_dim, num_classes) < 1:
        raise ValueError("all dimensions must be >= 1")
    v, e, h, c = vocab_size, embed_dim, hidden_dim, num_classes
    return v * e + 4 * (e * h + h * h + 2 * h) + (h * c + c)


# --- parameters --------------------------------------------------------------

@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    embed_dim: int = 128
    hidden_dim: int = 128
    num_classes: int = 2
    max_len: int = 100
    # the stated per-LSTM-layer rate is inert in a single-layer stack, so it
    # defaults to off; enabling it applies dropout to the final hidden state
    lstm_dropout: float = 0.0
    fc_dropout: float = 0.5


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
    rng = np.random.default_rng((seed, 0))
    v, e = config.vocab_size, config.embed_dim
    h, c = config.hidden_dim, config.num_classes
    lim_e, lim_h = 1.0 / np.sqrt(e), 1.0 / np.sqrt(h)
    emb = rng.uniform(-lim_e, lim_e, size=(v, e)).astype(dtype)
    emb[0] = 0.0
    # arguments evaluate in order, so the draws stay emb, w_ih, w_hh, w_out
    params = ModelParams(
        config=config,
        embedding=emb,
        w_ih=rng.uniform(-lim_h, lim_h, size=(4 * h, e)).astype(dtype),
        w_hh=rng.uniform(-lim_h, lim_h, size=(4 * h, h)).astype(dtype),
        b_ih=np.zeros(4 * h, dtype=dtype),
        b_hh=np.zeros(4 * h, dtype=dtype),
        w_out=rng.uniform(-lim_h, lim_h, size=(c, h)).astype(dtype),
        b_out=np.zeros(c, dtype=dtype),
    )
    if config.lstm_dropout > 0:
        warnings.warn("lstm_dropout > 0: the reference single-layer setup "
                      "leaves this rate inert; enabling it changes behavior",
                      stacklevel=2)
    return params


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

    def dense(self, shape: tuple[int, ...], dtype) -> np.ndarray:
        out = np.zeros(shape, dtype=dtype)
        out[self.rows] = self.values
        return out


def dropout_mask(shape, rate: float, rng: np.random.Generator,
                 dtype=np.float64) -> np.ndarray:
    """Inverted-dropout multiplier: 0 with probability rate, else 1/(1-rate)."""
    if not 0 <= rate < 1:
        raise ValueError("dropout rate must be in [0, 1)")
    if rate == 0:
        return np.ones(shape, dtype=dtype)
    keep = (rng.random(shape) >= rate).astype(dtype)
    return keep / (1.0 - rate)


def _gate_affine(h_dim: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """(scale, shift) over the 4H gate axis: ``scale*tanh(scale*a) + shift``
    is the sigmoid on the i, f, o blocks and tanh on the g block."""
    scale = np.full((4, h_dim), 0.5, dtype=dtype)
    shift = np.full((4, h_dim), 0.5, dtype=dtype)
    scale[2] = 1.0
    shift[2] = 0.0
    return scale.reshape(-1), shift.reshape(-1)


def _lstm_forward_batch(params: ModelParams, indices: np.ndarray,
                        lengths: np.ndarray, for_backward: bool = True) -> dict:
    """Forward over a (B, T) batch trimmed to its longest sequence; caches,
    time-major, what the backward pass reuses.

    Every row runs all T' steps and its final state is read at its own
    length, so the positions past it reach neither output nor gradients.
    Without ``for_backward`` the cell state and its tanh are kept for the
    current step only, updated in place.
    """
    h_dim = params.w_hh.shape[1]
    dtype = params.w_ih.dtype
    batch = indices.shape[0]
    lengths = np.clip(lengths, 0, indices.shape[1])
    steps = int(lengths.max(initial=0))
    indices = indices[:, :steps]
    x = params.embedding[indices.T]          # (T', B, E)

    # input projection and bias of every step in one GEMM
    gates = np.empty((steps, batch, 4 * h_dim), dtype=dtype)
    np.matmul(x.reshape(-1, x.shape[-1]), params.w_ih.T,
              out=gates.reshape(-1, 4 * h_dim))
    gates += params.b_ih + params.b_hh
    gate4 = gates.reshape(steps, batch, 4, h_dim)
    scale, shift = _gate_affine(h_dim, dtype)

    slots = steps if for_backward else 0
    h_states = np.zeros((steps + 1, batch, h_dim), dtype=dtype)
    c_states = np.zeros((slots + 1, batch, h_dim), dtype=dtype)
    tanh_c = np.empty((max(slots, 1), batch, h_dim), dtype=dtype)
    for t in range(steps):
        a = gates[t]
        a += h_states[t] @ params.w_hh.T
        a *= scale
        np.tanh(a, out=a)
        a *= scale
        a += shift
        i, f, g, o = gate4[t].swapaxes(0, 1)  # (B, H) views
        prev, cur = (t, t + 1) if for_backward else (0, 0)
        c = c_states[cur]
        np.multiply(f, c_states[prev], out=c)
        c += i * g
        np.tanh(c, out=tanh_c[prev])
        np.multiply(o, tanh_c[prev], out=h_states[t + 1])

    return {"x": x, "lengths": lengths, "indices": indices,
            "h_states": h_states, "c_states": c_states, "gates": gates,
            "tanh_c": tanh_c, "h_final": h_states[lengths, np.arange(batch)]}


def _lstm_backward_batch(params: ModelParams, cache: dict,
                         d_h_final: np.ndarray,
                         ) -> dict[str, np.ndarray | RowGrad]:
    h_dim = params.w_hh.shape[1]
    x, lengths = cache["x"], cache["lengths"]
    h_states, c_states, tanh_c = (cache["h_states"], cache["c_states"],
                                  cache["tanh_c"])
    steps, batch, _ = x.shape
    dtype = params.w_ih.dtype
    gate4 = cache["gates"].reshape(steps, batch, 4, h_dim)
    i, f, g, o = gate4.transpose(2, 0, 1, 3)  # (T', B, H) views

    # Gate gradients, shaped (T', B, 4H).  The factors that do not depend on
    # the recurrence go in first: d a_{i,f,g} / d c and d a_o / d h.  The
    # loop then multiplies in each step's dc (i, f, g) and dh (o).
    d_gates = np.empty_like(cache["gates"])
    d4 = d_gates.reshape(steps, batch, 4, h_dim)
    np.multiply(g, i * (1.0 - i), out=d4[:, :, 0])
    np.multiply(c_states[:-1], f * (1.0 - f), out=d4[:, :, 1])
    np.multiply(i, 1.0 - g * g, out=d4[:, :, 2])
    np.multiply(tanh_c, o * (1.0 - o), out=d4[:, :, 3])
    dc_dh = o * (1.0 - tanh_c * tanh_c)

    # a row's output gradient enters at its last real step; before it
    # (in reverse time) the row's dh and dc stay zero
    d_h_in = np.zeros((steps, batch, h_dim), dtype=dtype)
    live = np.flatnonzero(lengths)
    d_h_in[lengths[live] - 1, live] = d_h_final[live]

    dc = np.zeros((batch, h_dim), dtype=dtype)
    for t in range(steps - 1, -1, -1):
        dh = d_h_in[t]
        dc_total = dh * dc_dh[t]
        dc_total += dc
        d4[t, :, :3] *= dc_total[:, None, :]
        d4[t, :, 3] *= dh
        if t:
            d_h_in[t - 1] += d_gates[t] @ params.w_hh
            dc = dc_total * f[t]

    flat = d_gates.reshape(-1, 4 * h_dim)
    d_w_ih = flat.T @ x.reshape(-1, x.shape[-1])
    d_w_hh = flat.T @ h_states[:-1].reshape(-1, h_dim)
    d_b = flat.sum(axis=0)
    # each touched row sums its positions in order, as a scatter into the
    # dense table would
    rows, slot = np.unique(cache["indices"].T.reshape(-1), return_inverse=True)
    d_rows = np.zeros((len(rows), x.shape[-1]), dtype=dtype)
    np.add.at(d_rows, slot, flat @ params.w_ih)
    d_rows[rows == 0] = 0.0  # pad row frozen
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
             training: bool = True,
             class_weights: np.ndarray | None = None,
             logits_out: np.ndarray | None = None,
             ) -> tuple[dict[str, np.ndarray | RowGrad], float]:
    """Full reverse-mode pass; returns (gradients, batch loss).

    The embedding gradient is a ``RowGrad`` over the batch's token ids, the
    pad row's values zero; the other gradients are dense arrays.

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

    lstm_mult = np.ones_like(h_final)
    fc_mult = np.ones_like(h_final)
    if training and (cfg.lstm_dropout > 0 or cfg.fc_dropout > 0) and rng is None:
        raise ValueError("training with dropout needs an rng")
    if training and cfg.lstm_dropout > 0:
        lstm_mult = dropout_mask(h_final.shape, cfg.lstm_dropout, rng, dtype)
    if training and cfg.fc_dropout > 0:
        fc_mult = dropout_mask(h_final.shape, cfg.fc_dropout, rng, dtype)
    h_drop = h_final * lstm_mult * fc_mult

    logits = h_drop @ params.w_out.T + params.b_out
    losses = row_cross_entropy(logits, labels)
    batch = indices.shape[0]
    d_logits = softmax(logits)
    d_logits[np.arange(batch), labels] -= 1.0
    if class_weights is None:
        loss = float(losses.mean(dtype=np.float64))
        d_logits /= batch
    else:
        w = np.asarray(class_weights, dtype=np.float64)[labels]
        total = w.sum()
        loss = float((w * losses).sum(dtype=np.float64) / total)
        d_logits *= (w / total)[:, None]
    d_logits = d_logits.astype(dtype)

    d_w_out = d_logits.T @ h_drop
    d_b_out = d_logits.sum(axis=0)
    d_h = (d_logits @ params.w_out) * fc_mult * lstm_mult

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


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

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
    b1, b2, eps = state.beta1, state.beta2, state.eps
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


# sequences per forward pass of predict_batch
_PREDICT_BATCH = 256


def length_sorted_batches(lengths: np.ndarray,
                          batch_size: int) -> Iterator[np.ndarray]:
    """Row indices in batches of ``batch_size``, ordered by length (stable),
    so ``forward_logits`` trims each batch to little more than its rows."""
    order = np.argsort(lengths, kind="stable")
    for start in range(0, len(order), batch_size):
        yield order[start:start + batch_size]


def predict_batch(params: ModelParams,
                  seqs: Sequence[EncodedSequence]) -> list[Prediction]:
    """Predictions for many encoded sequences, in their order.

    ``forward_logits`` runs over batches sorted by length, so each batch is
    trimmed to little more than its own sequences.  The label is the argmax
    of the float64 softmax, ties to Negative; a sequence left empty by
    preprocessing is Negative off the zero-state pass, flagged low-confidence.
    """
    lengths = np.array([s.true_length for s in seqs], dtype=np.int64)
    probs = np.empty((len(seqs), params.b_out.shape[0]))
    for sel in length_sorted_batches(lengths, _PREDICT_BATCH):
        indices = np.stack([seqs[k].indices for k in sel])
        probs[sel] = softmax(forward_logits(params, indices, lengths[sel]))
    return [Prediction(Label.NEGATIVE, p, low_confidence=True) if n == 0
            else Prediction(Label(int(np.argmax(p))), p)
            for p, n in zip(probs, lengths)]


def predict_encoded(params: ModelParams, seq: EncodedSequence) -> Prediction:
    return predict_batch(params, [seq])[0]


def predict(text: str, params: ModelParams, vocab: Vocabulary,
            preprocess_cfg, max_len: int | None = None) -> Prediction:
    from .preprocess import run_pipeline
    tokens = run_pipeline(text, preprocess_cfg)
    seq = encode(tokens, vocab, max_len or params.config.max_len)
    return predict_encoded(params, seq)


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
    raw = np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes()
    fh.write(struct.pack("<Q", len(raw)))
    fh.write(raw)


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
        fh.write(struct.pack("<2d", cfg.lstm_dropout, cfg.fc_dropout))
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


def _expected_shapes(cfg: ModelConfig) -> dict[str, tuple[int, ...]]:
    v, e = cfg.vocab_size, cfg.embed_dim
    h, c = cfg.hidden_dim, cfg.num_classes
    return {"embedding": (v, e), "w_ih": (4 * h, e), "w_hh": (4 * h, h),
            "b_ih": (4 * h,), "b_hh": (4 * h,), "w_out": (c, h), "b_out": (c,)}


def load_checkpoint(path: str | Path,
                    expect: ModelConfig | None = None,
                    ) -> tuple[ModelParams, AdamState | None]:
    """Read a version-1 checkpoint; any deviation from the layout
    ``save_checkpoint`` writes raises ``CheckpointError``."""
    blob = Path(path).read_bytes()
    if not blob.startswith(_MAGIC):
        raise CheckpointError(f"{path}: not a model checkpoint")
    reader = _Reader(memoryview(blob)[len(_MAGIC):])
    version, code = reader.unpack("<IB", "header")
    if version != _VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version}")
    if code not in _DTYPE_CODES:
        raise CheckpointError(f"unknown dtype code {code}")
    dtype = _DTYPE_CODES[code]
    dims = reader.unpack("<5Q", "dimensions")
    drops = reader.unpack("<2d", "dropout rates")
    cfg = ModelConfig(vocab_size=dims[0], embed_dim=dims[1],
                      hidden_dim=dims[2], num_classes=dims[3],
                      max_len=dims[4], lstm_dropout=drops[0],
                      fc_dropout=drops[1])
    if expect is not None:
        for attr in ("vocab_size", "embed_dim", "hidden_dim",
                     "num_classes", "max_len"):
            if getattr(expect, attr) != getattr(cfg, attr):
                raise CheckpointError(
                    f"dimension mismatch: checkpoint {attr}="
                    f"{getattr(cfg, attr)}, expected {getattr(expect, attr)}")
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
