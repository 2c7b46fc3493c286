import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen import nn
from sentimen.ingest import Label
from sentimen.nn import ModelParams, _gate_affine, _packing
from sentimen.seeds import stream

from conftest import dense, dense_grads, length_sorted_logits


def tiny_config(V=6, E=3, H=4, C=2, T=5, fc_dropout=0.0):
    return nn.ModelConfig(vocab_size=V, embed_dim=E, hidden_dim=H,
                          num_classes=C, max_len=T, fc_dropout=fc_dropout)


def random_params(cfg, seed=0, bias_scale=0.3):
    params = nn.init_params(cfg, seed=seed)
    rng = np.random.default_rng(seed + 1000)
    params.b_ih[:] = rng.normal(0, bias_scale, params.b_ih.shape)
    params.b_hh[:] = rng.normal(0, bias_scale, params.b_hh.shape)
    params.b_out[:] = rng.normal(0, bias_scale, params.b_out.shape)
    return params


def random_batch(cfg, rng, batch=3):
    T = cfg.max_len
    idx = rng.integers(1, cfg.vocab_size, size=(batch, T))
    lengths = rng.integers(1, T + 1, size=batch)
    for b in range(batch):
        idx[b, lengths[b]:] = 0
    labels = rng.integers(0, cfg.num_classes, size=batch)
    return idx, lengths, labels


class TestCountParameters:
    def test_full_scale_architecture(self):
        assert nn.count_parameters(16378, 128, 128, 2) == 2_228_738

    def test_unit_dims_hand_enumerated(self):
        # 1*1 emb + 4*(1+1+2) gates + (1*1+1) head = 1 + 16 + 2
        assert nn.count_parameters(1, 1, 1, 1) == 19

    def test_small_dims_hand_enumerated(self):
        # 40 emb + 4*(12+9+6) + (6+2)
        assert nn.count_parameters(10, 4, 3, 2) == 156

    @given(V=st.integers(1, 40), E=st.integers(1, 8), H=st.integers(1, 8),
           C=st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_matches_direct_array_enumeration(self, V, E, H, C):
        cfg = nn.ModelConfig(vocab_size=V, embed_dim=E, hidden_dim=H,
                             num_classes=C, max_len=3)
        arrays = nn.init_params(cfg).arrays().values()
        assert sum(a.size for a in arrays) == nn.count_parameters(V, E, H, C)

    def test_rejects_zero_dims(self):
        with pytest.raises(ValueError):
            nn.count_parameters(0, 1, 1, 1)


class TestModelConfig:
    @pytest.mark.parametrize("rate", [math.nan, 1.0, -0.5, 7.0])
    def test_rejects_dropout_outside_unit_interval(self, rate):
        with pytest.raises(ValueError, match="fc_dropout"):
            tiny_config(fc_dropout=rate)

    @pytest.mark.parametrize("rate", [0.0, 0.5, 0.999])
    def test_accepts_dropout_in_unit_interval(self, rate):
        assert tiny_config(fc_dropout=rate).fc_dropout == rate


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(nn.softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_analytic_two_thirds(self):
        out = nn.softmax(np.array([math.log(2), 0.0]))
        assert np.allclose(out, [2 / 3, 1 / 3], atol=1e-12)

    def test_overflow_safety(self):
        out = nn.softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(1.0)
        assert out[1] == pytest.approx(0.0, abs=1e-300)

    @given(st.lists(st.floats(-1e4, 1e4), min_size=2, max_size=6))
    @settings(max_examples=80)
    def test_sums_to_one(self, logits):
        out = nn.softmax(np.array(logits))
        assert abs(out.sum() - 1.0) <= 1e-12
        # extreme spreads underflow to exactly 0, which is fine
        assert np.all(np.isfinite(out))
        assert np.all(out >= 0) and np.all(out <= 1 + 1e-15)

    def test_moderate_logits_strictly_inside_unit_interval(self):
        out = nn.softmax(np.array([-30.0, 0.0, 30.0]))
        assert np.all(out > 0) and np.all(out < 1)


def row_loss(logits, label):
    """``nn.row_cross_entropy`` of one float64 row."""
    return float(nn.row_cross_entropy(np.array([logits], dtype=np.float64),
                                      np.array([label]))[0])


class TestCrossEntropy:
    def test_confident_correct(self):
        assert row_loss([1000.0, 0.0], 0) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_equals_ln2(self):
        for label in (0, 1):
            assert row_loss([0.0, 0.0], label) == pytest.approx(math.log(2),
                                                                abs=1e-12)

    def test_uniform_logits_give_ln_num_classes(self):
        for n_classes in (2, 3, 5):
            assert row_loss([1.7] * n_classes, 0) == pytest.approx(
                math.log(n_classes), abs=1e-12)

    def test_hand_evaluated(self):
        assert row_loss([1.0, -1.0], 1) == pytest.approx(
            math.log(1 + math.e ** 2), rel=1e-12)

    def test_rows_are_independent(self):
        logits = np.array([[1000.0, 0.0], [0.0, 0.0], [1.0, -1.0]])
        losses = nn.row_cross_entropy(logits, np.array([0, 1, 1]))
        assert losses.tolist() == [row_loss(z, y) for z, y in
                                   zip(logits.tolist(), (0, 1, 1))]

    def test_gradient_is_softmax_minus_onehot(self):
        # backward's gradient of the head bias on one row, no dropout, is
        # d(loss)/d(logits)
        params = random_params(tiny_config(C=3), seed=4)
        idx, lengths = np.array([[3, 1, 5, 0, 0]]), np.array([3])
        logits = nn.forward_logits(params, idx, lengths)[0]
        grads, _ = nn.backward(params, idx, lengths, np.array([2]))
        expected = nn.softmax(logits)
        expected[2] -= 1.0
        assert np.allclose(grads["b_out"], expected, atol=1e-12)

    def test_gradient_matches_finite_differences(self):
        logits = np.array([0.25, -1.5])
        grad = nn.softmax(logits)
        grad[0] -= 1.0
        eps = 1e-6
        for j in range(2):
            bumped = logits.copy()
            bumped[j] += eps
            up = row_loss(bumped, 0)
            bumped[j] -= 2 * eps
            down = row_loss(bumped, 0)
            assert grad[j] == pytest.approx((up - down) / (2 * eps), abs=1e-8)

    @given(st.lists(st.floats(-50, 50), min_size=2, max_size=5),
           st.data())
    @settings(max_examples=60)
    def test_nonnegative(self, logits, data):
        label = data.draw(st.integers(0, len(logits) - 1))
        assert row_loss(logits, label) >= 0


def batch_with_gaps(cfg, rng, batch):
    """Random (indices, lengths) with a zero-length first row and a padded
    width past the longest sequence, so trailing columns are all padding."""
    lengths = rng.integers(0, cfg.max_len - 1, size=batch)
    lengths[0] = 0
    idx = rng.integers(1, cfg.vocab_size, size=(batch, cfg.max_len))
    for b in range(batch):
        idx[b, lengths[b]:] = 0
    return idx, lengths


def final_c(cache):
    """Each row's cell state after its last real token (zero for an empty
    row), in the caller's row order: ``c`` at the row's last packed
    position, which for row r of the sorted batch is offsets[len - 1] + r."""
    c = cache["c"]
    out = np.zeros((len(cache["lengths"]), c.shape[1]), dtype=c.dtype)
    for r, row in enumerate(cache["order"].tolist()):
        n = cache["lengths"][row]
        if n:
            out[row] = c[cache["offsets"][n - 1] + r]
    return out


class TestLstmStep:
    """The gate equations, through the batched path."""

    def test_all_zero_weights_analytic(self):
        cfg = tiny_config(E=3, H=2)
        params = random_params(cfg, seed=1)
        for arr in params.arrays().values():
            if arr is not params.embedding:
                arr[:] = 0.0
        cache = nn._lstm_forward_batch(params, np.array([[1, 2, 0]]),
                                       np.array([2]))
        assert np.all(cache["c"] == 0.0) and np.all(final_c(cache) == 0.0)
        assert np.all(cache["h_final"] == 0.0)

    def test_scalar_saturated_gates(self):
        # E = H = 1, zero weights, biases drive i, g, o to saturation
        params = nn.init_params(tiny_config(V=2, E=1, H=1, T=1))
        for arr in params.arrays().values():
            arr[:] = 0.0
        params.b_ih[:] = [100.0, 0.0, 100.0, 100.0]  # [i, f, g, o]
        cache = nn._lstm_forward_batch(params, np.array([[1]]), np.array([1]))
        assert final_c(cache)[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert cache["h_final"][0, 0] == pytest.approx(0.7616, abs=5e-5)

    def test_matches_scalar_oracle(self):
        # loop_forward over each row's real tokens, then the dense head
        rng = np.random.default_rng(11)
        for trial in range(10):
            cfg = tiny_config(V=int(rng.integers(3, 12)),
                              E=int(rng.integers(1, 5)),
                              H=int(rng.integers(1, 5)),
                              T=int(rng.integers(2, 8)))
            params = random_params(cfg, seed=trial, bias_scale=0.7)
            idx, lengths = batch_with_gaps(cfg, rng, int(rng.integers(1, 5)))
            cache = nn._lstm_forward_batch(params, idx, lengths)
            want = loop_forward(params, idx, lengths)
            h = want["h_states"][-1]
            assert np.max(np.abs(cache["h_final"] - h), initial=0.0) <= 1e-12
            assert np.max(np.abs(final_c(cache) - want["c_states"][-1]),
                          initial=0.0) <= 1e-12
            logits = nn.forward_logits(params, idx, lengths)
            assert np.max(np.abs(logits - (h @ params.w_out.T + params.b_out)),
                          initial=0.0) <= 1e-12


class TestLstmForward:
    """Sequence-level conventions of the batched path."""

    def test_zero_length_convention(self):
        # a zero-length row keeps the zero state next to a row that runs
        cfg = tiny_config(E=3, H=2, T=4)
        params = nn.init_params(cfg)
        for arr in params.arrays().values():
            arr[:] = 1.0
        lengths = np.array([0, 3])
        cache = nn._lstm_forward_batch(params, np.array([[0, 0, 0, 0],
                                                         [1, 2, 3, 0]]),
                                       lengths)
        c_final = final_c(cache)
        assert np.all(cache["h_final"][0] == 0) and np.all(c_final[0] == 0)
        assert np.all(cache["h_final"][1] != 0)

    def test_length_one_is_single_step(self):
        cfg = tiny_config(E=3, H=2, T=4)
        params = random_params(cfg, seed=3, bias_scale=1.0)
        idx = np.array([[4, 0, 0, 0], [2, 5, 1, 3]])
        cache = nn._lstm_forward_batch(params, idx, np.array([1, 4]))
        # one step of the loop, from the zero state
        step = loop_forward(params, idx[:1, :1], np.array([1]))
        h, c = step["h_states"][1, 0], step["c_states"][1, 0]
        assert np.max(np.abs(cache["h_final"][0] - h)) <= 1e-12
        assert np.max(np.abs(final_c(cache)[0] - c)) <= 1e-12

    def test_padding_ignored(self):
        # tokens past a row's length change neither its h nor its c
        rng = np.random.default_rng(4)
        cfg = tiny_config(E=3, H=2, T=5)
        params = random_params(cfg, seed=4)
        lengths = np.array([3, 1, 5])
        padded = rng.integers(1, cfg.vocab_size, size=(3, cfg.max_len))
        junk = padded.copy()
        for b in range(3):
            padded[b, lengths[b]:] = 0
        a = nn._lstm_forward_batch(params, padded, lengths)
        b = nn._lstm_forward_batch(params, junk, lengths)
        assert np.array_equal(a["h_final"], b["h_final"])
        assert np.array_equal(final_c(a), final_c(b))

    def test_lengths_clamped_to_the_batch(self):
        cfg = tiny_config(E=3, H=2, T=4)
        params = random_params(cfg, seed=5, bias_scale=1.0)
        idx = np.array([[1, 2, 3, 4], [4, 3, 0, 0]])
        a = nn._lstm_forward_batch(params, idx, np.array([9, -2]))
        b = nn._lstm_forward_batch(params, idx, np.array([4, 0]))
        assert a["lengths"].tolist() == [4, 0]
        assert np.array_equal(a["h_final"], b["h_final"])

    def test_gate_affine_cached_read_only(self):
        scale, shift = nn._gate_affine(2, np.dtype(np.float32))
        again = nn._gate_affine(2, np.dtype(np.float32))
        assert again[0] is scale and again[1] is shift
        assert not (scale.flags.writeable or shift.flags.writeable)
        assert scale.tolist() == [0.5, 0.5, 0.5, 0.5, 1.0, 1.0, 0.5, 0.5]
        assert shift.tolist() == [0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.5, 0.5]


class TestEmbedForward:
    """The batched path's embedding lookup, cached as ``x``: the real
    positions only, step by step, longest row first within a step."""

    weights = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 3.0]])

    def params(self):
        params = nn.init_params(tiny_config(V=3, E=2, H=2, T=3))
        params.embedding[:] = self.weights
        return params

    def test_pad_row_is_zero(self):
        params = nn.init_params(tiny_config(V=3, E=2, H=2, T=3))
        assert np.array_equal(params.embedding[0], [0.0, 0.0])
        cache = nn._lstm_forward_batch(params, np.array([[0, 0], [1, 0]]),
                                       np.array([0, 1]))
        # the empty row gathers nothing
        assert np.array_equal(cache["x"], [params.embedding[1]])

    def test_row_lookup(self):
        cache = nn._lstm_forward_batch(self.params(), np.array([[2, 1]]),
                                       np.array([2]))
        assert np.array_equal(cache["x"], [[2.0, 3.0], [1.0, 1.0]])

    def test_pad_tail(self):
        # alone or beside a longer row, a row's pad tail is never gathered
        params = self.params()
        alone = nn._lstm_forward_batch(params, np.array([[2, 0, 0]]),
                                       np.array([1]))
        assert np.array_equal(alone["x"], [[2.0, 3.0]])
        mixed = nn._lstm_forward_batch(params,
                                       np.array([[2, 0, 0], [1, 2, 1]]),
                                       np.array([1, 3]))
        # step 0 holds the longer row first, then the shorter one
        assert mixed["ids"].tolist() == [1, 2, 2, 1]
        assert np.array_equal(mixed["x"],
                              [[1.0, 1.0], [2.0, 3.0], [2.0, 3.0], [1.0, 1.0]])
        assert np.array_equal(params.embedding[0], [0.0, 0.0])


class TestDenseForward:
    """The dense head, through ``forward_logits``."""

    def test_bias_only(self):
        cfg = tiny_config(V=4, E=3, H=3, T=3)
        params = random_params(cfg, seed=2)
        params.w_out[:] = 0.0
        params.b_out[:] = [1.0, 2.0]
        logits = nn.forward_logits(params, np.array([[1, 2, 3], [3, 0, 0]]),
                                   np.array([3, 1]))
        assert np.array_equal(logits, [[1.0, 2.0], [1.0, 2.0]])

    def test_identity_weights(self):
        cfg = tiny_config(E=3, H=2, T=4)
        params = random_params(cfg, seed=5)
        params.w_out[:] = np.eye(2)
        params.b_out[:] = 0.0
        idx, lengths, _ = random_batch(cfg, np.random.default_rng(5))
        h_final = nn._lstm_forward_batch(params, idx, lengths)["h_final"]
        assert np.array_equal(nn.forward_logits(params, idx, lengths),
                              h_final)

    def test_scalar_dot_oracle(self):
        cfg = tiny_config(E=3, H=4, T=5)
        params = random_params(cfg, seed=9)
        idx, lengths, _ = random_batch(cfg, np.random.default_rng(9))
        h_final = nn._lstm_forward_batch(params, idx, lengths)["h_final"]
        logits = nn.forward_logits(params, idx, lengths)
        w, b = params.w_out, params.b_out
        for row in range(len(idx)):
            for k in range(2):
                ref = b[k] + sum(w[k, j] * h_final[row, j] for j in range(4))
                assert logits[row, k] == pytest.approx(ref, rel=1e-12)


class TestDropout:
    def test_inference_identity(self):
        # a model without dropout needs no rng, and its loss is that of
        # the inference-mode logits
        cfg = tiny_config()
        params = random_params(cfg, seed=7)
        idx, lengths, labels = random_batch(cfg, np.random.default_rng(5),
                                            batch=4)
        _, loss = nn.backward(params, idx, lengths, labels)
        logits = nn.forward_logits(params, idx, lengths)
        want = np.mean(nn.row_cross_entropy(logits, labels))
        assert loss == pytest.approx(want, rel=1e-12)

    def test_dropout_model_needs_rng(self):
        cfg = tiny_config(fc_dropout=0.5)
        idx, lengths, labels = random_batch(cfg, np.random.default_rng(5))
        with pytest.raises(ValueError, match="needs an rng"):
            nn.backward(random_params(cfg, seed=7), idx, lengths, labels)

    def test_rate_zero_identity(self):
        mask = nn.dropout_mask((3, 4), 0.0, np.random.default_rng(0),
                               dtype=np.float32)
        assert mask.dtype == np.float32
        assert np.array_equal(mask, np.ones((3, 4)))

    def test_statistical_mean_preserved(self):
        rng = np.random.default_rng(123)
        out = nn.dropout_mask(10_000, 0.5, rng)
        assert out.mean() == pytest.approx(1.0, abs=0.05)
        kept = out[out != 0]
        assert np.allclose(kept, 2.0)  # survivors scaled by 1/(1-rate)

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            nn.dropout_mask(3, 1.0, np.random.default_rng(0))


class TestBackward:
    def test_gradcheck_small_models(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            cfg = tiny_config(V=int(rng.integers(2, 9)),
                              E=int(rng.integers(1, 5)),
                              H=int(rng.integers(1, 5)),
                              T=int(rng.integers(1, 6)))
            params = random_params(cfg, seed=trial)
            idx, lengths, labels = random_batch(cfg, rng, batch=2)
            grads, _ = nn.backward(params, idx, lengths, labels)
            grads = dense_grads(params, grads)
            assert gradcheck_max_rel_error(params, grads, idx, lengths,
                                           labels) < 1e-4

    def test_zero_weight_model_analytic(self):
        cfg = tiny_config(V=4, E=2, H=2, T=3)
        params = nn.init_params(cfg)
        for arr in params.arrays().values():
            arr[:] = 0.0
        idx = np.array([[1, 2, 0]])
        grads, loss = nn.backward(params, idx, np.array([2]), np.array([0]))
        grads = dense_grads(params, grads)
        assert loss == pytest.approx(math.log(2), abs=1e-12)
        assert np.allclose(grads["b_out"], [-0.5, 0.5], atol=1e-12)
        for name in ("embedding", "w_ih", "w_hh", "b_ih", "b_hh", "w_out"):
            assert np.allclose(grads[name], 0.0, atol=1e-12), name

    def test_duplicated_example_leaves_mean_gradient(self):
        cfg = tiny_config()
        params = random_params(cfg, seed=5)
        rng = np.random.default_rng(8)
        idx, lengths, labels = random_batch(cfg, rng, batch=1)
        single, loss1 = nn.backward(params, idx, lengths, labels)
        doubled, loss2 = nn.backward(params, np.repeat(idx, 2, axis=0),
                                     np.repeat(lengths, 2),
                                     np.repeat(labels, 2))
        assert loss2 == pytest.approx(loss1, rel=1e-12)
        single, doubled = (dense_grads(params, single),
                           dense_grads(params, doubled))
        for name in single:
            assert np.allclose(single[name], doubled[name], atol=1e-12)

    def test_pad_embedding_row_gets_zero_gradient(self):
        cfg = tiny_config()
        params = random_params(cfg, seed=2)
        idx = np.array([[1, 2, 3, 0, 0]])
        grads, _ = nn.backward(params, idx, np.array([3]), np.array([1]))
        assert np.all(dense_grads(params, grads)["embedding"][0] == 0.0)

    def test_empty_batch_rejected(self):
        cfg = tiny_config()
        params = nn.init_params(cfg)
        with pytest.raises(ValueError):
            nn.backward(params, np.zeros((0, 5), dtype=int), np.zeros(0, int),
                        np.zeros(0, int))


def gradcheck_max_rel_error(params, grads, idx, lengths, labels, eps=1e-5):
    worst = 0.0
    for name, p in params.arrays().items():
        it = np.nditer(p, flags=["multi_index"])
        for _ in it:
            k = it.multi_index
            original = p[k]
            p[k] = original + eps
            _, up = nn.backward(params, idx, lengths, labels)
            p[k] = original - eps
            _, down = nn.backward(params, idx, lengths, labels)
            p[k] = original
            fd = (up - down) / (2 * eps)
            analytic = grads[name][k]
            if name == "embedding" and k[0] == 0:
                assert analytic == 0.0
                continue
            # 1e-6 floor: FD roundoff dominates below it
            denom = max(abs(fd), abs(analytic), 1e-6)
            worst = max(worst, abs(fd - analytic) / denom)
    return worst


class TestMaskingEquivalence:
    def test_forward_and_backward_exact(self):
        rng = np.random.default_rng(17)
        for trial in range(10):
            cfg = tiny_config(T=int(rng.integers(2, 7)))
            params = random_params(cfg, seed=trial + 20)
            length = int(rng.integers(1, cfg.max_len))
            real = rng.integers(1, cfg.vocab_size, size=(1, length))
            label = np.array([int(rng.integers(0, 2))])
            padded = np.zeros((1, cfg.max_len), dtype=np.int64)
            padded[0, :length] = real
            lengths = np.array([length])

            assert np.array_equal(
                nn.forward_logits(params, real, lengths),
                nn.forward_logits(params, padded, lengths))
            g_real, l_real = nn.backward(params, real, lengths, label)
            g_pad, l_pad = nn.backward(params, padded, lengths, label)
            assert l_real == l_pad
            g_real, g_pad = (dense_grads(params, g_real),
                             dense_grads(params, g_pad))
            for name in g_real:
                if name == "embedding":
                    # padded run has extra (all-zero) pad-row slots
                    assert np.max(np.abs(g_real[name] - g_pad[name])) < 1e-12
                else:
                    assert np.array_equal(g_real[name], g_pad[name])


class TestAdam:
    def test_zero_gradient_leaves_params(self):
        cfg = tiny_config()
        params = nn.init_params(cfg, seed=1)
        before = {k: a.copy() for k, a in params.arrays().items()}
        zero = {k: np.zeros_like(a) for k, a in params.arrays().items()}
        state = nn.AdamState.for_params(params)
        nn.adam_step(params, zero, state, lr=0.1)
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, before[name])

    def test_first_step_hand_value(self):
        cfg = nn.ModelConfig(vocab_size=1, embed_dim=1, hidden_dim=1,
                             num_classes=1, max_len=1)
        params = nn.init_params(cfg)
        params.b_out[:] = 1.0
        grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
        grads["b_out"] = np.array([1.0])
        state = nn.AdamState.for_params(params)
        nn.adam_step(params, grads, state, lr=0.1)
        # m-hat = v-hat = 1 on the first step: p = 1 - 0.1/(1 + 1e-8)
        assert params.b_out[0] == pytest.approx(0.9, abs=1e-8)

    def test_two_steps_match_scalar_recurrence(self):
        cfg = nn.ModelConfig(vocab_size=1, embed_dim=1, hidden_dim=1,
                             num_classes=1, max_len=1)
        params = nn.init_params(cfg)
        params.b_out[:] = 1.0
        grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
        grads["b_out"] = np.array([1.0])
        state = nn.AdamState.for_params(params)
        nn.adam_step(params, grads, state, lr=0.1)
        nn.adam_step(params, grads, state, lr=0.1)

        p, m, v = 1.0, 0.0, 0.0
        for t in (1, 2):
            m = 0.9 * m + 0.1 * 1.0
            v = 0.999 * v + 0.001 * 1.0
            p -= 0.1 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t))
                                               + 1e-8)
        assert params.b_out[0] == pytest.approx(p, rel=1e-12)
        assert state.t == 2

    def test_shape_mismatch_rejected(self):
        cfg = tiny_config()
        params = nn.init_params(cfg)
        grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
        grads["b_out"] = np.zeros(7)
        with pytest.raises(ValueError):
            nn.adam_step(params, grads, nn.AdamState.for_params(params), 0.1)


class TestInferenceDeterminism:
    def test_repeated_calls_identical(self):
        cfg = tiny_config(fc_dropout=0.5)
        params = random_params(cfg, seed=9)
        rng = np.random.default_rng(2)
        idx, lengths, _ = random_batch(cfg, rng)
        a = nn.forward_logits(params, idx, lengths)
        b = nn.forward_logits(params, idx, lengths)
        assert np.array_equal(a, b)


class TestPredict:
    def test_bias_dominated_negative(self):
        cfg = tiny_config(V=4, E=2, H=2, T=3)
        params = nn.init_params(cfg)
        for arr in params.arrays().values():
            arr[:] = 0.0
        params.b_out[:] = [5.0, -5.0]
        pred = nn.predict_encoded(params, np.array([[1, 2, 0]]),
                                  np.array([2]))[0]
        assert pred.label == Label.NEGATIVE
        assert pred.probabilities[0] == pytest.approx(0.99995, abs=1e-5)
        assert not pred.low_confidence

    def test_tie_goes_negative(self):
        cfg = tiny_config(V=4, E=2, H=2, T=2)
        params = nn.init_params(cfg)
        for arr in params.arrays().values():
            arr[:] = 0.0
        pred = nn.predict_encoded(params, np.array([[1, 0]]), np.array([1]))[0]
        assert np.allclose(pred.probabilities, [0.5, 0.5])
        assert pred.label == Label.NEGATIVE

    def test_empty_sequence_low_confidence(self):
        cfg = tiny_config(V=4, E=2, H=2, T=2)
        params = nn.init_params(cfg)
        pred = nn.predict_encoded(params, np.array([[0, 0]]), np.array([0]))[0]
        assert pred.label == Label.NEGATIVE
        assert pred.low_confidence

    @pytest.mark.parametrize("max_len", [0, -3])
    def test_non_positive_max_len_rejected(self, pp_cfg, max_len):
        # 0 must not fall back to the model's max_len
        from sentimen.vocab import build_vocab
        vocab = build_vocab([["bagus"]])
        params = nn.init_params(tiny_config(V=vocab.size))
        with pytest.raises(ValueError, match="max_len"):
            nn.predict("bagus", params, vocab, pp_cfg, max_len=max_len)


class TestCheckpoint:
    def test_round_trip_bitwise(self, tmp_path):
        cfg = tiny_config()
        params = random_params(cfg, seed=4)
        state = nn.AdamState.for_params(params)
        state.t = 7
        state.m["w_ih"][:] = 0.25
        nn.save_checkpoint(tmp_path / "m.bin", params, state)
        loaded, adam = nn.load_checkpoint(tmp_path / "m.bin")
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, loaded.arrays()[name])
            assert arr.dtype == loaded.arrays()[name].dtype
        assert adam.t == 7
        assert np.array_equal(adam.m["w_ih"], state.m["w_ih"])
        assert loaded.config == cfg

    def test_huge_adam_step_count_loads_in_little_memory(self, tmp_path):
        # the step count sizes no array
        import tracemalloc
        params = random_params(tiny_config(), seed=4)
        state = nn.AdamState.for_params(params)
        state.t = 2 ** 40
        nn.save_checkpoint(tmp_path / "m.bin", params, state)
        tracemalloc.start()
        try:
            _, adam = nn.load_checkpoint(tmp_path / "m.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert adam.t == adam.first == 2 ** 40
        assert len(adam.behind()) == 0
        assert peak < 64 * 1024

    def test_retired_dropout_slot_written_as_zero(self, tmp_path):
        # the 16 bytes of rates follow the magic, the version and dtype
        # code, and five u64 dimensions
        params = random_params(tiny_config(fc_dropout=0.25), seed=1)
        for adam in (None, nn.AdamState.for_params(params)):
            nn.save_checkpoint(tmp_path / "m.bin", params, adam)
            blob = (tmp_path / "m.bin").read_bytes()
            assert struct.unpack_from("<2d", blob, 8 + 5 + 40) == (0.0, 0.25)

    def test_retired_dropout_slot_read_and_ignored(self, tmp_path):
        # a file from a run that set the retired second rate still loads
        params = random_params(tiny_config(fc_dropout=0.25), seed=3)
        nn.save_checkpoint(tmp_path / "m.bin", params)
        blob = bytearray((tmp_path / "m.bin").read_bytes())
        struct.pack_into("<d", blob, 8 + 5 + 40, 0.3)
        (tmp_path / "old.bin").write_bytes(bytes(blob))
        loaded, adam = nn.load_checkpoint(tmp_path / "old.bin")
        assert adam is None
        assert loaded.config == params.config
        for name, arr in params.arrays().items():
            assert np.array_equal(arr, loaded.arrays()[name])

    @pytest.mark.parametrize("rate", [math.nan, 1.0, -0.5, 7.0])
    def test_dropout_rate_outside_unit_interval_rejected(self, tmp_path,
                                                         rate):
        nn.save_checkpoint(tmp_path / "m.bin",
                           random_params(tiny_config(fc_dropout=0.25), seed=4))
        blob = bytearray((tmp_path / "m.bin").read_bytes())
        struct.pack_into("<d", blob, 8 + 5 + 40 + 8, rate)
        (tmp_path / "bad.bin").write_bytes(bytes(blob))
        with pytest.raises(nn.CheckpointError,
                           match=r"fc_dropout .*, expected in \[0, 1\)"):
            nn.load_checkpoint(tmp_path / "bad.bin")

    def test_truncated_file(self, tmp_path):
        params = nn.init_params(tiny_config())
        nn.save_checkpoint(tmp_path / "m.bin", params)
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "t.bin").write_bytes(blob[:len(blob) // 2])
        with pytest.raises(nn.CheckpointError):
            nn.load_checkpoint(tmp_path / "t.bin")

    def test_wrong_magic(self, tmp_path):
        (tmp_path / "x.bin").write_bytes(b"NOTAMODELFILE")
        with pytest.raises(nn.CheckpointError, match="not a model checkpoint"):
            nn.load_checkpoint(tmp_path / "x.bin")

    @pytest.mark.parametrize("with_adam", [False, True])
    def test_every_prefix_rejected(self, tmp_path, with_adam):
        params = random_params(tiny_config(V=3, E=2, H=1, T=2), seed=2)
        adam = nn.AdamState.for_params(params) if with_adam else None
        nn.save_checkpoint(tmp_path / "m.bin", params, adam)
        blob = (tmp_path / "m.bin").read_bytes()
        nn.load_checkpoint(tmp_path / "m.bin")
        for n in range(len(blob)):
            (tmp_path / "t.bin").write_bytes(blob[:n])
            with pytest.raises(nn.CheckpointError):
                nn.load_checkpoint(tmp_path / "t.bin")

    @pytest.mark.parametrize("with_adam", [False, True])
    def test_each_prefix_names_the_field_it_cuts(self, tmp_path, with_adam):
        params = random_params(tiny_config(V=3, E=2, H=1, T=2), seed=2)
        adam = nn.AdamState.for_params(params) if with_adam else None
        nn.save_checkpoint(tmp_path / "m.bin", params, adam)
        blob = (tmp_path / "m.bin").read_bytes()
        fields = [("header", 5), ("dimensions", 40), ("dropout rates", 16)]
        arrays = list(params.arrays().values())
        if with_adam:
            arrays += [a for a in arrays for _ in (0, 1)]
        for k, a in enumerate(arrays):
            if k == len(params.arrays()):
                fields += [("Adam flag", 1), ("Adam step count", 8)]
            fields += [("array header", 8), ("array payload", a.nbytes)]
        if not with_adam:
            fields.append(("Adam flag", 1))
        assert len(nn._MAGIC) + sum(n for _, n in fields) == len(blob)
        end = len(nn._MAGIC)
        for n in range(len(blob)):
            if n < len(nn._MAGIC):
                want = "not a model checkpoint"
            else:
                while n >= end + fields[0][1]:
                    end += fields.pop(0)[1]
                want = f"truncated checkpoint: {fields[0][0]}"
            (tmp_path / "t.bin").write_bytes(blob[:n])
            with pytest.raises(nn.CheckpointError) as err:
                nn.load_checkpoint(tmp_path / "t.bin")
            assert str(err.value) == want, n

    def test_trailing_byte_rejected(self, tmp_path):
        nn.save_checkpoint(tmp_path / "m.bin", nn.init_params(tiny_config()))
        blob = (tmp_path / "m.bin").read_bytes()
        (tmp_path / "t.bin").write_bytes(blob + b"\0")
        with pytest.raises(nn.CheckpointError, match="after the checkpoint"):
            nn.load_checkpoint(tmp_path / "t.bin")

    def test_adam_flag_other_than_0_or_1_rejected(self, tmp_path):
        nn.save_checkpoint(tmp_path / "m.bin", nn.init_params(tiny_config()))
        blob = (tmp_path / "m.bin").read_bytes()
        assert blob[-1] == 0  # without Adam state the flag is the last byte
        (tmp_path / "t.bin").write_bytes(blob[:-1] + bytes([7]))
        with pytest.raises(nn.CheckpointError, match="Adam flag 7"):
            nn.load_checkpoint(tmp_path / "t.bin")

    @staticmethod
    def copying_write_array(fh, arr):
        """The writer that converts through ``astype`` and ``tobytes``."""
        raw = np.ascontiguousarray(arr).astype(
            arr.dtype.newbyteorder("<")).tobytes()
        fh.write(struct.pack("<Q", len(raw)))
        fh.write(raw)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("with_adam", [False, True])
    def test_bytes_match_the_copying_writer(self, tmp_path, monkeypatch,
                                            dtype, with_adam):
        params = nn.init_params(tiny_config(V=9), seed=3, dtype=dtype)
        # a big-endian and a non-contiguous array are converted on the way
        params.w_ih = params.w_ih.astype(params.w_ih.dtype.newbyteorder(">"))
        params.w_hh = np.asfortranarray(params.w_hh)
        adam = None
        if with_adam:
            adam = nn.AdamState.for_params(params)
            adam.t = 3
            for k, a in params.arrays().items():
                adam.m[k] = a * 0.5
                adam.v[k] = (a * a).astype(a.dtype.newbyteorder(">"))
        nn.save_checkpoint(tmp_path / "new.bin", params, adam)
        monkeypatch.setattr(nn, "_write_array", self.copying_write_array)
        nn.save_checkpoint(tmp_path / "old.bin", params, adam)
        assert ((tmp_path / "new.bin").read_bytes()
                == (tmp_path / "old.bin").read_bytes())

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_save_makes_no_full_size_copy(self, tmp_path, dtype):
        import tracemalloc
        cfg = nn.ModelConfig(vocab_size=20_000, embed_dim=16, hidden_dim=4,
                             max_len=8)
        params = nn.init_params(cfg, seed=0, dtype=dtype)
        adam = nn.AdamState.for_params(params)
        tracemalloc.start()
        try:
            nn.save_checkpoint(tmp_path / "m.bin", params, adam)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.embedding.nbytes // 2

    @pytest.mark.parametrize("with_adam", [False, True])
    def test_load_makes_no_second_copy(self, tmp_path, with_adam):
        import tracemalloc
        cfg = nn.ModelConfig(vocab_size=20_000, embed_dim=16, hidden_dim=4,
                             max_len=8)
        params = nn.init_params(cfg, seed=0)
        adam = nn.AdamState.for_params(params) if with_adam else None
        nn.save_checkpoint(tmp_path / "m.bin", params, adam)
        size = (tmp_path / "m.bin").stat().st_size
        tracemalloc.start()
        try:
            loaded, _ = nn.load_checkpoint(tmp_path / "m.bin")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the arrays themselves, and no file-sized buffer beside them
        assert peak < size + params.embedding.nbytes // 2
        assert all(a.flags.c_contiguous for a in loaded.arrays().values())

    def test_float32_round_trip(self, tmp_path):
        params = nn.init_params(tiny_config(), dtype=np.float32)
        nn.save_checkpoint(tmp_path / "m.bin", params)
        loaded, _ = nn.load_checkpoint(tmp_path / "m.bin")
        assert loaded.embedding.dtype == np.dtype("<f4")
        assert np.array_equal(loaded.embedding,
                              params.embedding)


# --- the per-step loop LSTM: the batched path's oracle at 1e-12 ---------------
# The batched forward/backward before its packing, hoisted input
# projection and post-loop weight GEMMs: one masked step at a time over the
# full padded width, with the exp-based sigmoid.

def loop_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def loop_forward(params, indices, lengths):
    h_dim = params.w_hh.shape[1]
    batch, seq_len = indices.shape
    x = params.embedding[indices]
    mask = (np.arange(seq_len)[None, :] < lengths[:, None]).astype(x.dtype)
    h_states = np.zeros((seq_len + 1, batch, h_dim))
    c_states = np.zeros((seq_len + 1, batch, h_dim))
    gates = np.zeros((seq_len, batch, 4 * h_dim))
    tanh_c = np.zeros((seq_len, batch, h_dim))
    bias = params.b_ih + params.b_hh
    for t in range(seq_len):
        a = x[:, t, :] @ params.w_ih.T + h_states[t] @ params.w_hh.T + bias
        i = loop_sigmoid(a[:, :h_dim])
        f = loop_sigmoid(a[:, h_dim:2 * h_dim])
        g = np.tanh(a[:, 2 * h_dim:3 * h_dim])
        o = loop_sigmoid(a[:, 3 * h_dim:])
        gates[t] = np.concatenate([i, f, g, o], axis=1)
        c_raw = f * c_states[t] + i * g
        tanh_c[t] = np.tanh(c_raw)
        m = mask[:, t:t + 1]
        c_states[t + 1] = m * c_raw + (1.0 - m) * c_states[t]
        h_states[t + 1] = m * (o * tanh_c[t]) + (1.0 - m) * h_states[t]
    return {"x": x, "mask": mask, "h_states": h_states, "c_states": c_states,
            "gates": gates, "tanh_c": tanh_c, "indices": indices}


def loop_backward(params, cache, d_h_final):
    h_dim = params.w_hh.shape[1]
    x, mask = cache["x"], cache["mask"]
    h_states, c_states = cache["h_states"], cache["c_states"]
    gates, tanh_c = cache["gates"], cache["tanh_c"]
    batch, seq_len, _ = x.shape
    d_w_ih = np.zeros_like(params.w_ih)
    d_w_hh = np.zeros_like(params.w_hh)
    d_b = np.zeros_like(params.b_ih)
    d_x = np.zeros_like(x)
    dh = d_h_final.copy()
    dc = np.zeros((batch, h_dim))
    for t in range(seq_len - 1, -1, -1):
        m = mask[:, t:t + 1]
        i, f, g, o = np.split(gates[t], 4, axis=1)
        dh_raw, dc_raw = m * dh, m * dc
        d_o = dh_raw * tanh_c[t]
        dc_total = dc_raw + dh_raw * o * (1.0 - tanh_c[t] ** 2)
        da = np.concatenate([dc_total * g * i * (1.0 - i),
                             dc_total * c_states[t] * f * (1.0 - f),
                             dc_total * i * (1.0 - g ** 2),
                             d_o * o * (1.0 - o)], axis=1)
        d_w_ih += da.T @ x[:, t, :]
        d_w_hh += da.T @ h_states[t]
        d_b += da.sum(axis=0)
        d_x[:, t, :] = da @ params.w_ih
        dh = da @ params.w_hh + (1.0 - m) * dh
        dc = dc_total * f + (1.0 - m) * dc
    d_emb = np.zeros_like(params.embedding)
    np.add.at(d_emb, cache["indices"].reshape(-1),
              d_x.reshape(-1, d_x.shape[-1]))
    d_emb[0] = 0.0
    return {"embedding": d_emb, "w_ih": d_w_ih, "w_hh": d_w_hh, "b_ih": d_b}


class TestBatchedPathMatchesLoop:
    """Packed, fused batched path against the loop oracle, float64."""

    def test_forward_and_backward_agree_to_1e12(self):
        rng = np.random.default_rng(31)
        for trial in range(25):
            cfg = tiny_config(V=int(rng.integers(3, 12)),
                              E=int(rng.integers(1, 6)),
                              H=int(rng.integers(1, 6)),
                              T=int(rng.integers(2, 9)))
            params = random_params(cfg, seed=trial)
            idx, lengths = batch_with_gaps(cfg, rng, int(rng.integers(1, 6)))
            new = nn._lstm_forward_batch(params, idx, lengths)
            old = loop_forward(params, idx, lengths)
            assert np.max(np.abs(new["h_final"] - old["h_states"][-1]),
                          initial=0.0) <= 1e-12
            logits_only = nn._lstm_forward_batch(params, idx, lengths,
                                                 for_backward=False)
            assert np.array_equal(logits_only["h_final"], new["h_final"])

            d_h = rng.normal(size=(len(idx), cfg.hidden_dim))
            g_new = dense_grads(params,
                                nn._lstm_backward_batch(params, new, d_h))
            g_old = loop_backward(params, old, d_h)
            for name, want in g_old.items():
                assert np.max(np.abs(g_new[name] - want)) <= 1e-12, name
            assert np.array_equal(g_new["b_hh"], g_new["b_ih"])

    def test_all_empty_batch_runs_no_steps(self):
        cfg = tiny_config()
        params = random_params(cfg, seed=3)
        idx = np.zeros((3, cfg.max_len), dtype=np.int64)
        lengths = np.zeros(3, dtype=np.int64)
        cache = nn._lstm_forward_batch(params, idx, lengths)
        assert cache["gates"].shape[0] == 0
        assert np.array_equal(cache["h_final"], np.zeros((3, cfg.hidden_dim)))
        grads = dense_grads(params, nn._lstm_backward_batch(
            params, cache, np.ones((3, cfg.hidden_dim))))
        assert all(np.all(g == 0.0) for g in grads.values())

    def test_logits_out_are_the_inference_logits(self):
        cfg = tiny_config(fc_dropout=0.5)
        params = random_params(cfg, seed=6)
        idx, lengths, labels = random_batch(cfg, np.random.default_rng(4),
                                            batch=4)
        logits = np.empty((4, cfg.num_classes))
        nn.backward(params, idx, lengths, labels,
                    rng=np.random.default_rng(0), logits_out=logits)
        assert np.array_equal(logits, nn.forward_logits(params, idx, lengths))


class TestPackedLayout:
    """The packed batch: only real positions, longest rows first."""

    def test_gate_buffer_holds_the_real_positions(self):
        cfg = tiny_config(T=6)
        params = random_params(cfg, seed=2)
        rng = np.random.default_rng(5)
        for batch in (1, 3, 7):
            idx = rng.integers(1, cfg.vocab_size, size=(batch, cfg.max_len))
            lengths = rng.integers(-2, cfg.max_len + 3, size=batch)
            real = int(np.clip(lengths, 0, cfg.max_len).sum())
            cache = nn._lstm_forward_batch(params, idx, lengths)
            assert cache["gates"].shape == (real, 4 * cfg.hidden_dim)
            assert cache["x"].shape == (real, cfg.embed_dim)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_inference_table_is_exact(self, dtype):
        # the inference pass projects each distinct id of a batch once, into
        # a table of max(distinct ids, 2 when P >= 2) rows: an id that all
        # P >= 2 positions share is projected as two rows, so no product but
        # that of P = 1 is a one-row GEMV.  Every position reads its id's
        # row, with the bits of the training pass's GEMM over all P, and the
        # pass gives the training pass's h_final
        rng = np.random.default_rng(17)
        # (vocabulary size, lengths, every position one id)
        cases = [(5, [1], False), (3, [0, 1, 0], False), (3, [0, 0, 0], False),
                 (4, [0], False), (3, [2], True), (3, [1, 1], True),
                 (20, [12] + [11] * 12, True), (9, [2, 1] * 8, False)]
        for _ in range(80):
            batch = int(rng.integers(1, 41))
            lengths = rng.integers(0, 13, size=batch)
            lengths[rng.random(batch) < 0.3] = 0
            cases.append((int(rng.integers(3, 21)), lengths.tolist(),
                          rng.random() < 0.2))
        shared = 0
        for vocab_size, lengths, one_id in cases:
            cfg = tiny_config(V=vocab_size, E=16, H=32, T=12)
            params = random_params(cfg, seed=vocab_size, bias_scale=1.0)
            params = nn.ModelParams(cfg, **{
                k: a.astype(dtype) for k, a in params.arrays().items()})
            w_ih_t, _, bias = nn._forward_weights(params)
            lengths = np.array(lengths)
            idx = rng.integers(1, vocab_size, size=(len(lengths), 12))
            if one_id:
                idx[:] = idx[0, 0]
            cache = nn._lstm_forward_batch(params, idx, lengths,
                                           for_backward=False)
            train = nn._lstm_forward_batch(params, idx, lengths)
            assert np.array_equal(cache["h_final"], train["h_final"]), lengths
            ids, table = train["ids"], cache["table"]
            uniq = np.unique(ids)
            two = len(ids) >= 2 and len(uniq) == 1
            shared += two
            assert len(table) == max(len(uniq), 2 * two), lengths
            one = params.embedding[ids] @ w_ih_t + bias
            assert np.array_equal(table[np.searchsorted(uniq, ids)], one)
            assert np.array_equal(table[len(uniq):], table[:len(table)
                                                           - len(uniq)])
        assert shared > 10

    def test_row_permutation_permutes_the_outputs(self):
        # ties and empty rows: the stable sort puts them in another order
        rng = np.random.default_rng(23)
        cfg = tiny_config(V=9, E=3, H=4, T=6)
        params = random_params(cfg, seed=7)
        lengths = np.array([3, 0, 5, 3, 6, 0, 3, 1])
        idx = rng.integers(1, cfg.vocab_size, size=(8, cfg.max_len))
        for b in range(8):
            idx[b, lengths[b]:] = 0
        labels = rng.integers(0, 2, size=8)
        grads, loss = nn.backward(params, idx, lengths, labels)
        logits = nn.forward_logits(params, idx, lengths)
        h_final = nn._lstm_forward_batch(params, idx, lengths)["h_final"]
        for trial in range(5):
            perm = rng.permutation(8)
            p_grads, p_loss = nn.backward(params, idx[perm], lengths[perm],
                                          labels[perm])
            got = nn._lstm_forward_batch(params, idx[perm], lengths[perm])
            assert np.max(np.abs(got["h_final"] - h_final[perm])) <= 1e-12
            assert np.max(np.abs(nn.forward_logits(
                params, idx[perm], lengths[perm]) - logits[perm])) <= 1e-12
            assert abs(p_loss - loss) <= 1e-12
            assert np.array_equal(p_grads["embedding"].rows,
                                  grads["embedding"].rows)
            want, have = dense_grads(params, grads), dense_grads(params,
                                                                 p_grads)
            for name in want:
                assert np.max(np.abs(have[name] - want[name])) <= 1e-12, name

    @pytest.mark.parametrize("batch", [1, 2, 3, 16])
    @pytest.mark.parametrize("equal", [True, False])
    def test_batch_sizes_match_the_loop(self, batch, equal):
        # equal lengths keep the caller's order and skip the packing mask
        rng = np.random.default_rng(batch + 100 * equal)
        cfg = tiny_config(V=10, E=4, H=5, T=7)
        params = random_params(cfg, seed=batch)
        if equal:
            lengths = np.full(batch, 5)
        else:
            lengths = rng.integers(0, cfg.max_len + 1, size=batch)
        idx = rng.integers(1, cfg.vocab_size, size=(batch, cfg.max_len))
        for b in range(batch):
            idx[b, lengths[b]:] = 0
        new = nn._lstm_forward_batch(params, idx, lengths)
        old = loop_forward(params, idx, lengths)
        assert np.max(np.abs(new["h_final"] - old["h_states"][-1])) <= 1e-12
        assert np.max(np.abs(final_c(new) - old["c_states"][-1])) <= 1e-12
        inference = nn._lstm_forward_batch(params, idx, lengths,
                                           for_backward=False)
        assert np.array_equal(inference["h_final"], new["h_final"])
        d_h = rng.normal(size=(batch, cfg.hidden_dim))
        g_new = dense_grads(params, nn._lstm_backward_batch(params, new, d_h))
        for name, want in loop_backward(params, old, d_h).items():
            assert np.max(np.abs(g_new[name] - want)) <= 1e-12, name


def unblocked_adam_step(p, g, m, v, t, lr, b1=0.9, b2=0.999, eps=1e-8):
    """The plain whole-array Adam formula."""
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * np.square(g)
    p -= lr * (m / (1.0 - b1 ** t)) / (np.sqrt(v / (1.0 - b2 ** t)) + eps)


class TestBlockedAdam:
    def test_bit_identical_to_unblocked_formula(self):
        # an embedding table of 2.5 blocks: full slices and a partial one
        rows = 5 * nn._ADAM_BLOCK // (2 * 16) + 3
        cfg = nn.ModelConfig(vocab_size=rows, embed_dim=16, hidden_dim=3,
                             num_classes=2, max_len=4)
        assert cfg.vocab_size * cfg.embed_dim % nn._ADAM_BLOCK != 0
        rng = np.random.default_rng(12)
        for dtype in (np.float32, np.float64):
            params = nn.init_params(cfg, seed=1, dtype=dtype)
            state = nn.AdamState.for_params(params)
            want = {k: a.copy() for k, a in params.arrays().items()}
            m = {k: np.zeros_like(a) for k, a in want.items()}
            v = {k: np.zeros_like(a) for k, a in want.items()}
            for t in (1, 2, 3):
                grads = {k: rng.normal(size=a.shape).astype(dtype)
                         for k, a in want.items()}
                nn.adam_step(params, grads, state, lr=0.01)
                for k in want:
                    unblocked_adam_step(want[k], grads[k], m[k], v[k], t, 0.01)
                want["embedding"][0] = 0.0
                for k, a in params.arrays().items():
                    assert np.array_equal(a, want[k]), (dtype, t, k)
                    assert np.array_equal(state.m[k], m[k])
                    assert np.array_equal(state.v[k], v[k])

    def test_non_finite_update_rejected(self):
        cfg = tiny_config()
        params = nn.init_params(cfg)
        grads = {k: np.zeros_like(a) for k, a in params.arrays().items()}
        grads["w_hh"][1, 2] = np.nan
        with pytest.raises(FloatingPointError, match="w_hh"):
            nn.adam_step(params, grads, nn.AdamState.for_params(params), 0.1)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_catch_up_rejected(self):
        params, state = stale_state(np.float64)
        state.m["embedding"][8, 1] = np.nan  # an even row, behind
        with pytest.raises(FloatingPointError, match="embedding"):
            nn.adam_catch_up(params, state)


# --- the row-sparse embedding gradient ----------------------------------------

def dense_embedding_grad(params, idx, lengths, labels):
    """The embedding gradient as a dense scatter-add of each position's
    gradient, in time-major order, with the pad row zeroed.

    A position's gradient is read off a copy of the model whose table gives
    every non-pad position a row of its own (the same vector), so the
    forward and backward arithmetic are the model's own."""
    v = params.config.vocab_size
    steps = int(lengths.max(initial=0))
    ids = idx[:, :steps].T.reshape(-1)
    own = np.where(ids != 0, v + np.arange(len(ids)), 0)
    spread = nn.ModelParams(
        params.config, **{**params.arrays(), "embedding": np.concatenate(
            [params.embedding, params.embedding[ids]])})
    spread_idx = idx.copy()
    spread_idx[:, :steps] = own.reshape(steps, -1).T
    grads, _ = nn.backward(spread, spread_idx, lengths, labels)
    per_position = dense(grads["embedding"], spread.embedding.shape,
                         params.embedding.dtype)[own]
    want = np.zeros_like(params.embedding)
    np.add.at(want, ids, per_position)
    want[0] = 0.0
    return want


class TestRowGrad:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_backward_densifies_to_the_dense_scatter(self, dtype):
        rng = np.random.default_rng(41)
        cfg = tiny_config(V=7, E=3, H=4, T=6)
        params = nn.init_params(cfg, seed=2, dtype=dtype)
        idx, lengths = batch_with_gaps(cfg, rng, 5)
        idx[1:, :2] = 3          # a repeated id in every row
        idx[2, 1] = 0            # the pad id inside a sequence
        lengths[1:] = np.maximum(lengths[1:], 2)
        labels = rng.integers(0, 2, size=5)
        grads, _ = nn.backward(params, idx, lengths, labels)
        g = grads["embedding"]
        steps = lengths.max()
        assert np.array_equal(g.rows, np.unique(idx[:, :steps]))
        assert g.values.dtype == dtype
        assert g.values.shape == (len(g.rows), cfg.embed_dim)
        assert np.array_equal(dense(g, params.embedding.shape, dtype),
                              dense_embedding_grad(params, idx, lengths,
                                                   labels))
        assert np.all(g.values[g.rows == 0] == 0.0)

    def test_all_empty_batch_touches_no_row(self):
        params = random_params(tiny_config(), seed=3)
        idx = np.zeros((2, 5), dtype=np.int64)
        grads, _ = nn.backward(params, idx, np.zeros(2, np.int64),
                               np.array([0, 1]))
        g = grads["embedding"]
        assert g.rows.shape == (0,) and g.values.shape == (0, 3)
        assert np.array_equal(dense(g, (6, 3), np.float64), np.zeros((6, 3)))

    def test_backward_allocates_nothing_table_sized(self):
        import tracemalloc
        cfg = nn.ModelConfig(vocab_size=100_000, embed_dim=16, hidden_dim=4,
                             max_len=8, fc_dropout=0.0)
        params = nn.init_params(cfg, seed=0)
        idx, lengths, labels = random_batch(cfg, np.random.default_rng(2),
                                            batch=4)
        tracemalloc.start()
        try:
            nn.backward(params, idx, lengths, labels)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < params.embedding.nbytes // 10

    def test_adam_matches_the_dense_formula(self):
        # a table of 2.5 slices; the row sets cross slice boundaries, touch
        # the partial last slice and row 0, and one step touches nothing
        per_slice = nn._ADAM_BLOCK // 16
        n_rows = 5 * per_slice // 2 + 3
        cfg = nn.ModelConfig(vocab_size=n_rows, embed_dim=16, hidden_dim=3,
                             num_classes=2, max_len=4)
        rng = np.random.default_rng(13)
        row_sets = [
            [0, per_slice - 1, per_slice, per_slice + 1, n_rows - 1],
            [],
            sorted(rng.choice(n_rows, 300, replace=False)),
            [per_slice - 2, per_slice - 1, 2 * per_slice, 2 * per_slice + 7],
        ]
        for dtype in (np.float32, np.float64):
            params = nn.init_params(cfg, seed=1, dtype=dtype)
            state = nn.AdamState.for_params(params)
            want = {k: a.copy() for k, a in params.arrays().items()}
            m = {k: np.zeros_like(a) for k, a in want.items()}
            v = {k: np.zeros_like(a) for k, a in want.items()}
            for t, rows in enumerate(row_sets, start=1):
                rows = np.array(rows, dtype=np.int64)
                grads = {k: rng.normal(size=a.shape).astype(dtype)
                         for k, a in want.items()}
                grads["embedding"] = nn.RowGrad(rows, rng.normal(
                    size=(len(rows), 16)).astype(dtype))
                full = dense_grads(params, grads)
                nn.adam_step(params, grads, state, lr=0.01)
                for k in want:
                    unblocked_adam_step(want[k], full[k], m[k], v[k], t, 0.01)
                want["embedding"][0] = 0.0
                for k, a in params.arrays().items():
                    assert np.array_equal(a, want[k]), (dtype, t, k)
                    assert np.array_equal(state.m[k], m[k]), (dtype, t, k)
                    assert np.array_equal(state.v[k], v[k]), (dtype, t, k)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_touched_row_rejected_by_backward(self, bad):
        cfg = tiny_config()
        params = random_params(cfg, seed=4)
        idx, lengths, labels = random_batch(cfg, np.random.default_rng(3))
        params.embedding[idx[0, 0]] = bad
        with pytest.raises(FloatingPointError, match="embedding"):
            nn.backward(params, idx, lengths, labels)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_touched_row_rejected_by_adam(self, bad):
        cfg = tiny_config()
        params = nn.init_params(cfg, seed=1)
        grads = {k: np.ones_like(a) for k, a in params.arrays().items()}
        values = np.ones((3, 3))
        values[1, 2] = bad
        grads["embedding"] = nn.RowGrad(np.array([1, 3, 5]), values)
        with pytest.raises(FloatingPointError, match="embedding"):
            nn.adam_step(params, grads, nn.AdamState.for_params(params), 0.1)

    @pytest.mark.parametrize("rows,values_shape", [
        ([1, 2], (3, 3)),        # fewer rows than values
        ([1, 2], (2, 4)),        # values of the wrong width
        ([1, 2], (2,)),          # values of the wrong rank
        ([2, 1], (2, 3)),        # unsorted
        ([1, 1], (2, 3)),        # duplicated
        ([-1, 2], (2, 3)),       # out of range below
        ([1, 6], (2, 3)),        # out of range above
        ([[1, 2]], (1, 3)),      # rows not 1-D
        ([1.0, 2.0], (2, 3)),    # rows not integer
    ])
    def test_malformed_row_gradient_rejected(self, rows, values_shape):
        cfg = tiny_config()  # V = 6, E = 3
        params = random_params(cfg, seed=5)
        before = {k: a.copy() for k, a in params.arrays().items()}
        state = nn.AdamState.for_params(params)
        grads = {k: np.ones_like(a) for k, a in params.arrays().items()}
        grads["embedding"] = nn.RowGrad(np.array(rows), np.ones(values_shape))
        with pytest.raises(ValueError, match="embedding"):
            nn.adam_step(params, grads, state, 0.1)
        assert state.t == 0
        for k, a in params.arrays().items():
            assert np.array_equal(a, before[k]), k

    def test_seeded_training_matches_dense_adam(self):
        from sentimen.train import (EncodedDataset, TrainConfig, batch_iter,
                                    train)
        # a table of 2.5 Adam slices, with dropout drawing from the rng
        cfg = nn.ModelConfig(vocab_size=5 * nn._ADAM_BLOCK // 32, embed_dim=16,
                             hidden_dim=4, max_len=6, fc_dropout=0.5)
        rng = np.random.default_rng(8)
        idx = rng.integers(1, cfg.vocab_size, size=(40, 6))
        lengths = rng.integers(1, 7, size=40)
        for b in range(40):
            idx[b, lengths[b]:] = 0
        ds = EncodedDataset(idx, lengths, np.arange(40) % 2)
        tcfg = TrainConfig(batch_size=8, epochs=2, seed=5, learning_rate=0.01)
        result = train(nn.init_params(cfg, seed=5), ds, None, tcfg)

        want = nn.init_params(cfg, seed=5)
        arrays = want.arrays()
        m = {k: np.zeros_like(a) for k, a in arrays.items()}
        v = {k: np.zeros_like(a) for k, a in arrays.items()}
        drop_rng = stream(tcfg.seed, "dropout")
        t = 0
        for epoch in range(tcfg.epochs):
            for batch in batch_iter(ds, tcfg.batch_size, tcfg.seed, epoch):
                grads, _ = nn.backward(want, batch.indices, batch.lengths,
                                       batch.labels, rng=drop_rng)
                t += 1
                for k, g in dense_grads(want, grads).items():
                    unblocked_adam_step(arrays[k], g, m[k], v[k], t,
                                        tcfg.learning_rate)
                want.embedding[0] = 0.0
        for k, a in result.final_params.arrays().items():
            assert np.array_equal(a, arrays[k]), k


# --- catch-up Adam --------------------------------------------------------------

def stale_state(dtype, vocab=40, embed=4, idle_steps=30):
    """A model and Adam state ``idle_steps`` steps past T0, in which every
    row stepped up to T0 and then only the odd rows did."""
    cfg = nn.ModelConfig(vocab_size=vocab, embed_dim=embed, hidden_dim=2,
                         num_classes=2, max_len=3)
    params = nn.init_params(cfg, seed=3, dtype=dtype)
    state = nn.AdamState.for_params(params)
    rng = np.random.default_rng(5)
    t0, _ = nn._CATCH_UP[np.dtype(dtype)]
    for t in range(t0 + idle_steps):
        rows = np.arange(1, vocab, 1 if t < t0 else 2)
        grads = {k: rng.normal(size=a.shape).astype(dtype)
                 for k, a in params.arrays().items()}
        grads["embedding"] = nn.RowGrad(rows, grads["embedding"][rows])
        nn.adam_step(params, grads, state, 0.01)
    return params, state


class TestCatchUpAdam:
    def test_matches_the_dense_formula(self):
        # groups of 8 rows with gradient scales from 1 (u = eps/sqrt(v)
        # about 3e-7) to 1e-10 (u about 3e3), and a group whose moments are
        # set to m != 0, v = 0 at T0 and never touched again; every fourth
        # row goes idle 20 steps after T0, for more than J steps
        dtype = np.dtype(np.float64)
        t0, span = nn._CATCH_UP[dtype]
        scales = [1.0, 1e-3, 1e-6, 1e-8, 1e-10, 1.0]
        per, e_dim = 8, 3
        cfg = nn.ModelConfig(vocab_size=1 + per * len(scales),
                             embed_dim=e_dim, hidden_dim=2, num_classes=2,
                             max_len=3)
        group = np.repeat(np.arange(len(scales)), per)
        v_zero = 1 + np.flatnonzero(group == len(scales) - 1)
        row_scale = np.concatenate(([1.0], np.array(scales)[group]))
        rng = np.random.default_rng(21)
        params = nn.init_params(cfg, seed=4, dtype=dtype)
        state = nn.AdamState.for_params(params)
        want = {k: a.copy() for k, a in params.arrays().items()}
        m = {k: np.zeros_like(a) for k, a in want.items()}
        v = {k: np.zeros_like(a) for k, a in want.items()}
        rows_all = np.arange(1, cfg.vocab_size)
        mid, steps = t0 + span + 30, t0 + span + 150

        def check():
            nn.adam_catch_up(params, state)
            assert len(state.behind()) == 0
            for g in range(len(scales)):
                sel = 1 + np.flatnonzero(group == g)
                for got, ref in ((params.embedding, want["embedding"]),
                                 (state.m["embedding"], m["embedding"]),
                                 (state.v["embedding"], v["embedding"])):
                    tol = 1e-12 * np.abs(ref[sel]).max()
                    assert np.abs(got[sel] - ref[sel]).max() <= tol, g

        for t in range(1, steps + 1):
            keep = rng.random(len(rows_all)) < (0.5 if t <= t0 + 20 else 0.1)
            if t > t0:
                keep &= ~np.isin(rows_all, v_zero)
            if t > t0 + 20:
                keep &= rows_all % 4 != 0
            rows = rows_all[keep]
            values = rng.normal(size=(len(rows), e_dim)) * row_scale[rows, None]
            grads = {k: rng.normal(size=a.shape) for k, a in want.items()}
            grads["embedding"] = nn.RowGrad(rows, values)
            full = dense_grads(params, grads)
            nn.adam_catch_up(params, state, rows)
            nn.adam_step(params, grads, state, lr=0.01)
            for k in want:
                unblocked_adam_step(want[k], full[k], m[k], v[k], t, 0.01)
            want["embedding"][0] = 0.0
            if t == t0:
                moment = rng.normal(size=(len(v_zero), e_dim)) * 1e-3
                for ms, vs in ((state.m, state.v), (m, v)):
                    ms["embedding"][v_zero] = moment
                    vs["embedding"][v_zero] = 0.0
            if t == mid:
                assert np.all(state.t - state.last[4::4] > span)
                check()
        check()
        for k, a in params.arrays().items():
            tol = 1e-12 * np.abs(want[k]).max()
            assert np.abs(a - want[k]).max() <= tol, k

    def test_step_on_a_row_behind_rejected(self):
        params, state = stale_state(np.float64)
        before = [a.copy() for a in (*params.arrays().values(),
                                     *state.m.values(), *state.v.values(),
                                     state.last, state.live, state.sums)]
        grads = {k: np.ones_like(a) for k, a in params.arrays().items()}
        grads["embedding"] = nn.RowGrad(np.array([1, 2]), np.ones((2, 4)))
        t = state.t
        with pytest.raises(ValueError, match=r"embedding rows \[2\] are behind"):
            nn.adam_step(params, grads, state, 0.01)
        assert state.t == t
        after = [*params.arrays().values(), *state.m.values(),
                 *state.v.values(), state.last, state.live, state.sums]
        for a, b in zip(before, after):
            assert np.array_equal(a, b)

    def test_train_matches_a_manual_catch_up_loop(self, monkeypatch):
        from sentimen.train import (EncodedDataset, TrainConfig, batch_iter,
                                    train)
        cfg = nn.ModelConfig(vocab_size=300, embed_dim=8, hidden_dim=4,
                             max_len=6, fc_dropout=0.5)
        rng = np.random.default_rng(9)
        idx = rng.integers(1, cfg.vocab_size, size=(40, 6))
        lengths = rng.integers(1, 7, size=40)
        for b in range(40):
            idx[b, lengths[b]:] = 0
        ds = EncodedDataset(idx, lengths, np.arange(40) % 2)
        # 70 steps, past float32's T0
        tcfg = TrainConfig(batch_size=4, epochs=7, seed=5, learning_rate=0.01)
        states = []
        for_params = nn.AdamState.for_params
        monkeypatch.setattr(nn.AdamState, "for_params", staticmethod(
            lambda p: states.append(for_params(p)) or states[-1]))
        result = train(nn.init_params(cfg, seed=5, dtype=np.float32), ds,
                       None, tcfg)
        assert states[0].t == 70 and len(states[0].behind()) == 0

        want = nn.init_params(cfg, seed=5, dtype=np.float32)
        state = nn.AdamState.for_params(want)
        drop_rng = stream(tcfg.seed, "dropout")
        most_behind = 0
        for epoch in range(tcfg.epochs):
            for batch in batch_iter(ds, tcfg.batch_size, tcfg.seed, epoch):
                most_behind = max(most_behind, len(state.behind()))
                nn.adam_catch_up(want, state, np.unique(batch.indices))
                grads, _ = nn.backward(want, batch.indices, batch.lengths,
                                       batch.labels, rng=drop_rng)
                nn.adam_step(want, grads, state, tcfg.learning_rate)
            nn.adam_catch_up(want, state)
        assert most_behind > 0
        for k, a in result.final_params.arrays().items():
            assert np.array_equal(a, want.arrays()[k]), k

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_reloaded_state_steps_as_the_running_one(self, tmp_path, dtype):
        # a loaded state keeps window sums only from the step it was built
        # at; stepped on, it moves every row as the state it was saved from
        params, state = stale_state(dtype)
        nn.adam_catch_up(params, state)
        nn.save_checkpoint(tmp_path / "m.bin", params, state)
        loaded, adam = nn.load_checkpoint(tmp_path / "m.bin")
        copy = nn.ModelParams(loaded.config, **{
            k: a.copy() for k, a in loaded.arrays().items()})
        assert adam.first == state.t and len(adam.sums) == 1
        rng = np.random.default_rng(8)
        for t in range(40):
            rows = np.arange(1 + t % 3, len(params.embedding), 3)
            grads = {k: rng.normal(size=a.shape).astype(dtype)
                     for k, a in params.arrays().items()}
            grads["embedding"] = nn.RowGrad(rows, grads["embedding"][rows])
            for p, st in ((params, state), (copy, adam)):
                nn.adam_catch_up(p, st, rows)
                nn.adam_step(p, grads, st, 0.01)
        for p, st in ((params, state), (copy, adam)):
            nn.adam_catch_up(p, st)
        for k, a in params.arrays().items():
            assert np.array_equal(a, copy.arrays()[k]), k
            assert np.array_equal(state.m[k], adam.m[k]), k
            assert np.array_equal(state.v[k], adam.v[k]), k

    def test_catch_up_memory_is_block_bounded(self):
        import tracemalloc
        peaks = []
        for n_rows in (8 * nn._ADAM_BLOCK // 64, 32 * nn._ADAM_BLOCK // 64):
            cfg = nn.ModelConfig(vocab_size=n_rows, embed_dim=64,
                                 hidden_dim=2, max_len=3)
            params = nn.init_params(cfg, seed=1)
            rng = np.random.default_rng(2)
            t0, _ = nn._CATCH_UP[params.embedding.dtype]
            state = nn.AdamState(
                m={k: rng.normal(size=a.shape)
                   for k, a in params.arrays().items()},
                v={k: rng.random(a.shape) for k, a in params.arrays().items()},
                t=t0)
            state.t += 10  # every row 10 steps behind
            tracemalloc.start()
            try:
                nn.adam_catch_up(params, state)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert len(state.behind()) == 0
            peaks.append(peak)
        # a block's temporaries, not the table's: the 4V-row table's pass
        # peaks where the V-row one does, below a quarter of its own size
        assert peaks[1] < 1.1 * peaks[0]
        assert peaks[1] < params.embedding.nbytes // 4

    def test_checkpoint_of_a_state_behind_rejected(self, tmp_path):
        params, state = stale_state(np.float32)
        with pytest.raises(ValueError, match="behind"):
            nn.save_checkpoint(tmp_path / "m.bin", params, state)
        nn.adam_catch_up(params, state)
        nn.save_checkpoint(tmp_path / "m.bin", params, state)
        _, loaded = nn.load_checkpoint(tmp_path / "m.bin")
        assert loaded.t == state.t and len(loaded.behind()) == 0
        assert np.array_equal(loaded.live, state.live)


class TestPredictBatch:
    def test_labels_match_one_at_a_time(self, pp_cfg, monkeypatch):
        from conftest import NEGATIVE_TEXTS, POSITIVE_TEXTS
        from sentimen.preprocess import run_pipeline
        from sentimen.vocab import build_vocab, encode

        texts = POSITIVE_TEXTS + NEGATIVE_TEXTS + ["@user http://x.co 123 !!"]
        docs = [run_pipeline(t, pp_cfg) for t in texts]
        assert docs[-1] == [] and len({len(d) for d in docs}) > 3
        vocab = build_vocab(docs[::2])  # out-of-vocabulary tokens too
        indices, lengths = encode(docs, vocab, 6)
        cfg = tiny_config(V=vocab.size, E=4, H=5, T=6)
        monkeypatch.setattr(nn, "_PREDICT_BATCH", 4)  # several sorted batches
        for seed in range(5):
            params = random_params(cfg, seed=seed, bias_scale=1.0)
            batched = nn.predict_encoded(params, indices, lengths)
            assert len(batched) == len(docs)
            for k, got in enumerate(batched):
                one = nn.predict_encoded(params, indices[k:k + 1],
                                         lengths[k:k + 1])[0]
                logits = nn.forward_logits(params, indices[k:k + 1],
                                           lengths[k:k + 1])
                label = (int(np.argmax(nn.softmax(logits[0])))
                         if lengths[k] else 0)
                assert got.label == one.label == label
                assert got.low_confidence == one.low_confidence == \
                    (lengths[k] == 0)
                assert np.allclose(got.probabilities, one.probabilities,
                                   rtol=0, atol=1e-12)

    def test_empty_input(self):
        params = nn.init_params(tiny_config())
        empty = np.zeros((0, params.config.max_len), dtype=np.int64)
        assert nn.predict_encoded(params, empty, np.zeros(0, np.int64)) == []


# --- read-only, forward-ready loaded models --------------------------------------

def loaded_model(tmp_path, dtype, adam=False,
                 cfg=tiny_config(V=30, E=6, H=5, T=7)):
    """(loaded params, a writable copy of its arrays, the checkpoint path)
    for a random model with non-zero biases."""
    params = random_params(cfg, seed=8)
    params = nn.ModelParams(cfg, **{k: a.astype(dtype)
                                    for k, a in params.arrays().items()})
    state = None
    if adam:
        state = nn.AdamState.for_params(params)
        state.t = 3
        for k, a in params.arrays().items():
            state.m[k][...] = a * 0.5
            state.v[k][...] = a * a
    path = tmp_path / "m.bin"
    nn.save_checkpoint(path, params, state)
    loaded, _ = nn.load_checkpoint(path)
    copy = nn.ModelParams(loaded.config, **{k: a.copy() for k, a in
                                            loaded.arrays().items()})
    return loaded, copy, path


class TestReadOnlyModel:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_every_array_read_only_and_writes_raise(self, tmp_path, dtype):
        loaded, copy, _ = loaded_model(tmp_path, dtype)
        assert loaded.read_only() and not copy.read_only()
        for name, arr in [*loaded.arrays().items(),
                          *enumerate(loaded.forward_ready)]:
            assert not arr.flags.writeable, name
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                arr += 1.0

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_forward_ready_weights_exact_and_contiguous(self, tmp_path, dtype):
        loaded, copy, _ = loaded_model(tmp_path, dtype)
        assert "forward_ready" in vars(loaded)  # computed by load_checkpoint
        scale = nn._gate_affine(loaded.config.hidden_dim, np.dtype(dtype))[0]
        w_ih_t, w_hh_t, bias = loaded.forward_ready
        for got, want in ((w_ih_t, scale * loaded.w_ih.T),
                          (w_hh_t, scale * loaded.w_hh.T),
                          (bias, scale * (loaded.b_ih + loaded.b_hh))):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want)
            assert got.flags.c_contiguous
        assert not np.array_equal(w_ih_t, loaded.w_ih.T)
        assert not np.array_equal(bias, scale * loaded.b_ih)
        # a writable copy computes the same arrays, in the same layout
        for got, want in zip(nn._forward_weights(copy), loaded.forward_ready,
                             strict=True):
            assert got.flags.c_contiguous and got.dtype == want.dtype
            assert np.array_equal(got, want)
        # the matrices start on a cache line, whatever numpy's allocator did
        for model in (loaded, copy):
            for w in nn._forward_weights(model)[:2]:
                assert w.ctypes.data % nn._CACHE_LINE == 0

    def test_trainable_model_never_gets_cached_weights(self):
        from sentimen.train import EncodedDataset, TrainConfig, train
        cfg = tiny_config(V=12, E=3, H=4, T=5)
        params = random_params(cfg, seed=2)
        rng = np.random.default_rng(4)
        for batch in (1, 2, 3, 16):
            idx, lengths, labels = random_batch(cfg, rng, batch)
            nn.forward_logits(params, idx, lengths)
            nn.predict_encoded(params, idx, lengths)
            grads, _ = nn.backward(params, idx, lengths, labels)
            nn.adam_step(params, grads, nn.AdamState.for_params(params), 0.01)
        idx, lengths, labels = random_batch(cfg, rng, 12)
        ds = EncodedDataset(idx, lengths, labels)
        result = train(params, ds, ds, TrainConfig(batch_size=4, epochs=2))
        for model in (params, result.final_params, result.best_params):
            assert not model.read_only()
            assert "forward_ready" not in vars(model)

    # fixed lengths, then numbers of random rows with every fifth left empty
    @pytest.mark.parametrize("case", [(1,), (2,), (1, 2), (3,), (9,), (4, 0),
                                      (5, 9), (9, 9), 1, 2, 3, 16, 256],
                             ids=lambda c: f"rows{c}" if isinstance(c, int)
                             else "lengths" + "_".join(map(str, c)))
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_identical_to_a_writable_copy(self, tmp_path, case, dtype):
        loaded, copy, _ = loaded_model(tmp_path, dtype,
                                       cfg=tiny_config(V=60, E=32, H=128, T=9))
        cfg = loaded.config
        rng = np.random.default_rng(case if isinstance(case, int)
                                    else 1000 + sum(case))
        for _ in range(50):
            if isinstance(case, int):
                idx, lengths, _ = random_batch(cfg, rng, case)
                lengths[4::5] = 0
            else:
                lengths = np.array(case)
                idx = rng.integers(1, cfg.vocab_size,
                                   size=(len(lengths), cfg.max_len))
                for b, n in enumerate(lengths):
                    idx[b, n:] = 0
            got = nn.forward_logits(loaded, idx, lengths)
            assert got.dtype == dtype
            assert np.array_equal(got, nn.forward_logits(copy, idx, lengths))
            for a, b in zip(nn.predict_encoded(loaded, idx, lengths),
                            nn.predict_encoded(copy, idx, lengths),
                            strict=True):
                assert np.array_equal(a.probabilities, b.probabilities)
                assert (a.label, a.low_confidence) == \
                    (b.label, b.low_confidence)

    @pytest.mark.parametrize("with_adam", [False, True])
    def test_checkpoint_saved_from_a_loaded_model_round_trips(self, tmp_path,
                                                              with_adam):
        loaded, _, path = loaded_model(tmp_path, np.float32, adam=with_adam)
        _, adam = nn.load_checkpoint(path)
        nn.save_checkpoint(tmp_path / "again.bin", loaded, adam)
        assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()

    def test_adam_step_rejects_a_loaded_model_before_any_change(self,
                                                                tmp_path):
        loaded, _, path = loaded_model(tmp_path, np.float64, adam=True)
        _, state = nn.load_checkpoint(path)
        before = {k: (state.m[k].copy(), state.v[k].copy()) for k in state.m}
        grads = {k: np.ones_like(a) for k, a in loaded.arrays().items()}
        with pytest.raises(ValueError, match="read-only"):
            nn.adam_step(loaded, grads, state, 0.01)
        assert state.t == 3
        for k, (m, v) in before.items():
            assert np.array_equal(state.m[k], m) and np.array_equal(state.v[k], v)

    def test_adam_catch_up_rejects_a_read_only_model_before_any_change(self):
        params, state = stale_state(np.float64)
        behind = state.behind()
        assert len(behind)
        for a in params.arrays().values():
            a.flags.writeable = False
        want = [a.copy() for a in (state.m["embedding"], state.v["embedding"],
                                   state.last)]
        with pytest.raises(ValueError, match="read-only"):
            nn.adam_catch_up(params, state)
        assert np.array_equal(state.behind(), behind)
        for got, a in zip((state.m["embedding"], state.v["embedding"],
                           state.last), want):
            assert np.array_equal(got, a)


# --- the unscaled forward pass, as the prescaled one's oracle -------------------

def _unscaled_forward_ready(params):
    """The forward-ready weights as they were before the gates'
    pre-activation scale moved into them."""
    return (np.ascontiguousarray(params.w_ih.T),
            np.ascontiguousarray(params.w_hh.T), params.b_ih + params.b_hh)


# _lstm_forward_batch is a verbatim copy of the forward pass that scaled the
# pre-activations per step (``a *= scale``), save that its weights, on
# loaded and trainable models alike, come from _unscaled_forward_ready, so
# every batch size steps on contiguous copies of w_ih.T and w_hh.T.

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
    prefix of live rows each step updates in place.  The weights come
    from ``_unscaled_forward_ready``.
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
    w_ih_t, w_hh_t, bias = _unscaled_forward_ready(params)
    gates = x @ w_ih_t                       # (P, 4H)
    gates += bias
    gate4 = gates.reshape(n_pos, 4, h_dim)
    scale, shift = _gate_affine(h_dim, dtype)

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


def oracle_logits(params, idx, lengths):
    h_final = _lstm_forward_batch(params, idx, lengths,
                                  for_backward=False)["h_final"]
    return h_final @ params.w_out.T + params.b_out


class TestPrescaledGatesExact:
    """Scaling the gate weights by powers of two commutes with every
    rounding of the forward pass, so its outputs equal the oracle's bit
    for bit, on loaded and trainable models alike."""

    @staticmethod
    def models(tmp_path, dtype):
        cfg = tiny_config(V=60, E=32, H=128, T=9)
        params = random_params(cfg, seed=3, bias_scale=1.0)
        params = nn.ModelParams(cfg, **{k: a.astype(dtype)
                                        for k, a in params.arrays().items()})
        nn.save_checkpoint(tmp_path / "m.bin", params)
        loaded, _ = nn.load_checkpoint(tmp_path / "m.bin")
        return {"loaded": loaded, "trainable": params}

    # 5 and 255 rows leave a remainder that OpenBLAS's GEMM computes with
    # another kernel, so a head over reordered rows would differ there
    @pytest.mark.parametrize("rows", [1, 2, 3, 5, 16, 255, 256])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_logits_and_predictions_equal_the_oracle(self, tmp_path, rows,
                                                     dtype):
        rng = np.random.default_rng(100 + rows)
        for kind, params in self.models(tmp_path, dtype).items():
            assert params.read_only() == (kind == "loaded")
            idx, lengths, _ = random_batch(params.config, rng, rows)
            lengths[1::3] = 0  # rows left empty by preprocessing
            got = nn.forward_logits(params, idx, lengths)
            assert got.dtype == dtype
            assert np.array_equal(got, oracle_logits(params, idx, lengths)), kind
            want = nn.softmax(length_sorted_logits(oracle_logits, params, idx,
                                                   lengths))
            preds = nn.predict_encoded(params, idx, lengths)
            assert np.array_equal([p.probabilities for p in preds], want), kind
            assert [int(p.label) for p in preds] == \
                np.where(lengths > 0, want.argmax(axis=1), 0).tolist()
            assert [p.low_confidence for p in preds] == (lengths == 0).tolist()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_training_forward_cache_equals_the_oracle(self, tmp_path, dtype):
        params = self.models(tmp_path, dtype)["trainable"]
        rng = np.random.default_rng(7)
        for rows in (1, 2, 3, 16):
            idx, lengths, _ = random_batch(params.config, rng, rows)
            got = nn._lstm_forward_batch(params, idx, lengths)
            want = _lstm_forward_batch(params, idx, lengths)
            for key in ("gates", "h", "c", "tanh_c", "h_final"):
                assert np.array_equal(got[key], want[key]), (rows, key)
            assert np.array_equal(final_c(got), want["c_final"]), rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_all_rows_empty_and_no_rows(self, tmp_path, dtype):
        for params in self.models(tmp_path, dtype).values():
            T = params.config.max_len
            for rows in (0, 1, 3):
                idx = np.zeros((rows, T), dtype=np.int64)
                lengths = np.zeros(rows, dtype=np.int64)
                assert np.array_equal(nn.forward_logits(params, idx, lengths),
                                      oracle_logits(params, idx, lengths))
                preds = nn.predict_encoded(params, idx, lengths)
                assert len(preds) == rows
                assert all(p.low_confidence for p in preds)
