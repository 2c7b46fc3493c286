"""Committed mutation checks: each mutant is a small fault that named tests
must catch.

Each entry of ``MUTANTS`` names a file under the repository root, an old
text that must occur in it exactly once, the new text that replaces it,
and the pytest node ids that must fail once it is applied.  The runner
copies ``src/``, ``tests/``, ``perfbench/`` (some tests load its corpus
generator, and a mutant may name its smoke test), ``BENCHMARK.json``
(which that smoke test reads at import) and ``pyproject.toml`` (whose
pytest ``pythonpath`` points at ``src/``) to a temporary directory,
applies one mutant there, and runs the named tests against the copy.  A mutant is killed when every named test
fails; an old text that does not occur exactly once is an error, never a
pass.

    python tools/mutants.py            # run every mutant
    python tools/mutants.py NAME ...   # run the named ones

Exit status 0 when every mutant run is killed, 1 otherwise.  Tier-1 only
checks that every entry still applies and that every test it names is
collected (``tests/test_mutants.py``); the runs themselves, one pytest
process per mutant, stay out of it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "BENCHMARK.json", "pyproject.toml")


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str              # relative to the repository root
    old: str
    new: str
    tests: tuple[str, ...]  # pytest node ids that must fail


MUTANTS = (
    Mutant("weighted_loss_divides_by_batch", "src/sentimen/nn.py",
           "    d_logits /= total\n",
           "    d_logits /= len(labels)\n",
           ("tests/test_train.py::TestWeightedLoss::test_analytic_scaling",)),
    Mutant("batches_in_corpus_order", "src/sentimen/train.py",
           '    order = stream(seed, "shuffle", epoch_index).permutation(n)\n',
           "    order = np.arange(n)\n",
           ("tests/test_train.py::TestBatchIter::test_different_epoch_differs",)),
    Mutant("naive_bayes_half_smoothing", "src/sentimen/baselines.py",
           "word_counts + 1.0", "word_counts + 0.5",
           ("tests/test_baselines.py::TestNaiveBayes::"
            "test_hand_computed_posterior",)),
    Mutant("decode_without_lower_bound", "src/sentimen/vocab.py",
           "if not 0 <= idx < vocab.size:", "if idx >= vocab.size:",
           ("tests/test_vocab.py::TestDecode::test_out_of_range_rejected",)),
    Mutant("predict_max_len_zero_falls_back", "src/sentimen/nn.py",
           "params.config.max_len if max_len is None else max_len",
           "max_len or params.config.max_len",
           ("tests/test_nn.py::TestPredict::"
            "test_non_positive_max_len_rejected[0]",)),
    Mutant("svm_step_without_t1_guard", "src/sentimen/baselines.py",
           "            if t > 1:\n"
           "                scale *= 1.0 - eta * lam\n",
           "            scale *= 1.0 - eta * lam\n",
           ("tests/test_baselines.py::TestMatrixAgainstPerDocumentOracle::"
            "test_hinge_small_corpora[docs0-labels0-1]",
            "tests/test_text_oracle.py::test_fits_on_random_corpus[hinge-1-0]")),
    Mutant("vocab_frequency_ascending", "src/sentimen/vocab.py",
           "kept.sort(key=freq.__getitem__, reverse=True)",
           "kept.sort(key=freq.__getitem__)",
           ("tests/test_vocab.py::TestBuildVocab::test_hand_enumeration",
            "tests/test_text_oracle.py::test_seed3_build_vocab[1]")),
    Mutant("leftover_by_share_not_remainder", "src/sentimen/ingest.py",
           "key=lambda j: -(exact[j] - sizes[j]))",
           "key=lambda j: -(exact[j] + sizes[j]))",
           ("tests/test_ingest.py::TestLargestRemainder::"
            "test_leftover_follows_the_remainder_not_the_share[10-sizes0]",
            "tests/test_ingest.py::TestLargestRemainder::"
            "test_leftover_follows_the_remainder_not_the_share[5629-sizes1]",
            "tests/test_ingest.py::TestLargestRemainder::"
            "test_leftover_follows_the_remainder_not_the_share[790-sizes2]")),
    Mutant("load_csv_without_short_row_padding", "src/sentimen/ingest.py",
           "                if len(row) < width:  # missing cells read as empty\n"
           "                    row += [\"\"] * (width - len(row))\n",
           "",
           ("tests/test_text_oracle.py::test_load_csv_edge_cases[short_rows]",
            "tests/test_text_oracle.py::test_load_csv_edge_cases[duplicate_name]")),
    Mutant("csv_field_misses_carriage_return", "src/sentimen/ingest.py",
           '''    if "," in cell or '"' in cell or "\\r" in cell or "\\n" in cell:\n''',
           '''    if "," in cell or '"' in cell or "\\n" in cell:\n''',
           ("tests/test_text_oracle.py::test_save_csv_bytes",
            "tests/test_text_oracle.py::test_save_csv_round_trip")),
    Mutant("csv_quotes_not_doubled", "src/sentimen/ingest.py",
           '''        return '"' + cell.replace('"', '""') + '"'\n''',
           '''        return '"' + cell + '"'\n''',
           ("tests/test_text_oracle.py::test_save_csv_bytes",
            "tests/test_text_oracle.py::test_save_csv_round_trip")),
    Mutant("logistic_gradient_without_l2", "src/sentimen/baselines.py",
           "    return l2 * w + x.rmatvec(s), float(s.sum())",
           "    return x.rmatvec(s), float(s.sum())",
           ("tests/test_baselines.py::TestLinearModels::"
            "test_logistic_gradient_matches_finite_differences",
            "tests/test_text_oracle.py::test_logistic_loss_and_grad")),
    Mutant("corpus_error_not_bad_input", "src/sentimen/cli.py",
           "    except (CliError, ingest.CorpusError, FloatingPointError, "
           "ValueError,\n",
           "    except (CliError, FloatingPointError, ValueError,\n",
           ("tests/test_cli.py::TestPreprocessCommand::"
            "test_bad_row_strict_vs_lenient",
            "tests/test_cli.py::test_csv_field_over_size_limit_exit_2[train]")),
    Mutant("every_fetch_error_exit_2", "src/sentimen/cli.py",
           "        return (EXIT_BAD_INPUT if isinstance(exc, "
           "youtube.InvalidUrlError)\n"
           "                else EXIT_EXTERNAL)\n",
           "        return EXIT_BAD_INPUT\n",
           ("tests/test_cli.py::TestFetchCommand::test_bad_key_exit_3_no_file",
            "tests/test_cli.py::TestFetchCommand::"
            "test_malformed_body_exit_3[{\"items\": [\"x\"]}]")),
    Mutant("model_config_allows_zero", "src/sentimen/nn.py",
           "            if getattr(self, name) < 1:\n",
           "            if getattr(self, name) < 0:\n",
           ("tests/test_nn.py::TestCountParameters::test_rejects_zero_dims",
            "tests/test_cli.py::test_bad_model_file_exit_2_naming_it["
            "hidden_dim_zero-evaluate]")),
    Mutant("load_model_without_class_check", "src/sentimen/cli.py",
           "    if params.config.num_classes != len(ingest.Label):\n"
           "        raise CliError(f\"{ckpt}: bad checkpoint: "
           "{params.config.num_classes} \"\n"
           "                       f\"classes, expected {len(ingest.Label)}\")\n",
           "",
           ("tests/test_cli.py::test_bad_model_file_exit_2_naming_it["
            "three_classes-evaluate]",
            "tests/test_cli.py::test_bad_model_file_exit_2_naming_it["
            "three_classes-predict]")),
    Mutant("memo_key_without_slang_map", "src/sentimen/preprocess.py",
           "            frozenset(slang.items()), stopwords, roots))",
           "            frozenset(), stopwords, roots))",
           ("tests/test_preprocess.py::TestWordMemo::"
            "test_other_dictionaries_never_share_entries[slang-value0-tokens0]",)),
    Mutant("translate_table_keeps_digits", "src/sentimen/preprocess.py",
           "if _NON_LETTER_RE.match(chr(c)))",
           "if _NON_LETTER_RE.match(chr(c))\n"
           "                           and not chr(c).isdigit())",
           ("tests/test_preprocess.py::TestClean::test_digits_stripped_in_place",
            "tests/test_preprocess.py::TestClean::"
            "test_ascii_translate_matches_regex_per_character")),
    Mutant("predict_chunk_printed_in_reverse", "src/sentimen/cli.py",
           "        for pred in nn.predict_encoded(params, *encoded):\n",
           "        for pred in reversed(nn.predict_encoded(params, *encoded)):\n",
           ("tests/test_cli.py::TestPredictCommand::"
            "test_chunks_match_per_line_predict",)),
    # the numeric gates: c04 gradients, c05 padding, c09 seeded streams,
    # the embedding gradient's summation order and Adam's bias correction
    Mutant("candidate_gate_derivative_sign", "src/sentimen/nn.py",
           "    np.multiply(i, 1.0 - g * g, out=d4[:, 2])\n",
           "    np.multiply(i, g * g - 1.0, out=d4[:, 2])\n",
           ("tests/test_acceptance.py::"
            "test_c04_gradient_correctness_20_random_models",)),
    Mutant("pad_position_reaches_h_final", "src/sentimen/nn.py",
           "    lengths = np.minimum(np.maximum(lengths, 0), indices.shape[1])\n",
           "    lengths = np.minimum(np.maximum(lengths, 0) + 1, "
           "indices.shape[1])\n",
           ("tests/test_acceptance.py::test_c05_masking_equivalence_100_cases",)),
    Mutant("shuffle_and_dropout_streams_swapped", "src/sentimen/seeds.py",
           '"dropout": 2, "svm": 3,\n           "init": 4, "shuffle": 5}',
           '"dropout": 5, "svm": 3,\n           "init": 4, "shuffle": 2}',
           ("tests/test_seeds.py::test_kept_ids_draw_as_two_word_keys[0]",
            "tests/test_seeds.py::test_kept_ids_draw_as_two_word_keys[3]")),
    Mutant("init_stream_shares_split", "src/sentimen/seeds.py",
           '"init": 4,', '"init": 0,',
           ("tests/test_seeds.py::test_every_stream_is_distinct[0]",
            "tests/test_seeds.py::test_every_stream_is_distinct[4294967301]")),
    Mutant("shuffle_stream_shares_split", "src/sentimen/seeds.py",
           '"shuffle": 5}', '"shuffle": 1}',
           ("tests/test_seeds.py::test_every_stream_is_distinct[0]",
            "tests/test_seeds.py::test_every_stream_is_distinct[4294967301]")),
    Mutant("row_grad_summed_in_reverse", "src/sentimen/nn.py",
           '    by_row = np.argsort(slot, kind="stable")\n',
           '    by_row = len(slot) - 1 - np.argsort(slot[::-1], kind="stable")\n',
           ("tests/test_nn.py::TestRowGrad::"
            "test_backward_densifies_to_the_dense_scatter[float32]",)),
    Mutant("adam_without_bias_correction", "src/sentimen/nn.py",
           "    bc1 = 1.0 - b1 ** t\n    bc2 = 1.0 - b2 ** t\n",
           "    bc1 = bc2 = 1.0\n",
           ("tests/test_nn.py::TestAdam::test_first_step_hand_value",
            "tests/test_nn.py::TestBlockedAdam::"
            "test_bit_identical_to_unblocked_formula")),
    # the prescaled weights, one formula for loaded and trainable models
    # alike, so only the per-step oracle and the benchmark's own check of
    # the nn.predict calls it times can catch a fault in them: the fused
    # bias, the transposes and the gates' pre-activation scale
    Mutant("forward_ready_bias_without_b_hh", "src/sentimen/nn.py",
           "            scale * (params.b_ih + params.b_hh))\n",
           "            scale * params.b_ih)\n",
           ("tests/test_nn.py::TestPrescaledGatesExact::"
            "test_logits_and_predictions_equal_the_oracle[float32-16]",
            "tests/test_nn.py::TestPrescaledGatesExact::"
            "test_logits_and_predictions_equal_the_oracle[float64-256]")),
    Mutant("forward_ready_w_ih_untransposed", "src/sentimen/nn.py",
           "    return (np.multiply(params.w_ih.T, scale,\n",
           "    return (np.multiply(params.w_ih.reshape(params.w_ih.shape[::-1]),"
           " scale,\n",
           ("perfbench/test_smoke.py::test_quick_run_is_correct_and_well_formed"
            "[infer_paper-0]",
            "tests/test_nn.py::TestPrescaledGatesExact::"
            "test_training_forward_cache_equals_the_oracle[float32]")),
    Mutant("forward_ready_w_hh_reshaped", "src/sentimen/nn.py",
           "            np.multiply(params.w_hh.T, scale,\n",
           "            np.multiply(params.w_hh.reshape(params.w_hh.shape[::-1]),"
           " scale,\n",
           ("perfbench/test_smoke.py::test_quick_run_is_correct_and_well_formed"
            "[infer_paper-0]",
            "tests/test_nn.py::TestPrescaledGatesExact::"
            "test_logits_and_predictions_equal_the_oracle[float32-3]")),
    Mutant("forward_ready_w_hh_unscaled", "src/sentimen/nn.py",
           "            np.multiply(params.w_hh.T, scale,\n",
           "            np.multiply(params.w_hh.T, 1,\n",
           ("tests/test_nn.py::TestPrescaledGatesExact::"
            "test_logits_and_predictions_equal_the_oracle[float32-16]",
            "tests/test_nn.py::TestPrescaledGatesExact::"
            "test_logits_and_predictions_equal_the_oracle[float64-256]")),
    Mutant("trainable_gates_unscaled", "src/sentimen/nn.py",
           "    return (np.multiply(params.w_ih.T, scale,\n",
           "    return (np.multiply(params.w_ih.T, 1,\n",
           ("tests/test_nn.py::TestPrescaledGatesExact::"
            "test_logits_and_predictions_equal_the_oracle[float32-1]",
            "tests/test_nn.py::TestPrescaledGatesExact::"
            "test_training_forward_cache_equals_the_oracle[float64]")),
    # a trainable model that reads w_ih.T through the transposed view again:
    # one or two positions then run a GEMV with other bits than a loaded
    # model's
    Mutant("trainable_w_ih_view", "src/sentimen/nn.py",
           "        return params.forward_ready\n"
           "    return _prescaled_weights(params)\n",
           "        return params.forward_ready\n"
           "    scale = _gate_affine(params.config.hidden_dim, "
           "params.w_hh.dtype)[0]\n"
           "    _, w_hh_t, bias = _prescaled_weights(params)\n"
           "    return (params.w_ih * scale[:, None]).T, w_hh_t, bias\n",
           ("tests/test_nn.py::TestReadOnlyModel::"
            "test_bit_identical_to_a_writable_copy[float32-lengths1]",
            "tests/test_nn.py::TestReadOnlyModel::"
            "test_bit_identical_to_a_writable_copy[float64-lengths1]")),
    # batched inference: the per-batch projection table of the inference
    # pass, and the threads that run the length-sorted batches (none for
    # one worker)
    Mutant("inference_table_one_row_gemv", "src/sentimen/nn.py",
           "        if n_pos > 1 and len(uniq) == 1:",
           "        if False:",
           ("tests/test_nn.py::TestPackedLayout::"
            "test_inference_table_is_exact[float32]",
            "tests/test_nn.py::TestPackedLayout::"
            "test_inference_table_is_exact[float64]")),
    Mutant("inference_table_rows_by_id", "src/sentimen/nn.py",
           "            np.take(table, inv[off:off + n], axis=0, out=gates[:n],\n",
           "            np.take(table, ids[off:off + n], axis=0, out=gates[:n],\n",
           ("tests/test_nn.py::TestPackedLayout::"
            "test_inference_table_is_exact[float32]",
            "tests/test_nn.py::TestPackedLayout::"
            "test_inference_table_is_exact[float64]")),
    # the one-row recurrence of a single prediction
    Mutant("one_row_without_length_clamp", "src/sentimen/nn.py",
           "    n = min(max(int(length), 0), len(row))\n",
           "    n = int(length)\n",
           ("tests/test_batch_threads.py::test_one_row_runs_as_given[float32]",
            "tests/test_batch_threads.py::test_one_row_runs_as_given[float64]")),
    Mutant("one_row_without_recurrence_at_step_1", "src/sentimen/nn.py",
           "        if t:\n"
           "            a += h @ w_hh_t\n",
           "        if t > 1:\n"
           "            a += h @ w_hh_t\n",
           ("tests/test_batch_threads.py::test_one_row_runs_as_given[float32]",
            "tests/test_batch_threads.py::test_one_row_runs_as_given[float64]")),
    Mutant("helper_batch_dropped", "src/sentimen/nn.py",
           "        run()\n    for helper in helpers:\n",
           "        run()\n    logits[longest_first[0]] = 0\n"
           "    for helper in helpers:\n",
           ("tests/test_batch_threads.py::"
            "test_threads_match_one_batch_at_a_time[float32]",
            "tests/test_batch_threads.py::"
            "test_probabilities_match_the_float64_reference[float64-1e-12]")),
    Mutant("helper_exception_swallowed", "src/sentimen/nn.py",
           "        helper.result()\n",
           "        helper.exception()\n",
           ("tests/test_batch_threads.py::"
            "test_helper_exception_reaches_the_caller[predict_encoded]",
            "tests/test_batch_threads.py::"
            "test_helper_exception_reaches_the_caller[evaluate_split]")),
    # a pool thread beside the calling thread even for one worker
    Mutant("pool_for_one_worker", "src/sentimen/nn.py",
           "    if workers == 1:\n        run()\n        return logits\n",
           "    workers = max(workers, 2)\n",
           ("tests/test_batch_threads.py::"
            "test_unset_blas_threads_start_no_thread",
            "tests/test_batch_threads.py::"
            "test_one_row_and_one_batch_start_no_thread")),
    # float32 losses summed in float64 are often exact in any order, so
    # only float64 tests see the order of the validation loss sum
    Mutant("validation_loss_summed_whole", "src/sentimen/train.py",
           "    total_loss = 0.0\n"
           "    for sel in nn.length_sorted_batches(ds.lengths):\n"
           "        losses = nn.row_cross_entropy(logits[sel], "
           "ds.labels[sel])\n"
           "        total_loss += float(losses.sum(dtype=np.float64))\n",
           "    total_loss = float(nn.row_cross_entropy(logits, ds.labels)"
           ".sum(dtype=np.float64))\n",
           ("tests/test_batch_threads.py::"
            "test_threads_match_one_batch_at_a_time[float64]",)),
    # faults the benchmark's own output checks must report (perfbench/
    # checks.py): train_paper compares history.csv's last val_loss with the
    # reference LSTM's on the checkpoint, and text_baselines checks every
    # stem against the golden file and roots, and each baseline's accuracy
    # against the reference model's
    Mutant("inference_logits_without_output_bias", "src/sentimen/nn.py",
           "    return h_final @ params.w_out.T + params.b_out\n",
           "    return h_final @ params.w_out.T\n",
           ("perfbench/test_smoke.py::test_quick_run_is_correct_and_well_formed"
            "[train_paper-0]",)),
    Mutant("stemmer_keeps_possessive_nya", "src/sentimen/stemmer.py",
           '("nya", "ku", "mu")', '("ku", "mu")',
           ("perfbench/test_smoke.py::test_quick_run_is_correct_and_well_formed"
            "[text_baselines-0]",)),
    Mutant("naive_bayes_without_priors", "src/sentimen/baselines.py",
           "        return self.log_priors + np.stack(\n",
           "        return np.stack(\n",
           ("perfbench/test_smoke.py::test_quick_run_is_correct_and_well_formed"
            "[text_baselines-0]",)),
    # catch-up Adam: the moment decay, the window sums (kept from the step
    # the state was built at), the live-row phase before T0 and the series
    # pivot
    Mutant("catch_up_decays_m_one_step_short", "src/sentimen/nn.py",
           "        m[r] = mb * ADAM_BETA1 ** k\n",
           "        m[r] = mb * ADAM_BETA1 ** (k - 1)\n",
           ("tests/test_nn.py::TestCatchUpAdam::"
            "test_matches_the_dense_formula",)),
    Mutant("window_terms_one_window_off", "src/sentimen/nn.py",
           "        state.sums[s - state.first] += terms\n",
           "        state.sums[s - state.first - 1] += terms\n",
           ("tests/test_nn.py::TestCatchUpAdam::"
            "test_matches_the_dense_formula",)),
    Mutant("windows_before_first_kept", "src/sentimen/nn.py",
           "        s = np.arange(max(t0, state.first, t - span), t)\n",
           "        s = np.arange(max(t0, t - span), t)\n",
           ("tests/test_nn.py::TestCatchUpAdam::"
            "test_reloaded_state_steps_as_the_running_one[float32]",
            "tests/test_nn.py::TestCatchUpAdam::"
            "test_reloaded_state_steps_as_the_running_one[float64]")),
    Mutant("no_live_row_phase", "src/sentimen/nn.py",
           "    if t <= t0:\n"
           "        idle = np.setdiff1d(np.flatnonzero(state.live), emb.rows,\n"
           "                            assume_unique=True)\n"
           "        _step_rows(params, state, idle, None, lr, bc1, bc2)\n"
           "        state.last[:] = t\n",
           "",
           ("tests/test_nn.py::TestCatchUpAdam::"
            "test_matches_the_dense_formula",
            "tests/test_nn.py::TestRowGrad::test_adam_matches_the_dense_formula")),
    Mutant("pivot_at_window_start", "src/sentimen/nn.py",
           "    return (_window_c(s, 1) + _window_c(s, _PIVOT_STEPS)) / 2\n",
           "    return _window_c(s, 1)\n",
           ("tests/test_nn.py::TestCatchUpAdam::"
            "test_matches_the_dense_formula",)),
)


def apply(mutant: Mutant, root: Path) -> None:
    """Replace the mutant's old text in its file under ``root``; raise
    ``ValueError`` unless the old text occurs there exactly once."""
    path = root / mutant.path
    text = path.read_text("utf-8")
    count = text.count(mutant.old)
    if count != 1:
        raise ValueError(f"{mutant.name}: old text occurs {count} times "
                         f"in {mutant.path}, expected once")
    path.write_text(text.replace(mutant.old, mutant.new), "utf-8")


def failed_tests(output: str) -> set[str]:
    """Node ids on the ``FAILED`` lines of a ``pytest -rf`` summary."""
    return {line[len("FAILED "):].split(" - ", 1)[0]
            for line in output.splitlines() if line.startswith("FAILED ")}


def run(mutant: Mutant) -> tuple[bool, str]:
    """(killed, what to report) for one mutant, run on a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis"))
            else:
                shutil.copy2(src, copy / name)
        apply(mutant, copy)
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rf", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=copy, env=env, capture_output=True, text=True, timeout=900)
    # pytest exits 1 when tests ran and some failed; anything else (a
    # collection error, no tests found) says nothing about the mutant
    if proc.returncode not in (0, 1):
        tail = "\n".join(proc.stdout.splitlines()[-5:])
        return False, f"error: pytest exited {proc.returncode}\n{tail}"
    missed = [t for t in mutant.tests if t not in failed_tests(proc.stdout)]
    if missed:
        return False, "survived: passed " + ", ".join(missed)
    return True, "killed"


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {unknown}; known: {sorted(by_name)}",
              file=sys.stderr)
        return 2
    chosen = [by_name[name] for name in argv] or list(MUTANTS)
    killed = 0
    for mutant in chosen:
        try:
            ok, what = run(mutant)
        except ValueError as exc:
            ok, what = False, f"error: {exc}"
        killed += ok
        print(f"{mutant.name}: {what}", flush=True)
    print(f"{killed} of {len(chosen)} killed")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
