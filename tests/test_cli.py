import argparse
import csv
import functools
import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
import requests

from sentimen import cli, nn, youtube
from sentimen.ingest import LABEL_NAMES, Label
from sentimen.preprocess import PreprocessConfig, run_pipeline
from sentimen.train import TrainConfig
from sentimen.vocab import load_vocab

from conftest import read_history_csv, read_report_csv, write_corpus_csv


def separable_rows(n_per_class=20):
    pos_templates = ["bagus enak mantap", "enak sekali mantap bagus",
                     "mantap bagus sehat enak", "bagus sehat mantap"]
    neg_templates = ["buruk jelek gagal", "jelek sekali gagal buruk",
                     "gagal buruk basi jelek", "jelek basi gagal"]
    rows = []
    for i in range(n_per_class):
        rows.append((f"p{i}", "c", pos_templates[i % 4], "positive"))
        rows.append((f"n{i}", "c", neg_templates[i % 4], "negative"))
    return rows


@pytest.fixture
def separable_csv(tmp_path):
    return write_corpus_csv(tmp_path / "sep.csv", separable_rows())


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(
        "# scaled-down settings for tests\n"
        "embed_dim = 12\n"
        "hidden_dim = 12\n"
        "epochs = 5\n"
        "batch_size = 4\n"
        "learning_rate = 0.02\n"
        "max_len = 8\n"
        "dtype = float64\n",
        "utf-8")
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


def assert_one_error_line(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(prefix), err
    assert "Traceback" not in err
    return err


# at least one bad value for every key of cli.SCHEMA
BAD_CONFIG = {
    "seed": ["1.5", "-1", "x", "4294967296"],
    "epochs": ["1e3", "-1", ""],
    "batch_size": ["x", "0"],
    "learning_rate": ["nan", "inf", "0", "-0.1", "fast"],
    "embed_dim": ["0", "-3"],
    "hidden_dim": ["0", "2.5"],
    "fc_dropout": ["nan", "1.0", "inf"],
    "min_freq": ["0", "one"],
    "max_len": ["0", "-2", "6.5"],
    "train_fraction": ["nan", "1.5", "-0.1"],
    "val_fraction": ["inf", "x"],
    "test_fraction": ["-0.15", "2"],
    "class_weights": ["1,nan", "1,inf", "1", "1,2,3", "1,0", "1,-2", "a,b",
                      "1,"],
    "dtype": ["flaot64", "float16", "FLOAT32"],
    "baselines": ["naive_bayse", "lstm"],
}


@pytest.mark.parametrize("key", sorted(cli.SCHEMA))
def test_bad_config_value_exit_2_before_any_work(tmp_path, separable_csv,
                                                 capsys, key):
    for value in BAD_CONFIG[key]:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = {value}\n", "utf-8")
        out_dir = tmp_path / "run"
        assert run_cli("--out-dir", out_dir, "train", separable_csv,
                       "--config", cfg) == 2, value
        err = assert_one_error_line(capsys, f"error: config {key} = ")
        assert f"'{value}'" in err
        assert not out_dir.exists()


def test_unknown_config_key_exit_2_before_any_work(tmp_path, separable_csv,
                                                  capsys):
    # a second dropout on h_final equals a larger fc_dropout, so the
    # former lstm_dropout key is unknown like any other
    cfg = tmp_path / "old.cfg"
    cfg.write_text("fc_dropout = 0.5\nlstm_dropout = 0.0\n", "utf-8")
    out_dir = tmp_path / "run"
    assert run_cli("--out-dir", out_dir, "train", separable_csv,
                   "--config", cfg) == 2
    err = assert_one_error_line(capsys, "error: unknown config keys")
    assert "'lstm_dropout'" in err
    assert not out_dir.exists()
    # training always shuffles, so the former shuffle key is unknown too
    cfg.write_text("shuffle = false\n", "utf-8")
    assert run_cli("--out-dir", out_dir, "train", separable_csv,
                   "--config", cfg) == 2
    assert_one_error_line(capsys, "error: unknown config keys: ['shuffle']\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("flag,value", [
    ("--seed", "-1"), ("--epochs", "-1"), ("--batch-size", "0"),
    ("--learning-rate", "nan"), ("--learning-rate", "-1"), ("--max-len", "0"),
    ("--epochs", "1e3"), ("--seed", "x"), ("--learning-rate", "abc"),
    ("--max-len", "2.5")])
def test_bad_flag_value_exit_2_before_any_work(tmp_path, separable_csv,
                                               capsys, flag, value):
    out_dir = tmp_path / "run"
    assert run_cli("--out-dir", out_dir, "train", separable_csv,
                   flag, value) == 2
    assert_one_error_line(capsys, "error: config ")
    assert not out_dir.exists()


def test_flag_values_echoed_as_given(tmp_path, separable_csv):
    out_dir = tmp_path / "run"
    assert run_cli("--quiet", "--out-dir", out_dir, "train", separable_csv,
                   "--epochs", "0", "--learning-rate", "1e-3") == 0
    echoed = (out_dir / "config.resolved.txt").read_text("utf-8")
    assert "learning_rate = 1e-3\n" in echoed.splitlines(keepends=True)


def test_split_fractions_not_summing_to_1_exit_2_before_any_work(tmp_path,
                                                                 capsys):
    cfg = tmp_path / "split.cfg"
    cfg.write_text("train_fraction = 0.5\n", "utf-8")
    out_dir = tmp_path / "run"
    # the corpus does not exist: reading it would be a different error
    assert run_cli("--out-dir", out_dir, "train", tmp_path / "absent.csv",
                   "--config", cfg) == 2
    err = assert_one_error_line(capsys, "error: config ")
    assert "sum to 0.8" in err
    assert not out_dir.exists()


def test_good_values_resolve_typed(tmp_path):
    path = tmp_path / "good.cfg"
    path.write_text("class_weights = 1, 3\nmax_len =\n", "utf-8")
    cfg = cli.resolve_config(argparse.Namespace(config=str(path), seed=None))
    assert cfg["class_weights"] == (1.0, 3.0)
    assert cfg["max_len"] is None
    assert cfg["epochs"] == 20 and cfg["learning_rate"] == 5e-4
    assert cfg["baselines"] == list(cli.baselines.MODELS)
    assert cfg.text["class_weights"] == "1, 3"
    assert cfg.text["max_len"] == ""


def test_schema_defaults_equal_the_library_defaults():
    # the paper's hyperparameters are written in both places; dtype and
    # max_len differ by design (float32 and the training-length percentile)
    cfg = cli.resolve_config(argparse.Namespace(config=None, seed=None))
    train_keys = ("seed", "epochs", "batch_size", "learning_rate",
                  "class_weights")
    train_defaults = TrainConfig()
    assert {k: cfg[k] for k in train_keys} == \
        {k: getattr(train_defaults, k) for k in train_keys}
    model_keys = ("embed_dim", "hidden_dim", "fc_dropout")
    model_defaults = nn.ModelConfig(vocab_size=1)
    assert {k: cfg[k] for k in model_keys} == \
        {k: getattr(model_defaults, k) for k in model_keys}


class TestPreprocessCommand:
    def test_golden_tokenized_csv(self, tmp_path, toy_corpus_csv, pp_cfg):
        out = tmp_path / "tok.csv"
        assert run_cli("preprocess", toy_corpus_csv, "--out", out) == 0

        # independent expectation composed from the library primitives
        expected = io.StringIO()
        writer = csv.writer(expected)
        writer.writerow(["id", "source", "text", "label", "tokens"])
        with open(toy_corpus_csv, newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                tokens = run_pipeline(row["text"], pp_cfg)
                writer.writerow([row["id"], row["source"], row["text"],
                                 row["label"], " ".join(tokens)])
        # byte-exact, including the RFC 4180 CRLF line endings
        assert out.read_bytes().decode("utf-8") == expected.getvalue()

    def test_empty_corpus_header_only(self, tmp_path):
        src = write_corpus_csv(tmp_path / "e.csv", [])
        out = tmp_path / "out.csv"
        assert run_cli("preprocess", src, "--out", out) == 0
        lines = out.read_text().strip().splitlines()
        assert lines == ["id,source,text,label,tokens"]

    def test_missing_dictionary_exit_2_with_path(self, tmp_path,
                                                 toy_corpus_csv, capsys):
        missing = tmp_path / "no_such_roots.txt"
        code = run_cli("preprocess", toy_corpus_csv,
                       "--out", tmp_path / "x.csv", "--roots", missing)
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_empty_roots_exit_2_with_path(self, tmp_path, toy_corpus_csv,
                                          separable_csv, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("", "utf-8")
        assert run_cli("preprocess", toy_corpus_csv, "--out",
                       tmp_path / "x.csv", "--roots", empty) == 2
        assert str(empty) in assert_one_error_line(capsys)
        assert run_cli("--out-dir", tmp_path / "run", "train", separable_csv,
                       "--epochs", 1, "--roots", empty) == 2
        assert str(empty) in assert_one_error_line(capsys)
        # no stopwords and no slang are valid choices
        assert run_cli("--quiet", "preprocess", toy_corpus_csv, "--out",
                       tmp_path / "x.csv", "--stopwords", empty,
                       "--slang", empty) == 0

    def test_empty_slang_word_exit_2_with_path(self, tmp_path, toy_corpus_csv,
                                               capsys):
        slang = tmp_path / "slang.tsv"
        slang.write_text("gak\ttidak\n\tkata\n", "utf-8")
        assert run_cli("preprocess", toy_corpus_csv, "--out",
                       tmp_path / "x.csv", "--slang", slang) == 2
        assert f"{slang}:2: empty slang word" in assert_one_error_line(capsys)

    def test_bad_row_strict_vs_lenient(self, tmp_path):
        src = write_corpus_csv(tmp_path / "bad.csv",
                               [("1", "c", "ok", "positive"),
                                ("2", "c", "ok", "netral")])
        assert run_cli("preprocess", src, "--out", tmp_path / "o.csv") == 2
        assert run_cli("preprocess", src, "--out", tmp_path / "o.csv",
                       "--lenient") == 0

    def test_lenient_warns_of_each_skipped_row(self, tmp_path, capsys):
        src = write_corpus_csv(tmp_path / "bad.csv",
                               [("1", "c", "ok", "positive"),
                                ("2", "c", "ok", "netral"),
                                ("3", "c", " ", "negative"),
                                ("4", "c", "enak", "")])
        out = tmp_path / "o.csv"
        assert run_cli("--quiet", "preprocess", src, "--out", out,
                       "--lenient") == 0
        assert capsys.readouterr().err.splitlines() == [
            f"warning: {src}: row 3 skipped: unknown label 'netral' "
            "(expected negative/positive/empty)",
            f"warning: {src}: row 4 skipped: empty text on a labeled row"]
        assert len(out.read_text("utf-8").splitlines()) == 3


    def test_roots_override_after_default_run_stems_apart(self, tmp_path):
        corpus = write_corpus_csv(tmp_path / "c.csv",
                                  [("1", "c", "makanannya enak", "positive")])
        roots = tmp_path / "roots.txt"
        roots.write_text("enak\nbagus\n", "utf-8")

        def tokens(*flags):
            out = tmp_path / "tok.csv"
            assert run_cli("--quiet", "preprocess", corpus, "--out", out,
                           *flags) == 0
            with open(out, newline="", encoding="utf-8") as fh:
                return next(csv.DictReader(fh))["tokens"]

        assert tokens() == "makan enak"
        assert tokens("--roots", roots) == "makanannya enak"
        assert tokens() == "makan enak"


class TestTrainCommand:
    def test_artifacts_and_history_shape(self, tmp_path, separable_csv,
                                         small_config):
        out_dir = tmp_path / "run"
        code = run_cli("--out-dir", out_dir, "--seed", 3, "--quiet",
                       "train", separable_csv, "--config", small_config)
        assert code == 0
        assert (out_dir / "config.resolved.txt").exists()
        assert (out_dir / "vocab.txt").exists()
        assert (out_dir / "checkpoint.bin").exists()
        assert (out_dir / "loss.svg").exists()
        assert (out_dir / "accuracy.svg").exists()
        history = read_history_csv(out_dir / "history.csv")
        assert len(history) == 5
        assert [h.epoch for h in history] == list(range(5))

    def test_resolved_config_echoed(self, tmp_path, separable_csv,
                                    small_config):
        out_dir = tmp_path / "run"
        run_cli("--out-dir", out_dir, "--seed", 9, "--quiet", "train",
                separable_csv, "--config", small_config, "--epochs", "1")
        echoed = (out_dir / "config.resolved.txt").read_text()
        assert "seed = 9" in echoed          # flag override wins
        assert "epochs = 1" in echoed
        assert "embed_dim = 12" in echoed    # file value

    def test_epochs_zero_warns_empty_history(self, tmp_path, separable_csv,
                                             small_config, capsys):
        out_dir = tmp_path / "run"
        code = run_cli("--out-dir", out_dir, "--quiet", "train",
                       separable_csv, "--config", small_config,
                       "--epochs", "0")
        assert code == 0
        assert "epochs = 0" in capsys.readouterr().err
        assert read_history_csv(out_dir / "history.csv") == []

    def test_seeded_reruns_byte_identical(self, tmp_path, separable_csv,
                                          small_config):
        blobs = []
        for name in ("a", "b"):
            out_dir = tmp_path / name
            code = run_cli("--out-dir", out_dir, "--seed", 11, "--quiet",
                           "train", separable_csv, "--config", small_config)
            assert code == 0
            blobs.append((out_dir / "history.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_preprocessed_tokens_reused_with_unlabeled_rows(
            self, tmp_path, small_config, monkeypatch):
        rows = separable_rows(6) + [("u0", "c", "belum dilabeli", "")]
        corpus = write_corpus_csv(tmp_path / "c.csv", rows)
        tokenized = tmp_path / "tok.csv"
        assert run_cli("--quiet", "preprocess", corpus, "--out", tokenized) == 0

        calls = []

        def counting(text, cfg):
            calls.append(text)
            return run_pipeline(text, cfg)

        monkeypatch.setattr(cli, "run_pipeline", counting)
        code = run_cli("--out-dir", tmp_path / "run", "--quiet", "train",
                       tokenized, "--config", small_config, "--epochs", "1")
        assert code == 0
        assert calls == []

    def test_unknown_config_key_exit_2(self, tmp_path, separable_csv):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown_knob = 4\n", "utf-8")
        assert run_cli("--quiet", "train", separable_csv,
                       "--config", cfg) == 2

    def test_mistyped_dtype_exit_2(self, tmp_path, separable_csv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("dtype = flaot64\nepochs = 1\n", "utf-8")
        out_dir = tmp_path / "run"
        assert run_cli("--out-dir", out_dir, "--quiet", "train", separable_csv,
                       "--config", cfg) == 2
        assert "flaot64" in capsys.readouterr().err
        assert not (out_dir / "checkpoint.bin").exists()


@pytest.fixture
def trained_run(tmp_path, separable_csv, small_config):
    out_dir = tmp_path / "trained"
    code = run_cli("--out-dir", out_dir, "--seed", 3, "--quiet", "train",
                   separable_csv, "--config", small_config,
                   "--epochs", "40")
    assert code == 0
    return out_dir


class TestEvaluateCommand:
    def test_report_artifacts(self, tmp_path, trained_run, separable_csv,
                              capsys):
        out_dir = tmp_path / "eval"
        code = run_cli("--out-dir", out_dir, "evaluate",
                       trained_run / "checkpoint.bin", separable_csv)
        assert code == 0
        shown = capsys.readouterr().out
        assert "precision" in shown
        for name in ("report.txt", "report.csv", "confusion.csv",
                     "confusion.svg"):
            assert (out_dir / name).exists(), name

        parsed = read_report_csv((out_dir / "report.csv").read_text())
        # memorized separable training data: near-perfect accuracy
        assert parsed["accuracy"]["f1"] >= 0.9

    def test_empty_test_file_exit_2(self, tmp_path, trained_run):
        empty = write_corpus_csv(tmp_path / "empty.csv", [])
        assert run_cli("--out-dir", tmp_path / "e", "evaluate",
                       trained_run / "checkpoint.bin", empty) == 2

    def test_missing_checkpoint_exit_2(self, tmp_path, separable_csv):
        assert run_cli("evaluate", tmp_path / "nope.bin", separable_csv) == 2

    def test_truncated_checkpoint_exit_2(self, tmp_path, trained_run,
                                         separable_csv, capsys):
        ckpt = trained_run / "checkpoint.bin"
        ckpt.write_bytes(ckpt.read_bytes()[:20])
        assert run_cli("--out-dir", tmp_path / "e", "evaluate", ckpt,
                       separable_csv) == 2
        assert "truncated checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("meta", [None, "min_freq=1\n"],
                             ids=["missing", "no_max_len"])
    def test_missing_vocab_meta_exit_2(self, tmp_path, trained_run,
                                       separable_csv, meta):
        path = trained_run / "vocab.txt.meta"
        if meta is None:
            path.unlink()
        else:
            path.write_text(meta, "utf-8")
        assert run_cli("--out-dir", tmp_path / "e", "evaluate",
                       trained_run / "checkpoint.bin", separable_csv) == 2


@pytest.mark.parametrize("case", ["corpus", "config", "roots",
                                  "checkpoint", "vocab", "out_dir"])
def test_directory_or_file_in_wrong_place_exit_2(tmp_path, request,
                                                 separable_csv, capsys, case):
    folder = tmp_path / "a_directory"
    folder.mkdir()
    a_file = tmp_path / "a_file"
    a_file.write_text("", "utf-8")
    ckpt = (request.getfixturevalue("trained_run") / "checkpoint.bin"
            if case == "vocab" else None)
    argv = {
        "corpus": ["--out-dir", tmp_path / "o", "train", folder],
        "config": ["--out-dir", tmp_path / "o", "train", separable_csv,
                   "--config", folder],
        "roots": ["preprocess", separable_csv, "--out", tmp_path / "t.csv",
                  "--roots", folder],
        "checkpoint": ["--out-dir", tmp_path / "o", "evaluate", folder,
                       separable_csv],
        "vocab": ["--out-dir", tmp_path / "o", "evaluate", ckpt,
                  separable_csv, "--vocab", folder],
        "out_dir": ["--out-dir", a_file, "train", separable_csv,
                    "--epochs", 1],
    }[case]
    assert run_cli(*argv) == 2
    assert_one_error_line(capsys)


@pytest.mark.parametrize("kind", ["corpus", "roots", "stopwords", "slang"])
def test_non_utf8_file_exit_2_naming_it(tmp_path, separable_csv, capsys,
                                        kind):
    rows = separable_rows()
    rows[5] = rows[5][:2] + ("enak b\u00e9bas", rows[5][3])
    utf8 = write_corpus_csv(tmp_path / "utf8.csv", rows).read_bytes()
    bad = tmp_path / f"latin1_{kind}.txt"
    bad.write_bytes(utf8.replace("\u00e9".encode("utf-8"), b"\xe9")
                    if kind == "corpus" else
                    "enak\tb\u00e9bas\n".encode("latin-1"))
    corpus, flags = ((bad, []) if kind == "corpus"
                     else (separable_csv, [f"--{kind}", bad]))
    assert run_cli("preprocess", corpus, "--out", tmp_path / "t.csv",
                   *flags) == 2
    err = assert_one_error_line(capsys)
    assert f"{bad}: " in err and "not UTF-8 text" in err
    if kind == "corpus":
        assert "row 7:" in err


@pytest.mark.parametrize("command,bad", [
    ("train", "roots"), ("evaluate", "roots"), ("compare", "roots"),
    ("train", "unsplittable"), ("compare", "unsplittable"),
    ("train", "empty_split"), ("compare", "empty_split"),
    ("compare", "empty_train")])
def test_bad_input_leaves_no_out_dir(tmp_path, request, separable_csv, capsys,
                                     command, bad):
    roots = tmp_path / "latin1_roots.txt"
    roots.write_bytes("bébas\n".encode("latin-1"))
    # one negative record cannot fill three nonzero splits
    tiny = write_corpus_csv(tmp_path / "tiny.csv", separable_rows(1))
    # empty_split: train gets no train split, compare no test split;
    # empty_train: compare gets no train split
    no_test = (command, bad) == ("compare", "empty_split")
    empty = tmp_path / "empty_split.cfg"
    empty.write_text("train_fraction = 0.85\nval_fraction = 0.15\n"
                     "test_fraction = 0\n" if no_test else
                     "train_fraction = 0\nval_fraction = 0.5\n"
                     "test_fraction = 0.5\n", "utf-8")
    out_dir = tmp_path / "o"
    ckpt = (request.getfixturevalue("trained_run") / "checkpoint.bin"
            if command == "evaluate" else None)
    corpus = tiny if bad == "unsplittable" else separable_csv
    inputs = {"train": [corpus], "evaluate": [ckpt, corpus],
              "compare": [corpus]}[command]
    flags = {"roots": ["--roots", roots], "unsplittable": [],
             "empty_split": ["--config", empty],
             "empty_train": ["--config", empty]}[bad]
    assert run_cli("--out-dir", out_dir, command, *inputs, *flags) == 2
    err = assert_one_error_line(capsys)
    assert {"roots": f"{roots}: not UTF-8 text",
            "unsplittable": "1 records for 3 nonzero splits",
            "empty_split": f"{'test' if no_test else 'train'} split is empty",
            "empty_train": "train split is empty"}[bad] in err
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", ["config", "vocab", "vocab_meta"])
def test_non_utf8_config_or_vocab_exit_2_naming_it(tmp_path, request,
                                                   separable_csv, capsys,
                                                   kind):
    if kind == "config":
        bad = tmp_path / "latin1.cfg"
        bad.write_bytes("# réglages\nepochs = 1\n".encode("latin-1"))
        argv = ["--out-dir", tmp_path / "o", "train", separable_csv,
                "--config", bad]
    else:
        trained = request.getfixturevalue("trained_run")
        bad = trained / ("vocab.txt" if kind == "vocab" else "vocab.txt.meta")
        bad.write_bytes(bad.read_bytes() + b"\xff\n")
        argv = ["predict", trained / "checkpoint.bin", "bagus"]
    assert run_cli(*argv) == 2
    err = assert_one_error_line(capsys)
    assert f"{bad}: not UTF-8 text" in err


@pytest.mark.parametrize("meta,shown", [
    ("max_len=abc\nmin_freq=1\n", ": max_len = 'abc': expected an integer"),
    ("max_len=0\nmin_freq=1\n", ": max_len = '0': expected an integer"),
    ("max_len=8\nmin_freq=x\n", ": min_freq = 'x': expected an integer"),
    ("max_len=9\nmin_freq=1\n", ": max_len 9 does not match checkpoint (8)")],
    ids=["abc", "0", "min_freq", "mismatch"])
def test_bad_vocab_meta_exit_2_naming_it(trained_run, capsys, meta, shown):
    bad = trained_run / "vocab.txt.meta"
    bad.write_text(meta, "utf-8")
    assert run_cli("predict", trained_run / "checkpoint.bin", "bagus") == 2
    err = assert_one_error_line(capsys)
    assert f"{bad}{shown}" in err


# byte offsets in a version-1 checkpoint: 8 magic bytes, the uint32
# version, the one-byte dtype code, then the five uint64 dimensions
def _dims(blob):
    """(vocab_size, embed_dim, hidden_dim, num_classes, max_len)."""
    return struct.unpack_from("<5Q", blob, 13)


def _three_classes(blob):
    """The checkpoint ``nn.save_checkpoint`` writes for the model of
    ``blob``'s dimensions with three classes."""
    vocab_size, embed_dim, hidden_dim, _, max_len = _dims(blob)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "three.bin"
        nn.save_checkpoint(path, nn.init_params(nn.ModelConfig(
            vocab_size, embed_dim, hidden_dim, 3, max_len)))
        return path.read_bytes()


def _hidden_dim_zero(blob):
    """A float64 version-1 file, written by hand, whose hidden_dim is 0:
    every array's byte count fits its shape."""
    vocab_size, embed_dim, _, classes, max_len = _dims(blob)
    arrays = [np.zeros(vocab_size * embed_dim)] + [np.zeros(0)] * 5 + [
        np.zeros(classes)]
    return (blob[:12] + b"\x01"
            + struct.pack("<5Q2d", vocab_size, embed_dim, 0, classes, max_len,
                          0.0, 0.5)
            + b"".join(struct.pack("<Q", a.nbytes) + a.astype("<f8").tobytes()
                       for a in arrays)
            + b"\0")


BAD_MODEL_FILES = {
    "truncated": ("checkpoint.bin", lambda b: b[:20], "truncated checkpoint"),
    "trailing": ("checkpoint.bin", lambda b: b + b"\0\0",
                 "2 bytes after the checkpoint payload"),
    "version": ("checkpoint.bin", lambda b: b[:8] + b"\x09\0\0\0" + b[12:],
                "unsupported checkpoint version 9"),
    "dtype": ("checkpoint.bin", lambda b: b[:12] + b"\x07" + b[13:],
              "unknown dtype code 7"),
    "no_meta": ("vocab.txt.meta", None, "vocabulary sidecar not found"),
    "three_classes": ("checkpoint.bin", _three_classes,
                      "bad checkpoint: 3 classes, expected 2"),
    "hidden_dim_zero": ("checkpoint.bin", _hidden_dim_zero,
                        "bad checkpoint: hidden_dim 0, expected >= 1"),
    "extra_vocab_line": ("vocab.txt", lambda b: b + b"tambahan\n",
                         "vocabulary size 11 does not match checkpoint (10)"),
}


@pytest.mark.parametrize("command", ["evaluate", "predict"])
@pytest.mark.parametrize("case", list(BAD_MODEL_FILES))
def test_bad_model_file_exit_2_naming_it(tmp_path, trained_run, separable_csv,
                                         capsys, command, case):
    name, corrupt, shown = BAD_MODEL_FILES[case]
    bad = trained_run / name
    if corrupt is None:
        bad.unlink()
    else:
        bad.write_bytes(corrupt(bad.read_bytes()))
    out_dir = tmp_path / "e"
    ckpt = trained_run / "checkpoint.bin"
    argv = {"evaluate": ["--out-dir", out_dir, "evaluate", ckpt, separable_csv],
            "predict": ["predict", ckpt, "bagus"]}[command]
    assert run_cli(*argv) == 2
    err = assert_one_error_line(capsys)
    assert err.count(str(bad)) == 1 and shown in err
    assert not out_dir.exists()


@pytest.mark.parametrize("command", ["preprocess", "preprocess_lenient",
                                     "train", "evaluate", "compare"])
def test_csv_field_over_size_limit_exit_2(tmp_path, request, capsys,
                                          command):
    rows = separable_rows()
    rows[5] = rows[5][:2] + ("bagus " * 40_000, rows[5][3])  # 240k characters
    big = write_corpus_csv(tmp_path / "big.csv", rows)
    ckpt = (request.getfixturevalue("trained_run") / "checkpoint.bin"
            if command == "evaluate" else None)
    argv = {
        "preprocess": ["preprocess", big, "--out", tmp_path / "t.csv"],
        "preprocess_lenient": ["preprocess", big, "--out", tmp_path / "t.csv",
                               "--lenient"],
        "train": ["--out-dir", tmp_path / "o", "train", big, "--epochs", 1],
        "evaluate": ["--out-dir", tmp_path / "o", "evaluate", ckpt, big],
        "compare": ["--out-dir", tmp_path / "o", "compare", big,
                    "--epochs", 1],
    }[command]
    assert run_cli(*argv) == 2
    err = assert_one_error_line(capsys)
    assert "big.csv: row 7: field larger than field limit" in err


class TestPredictCommand:
    def test_three_lines_three_outputs_in_order(self, trained_run, capsys):
        code = run_cli("predict", trained_run / "checkpoint.bin",
                       "bagus enak mantap", "buruk jelek gagal",
                       "enak mantap")
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("positive\t")
        assert lines[1].startswith("negative\t")
        # memorized training sentences come back confidently
        assert float(lines[0].split("\t")[1]) > 0.9
        assert float(lines[1].split("\t")[1]) > 0.9

    def test_empty_line_low_confidence(self, trained_run, capsys):
        code = run_cli("predict", trained_run / "checkpoint.bin", "")
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "negative (low-confidence: empty after preprocessing)\t")

    def test_stdin_lines(self, trained_run, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin",
                            io.StringIO("bagus enak\nburuk jelek\n"))
        code = run_cli("predict", trained_run / "checkpoint.bin")
        assert code == 0
        assert len(capsys.readouterr().out.strip().splitlines()) == 2

    def test_probability_formats(self, trained_run, capsys):
        run_cli("predict", trained_run / "checkpoint.bin", "bagus")
        label, prob = capsys.readouterr().out.strip().split("\t")
        assert 0.0 <= float(prob) <= 1.0

    def test_chunks_match_per_line_predict(self, trained_run, capsys,
                                           monkeypatch):
        lines = ["bagus enak mantap", "buruk jelek gagal", "",
                 "enak sekali mantap", "gagal basi"]
        params, _ = nn.load_checkpoint(trained_run / "checkpoint.bin")
        vocab, max_len, _ = load_vocab(trained_run / "vocab.txt")
        pp = PreprocessConfig.default()
        want = [nn.predict(line, params, vocab, pp, max_len=max_len)
                for line in lines]
        chunks = []
        predict_encoded = nn.predict_encoded

        def recording(*args):
            chunks.append(predict_encoded(*args))
            return chunks[-1]

        monkeypatch.setattr(nn, "predict_encoded", recording)
        monkeypatch.setattr(nn, "_PREDICT_BATCH", 2)
        monkeypatch.setattr("sys.stdin", io.StringIO(
            "".join(line + "\n" for line in lines)))
        assert run_cli("predict", trained_run / "checkpoint.bin") == 0
        out = capsys.readouterr().out.splitlines()
        assert [len(c) for c in chunks] == [2, 2, 1]
        got = [pred for chunk in chunks for pred in chunk]
        assert len(out) == len(got) == 5
        assert [p.label for p in want] == [Label.POSITIVE, Label.NEGATIVE,
                                           Label.NEGATIVE, Label.POSITIVE,
                                           Label.NEGATIVE]
        for shown, pred, ref in zip(out, got, want):
            name, prob = shown.split("\t")
            assert name == LABEL_NAMES[ref.label] + (
                " (low-confidence: empty after preprocessing)"
                if ref.low_confidence else "")
            assert pred.label == ref.label
            assert pred.low_confidence == ref.low_confidence
            assert np.allclose(pred.probabilities, ref.probabilities,
                               rtol=0, atol=1e-6)
            assert prob == f"{pred.probabilities[int(pred.label)]:.4f}"


class TestCompareCommand:
    def test_all_models_reach_majority_floor(self, tmp_path, separable_csv,
                                             small_config, capsys):
        out_dir = tmp_path / "cmp"
        code = run_cli("--out-dir", out_dir, "--seed", 3, "--quiet",
                       "compare", separable_csv, "--config", small_config,
                       "--epochs", "40")
        assert code == 0
        text = (out_dir / "comparison.csv").read_text().strip().splitlines()
        assert text[0] == "model,accuracy,macro_f1"
        scores = {row.split(",")[0]: float(row.split(",")[1])
                  for row in text[1:]}
        assert set(scores) == {"majority", "naive_bayes",
                               "logistic_regression", "linear_svm", "lstm"}
        floor = scores["majority"]
        for name, acc in scores.items():
            assert acc >= floor, name

    def test_lstm_row_present_when_baselines_disabled(self, tmp_path,
                                                      separable_csv):
        cfg = tmp_path / "no_base.cfg"
        cfg.write_text("baselines =\nepochs = 1\nembed_dim = 8\n"
                       "hidden_dim = 8\nmax_len = 6\n", "utf-8")
        out_dir = tmp_path / "cmp2"
        code = run_cli("--out-dir", out_dir, "--quiet", "compare",
                       separable_csv, "--config", cfg)
        assert code == 0
        rows = (out_dir / "comparison.csv").read_text().strip().splitlines()
        assert rows[1].startswith("lstm,")
        assert len(rows) == 2

    def test_unknown_baseline_exit_2(self, tmp_path, separable_csv, capsys):
        cfg = tmp_path / "typo.cfg"
        cfg.write_text("baselines = naive_bayse\nepochs = 1\n", "utf-8")
        out_dir = tmp_path / "cmp3"
        assert run_cli("--out-dir", out_dir, "--quiet", "compare",
                       separable_csv, "--config", cfg) == 2
        assert "naive_bayse" in capsys.readouterr().err
        assert not (out_dir / "comparison.csv").exists()


class TestFetchCommand:
    def test_writes_unlabeled_corpus(self, tmp_path, comments_server,
                                     monkeypatch):
        monkeypatch.setenv("SENTIMEN_API_KEY", "k")
        server = comments_server(n_pages=2, page_size=3)
        out = tmp_path / "fetched.csv"
        code = run_cli("--quiet", "fetch", "vid42", "--max-pages", 2,
                       "--out", out, "--base-url", server.url)
        assert code == 0
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 6
        assert all(r["label"] == "" for r in rows)
        assert rows[0]["id"] == "c0-0"

    def test_bad_key_exit_3_no_file(self, tmp_path, comments_server,
                                    monkeypatch):
        monkeypatch.setenv("SENTIMEN_API_KEY", "bad")
        server = comments_server(fail_status=401)
        out = tmp_path / "fetched.csv"
        code = run_cli("--quiet", "fetch", "vid", "--out", out,
                       "--base-url", server.url)
        assert code == 3
        assert not out.exists()

    def test_max_pages_zero_header_only(self, tmp_path, comments_server,
                                        monkeypatch):
        monkeypatch.setenv("SENTIMEN_API_KEY", "k")
        server = comments_server()
        out = tmp_path / "fetched.csv"
        code = run_cli("--quiet", "fetch", "vid", "--max-pages", 0,
                       "--out", out, "--base-url", server.url)
        assert code == 0
        assert out.read_text().strip() == "id,source,text,label"
        assert server.requests == []

    @pytest.mark.parametrize("failure", ["connection", "not_json"])
    def test_request_failure_exit_3_key_not_shown(self, tmp_path, monkeypatch,
                                                  capsys, failure):
        key = "secret-key-123"
        monkeypatch.setenv("SENTIMEN_API_KEY", key)
        base_url = "http://127.0.0.1:9/commentThreads"

        class FakeSession:
            def get(self, url, params, timeout):
                if failure == "connection":
                    # requests puts the full URL, query included, in the text
                    raise requests.ConnectionError(
                        f"Max retries exceeded with url: {url}?key={params['key']}")
                resp = requests.Response()
                resp.status_code = 200
                resp._content = f"<html>{params['key']}</html>".encode()
                return resp

        monkeypatch.setattr(cli.youtube, "fetch_comments", functools.partial(
            youtube.fetch_comments, session=FakeSession()))
        out = tmp_path / "fetched.csv"
        assert run_cli("fetch", "vid", "--out", out,
                       "--base-url", base_url) == 3
        assert key not in assert_one_error_line(capsys, "error: fetch failed")
        assert not out.exists()

    @pytest.mark.parametrize("body", [b'{"items": ["x"]}',
                                      b'{"items": [{"snippet": 5}]}',
                                      b'{"items": 7}'])
    def test_malformed_body_exit_3(self, tmp_path, monkeypatch, capsys, body):
        monkeypatch.setenv("SENTIMEN_API_KEY", "k")

        class FakeSession:
            def get(self, url, params, timeout):
                resp = requests.Response()
                resp.status_code, resp._content = 200, body
                return resp

        monkeypatch.setattr(cli.youtube, "fetch_comments", functools.partial(
            youtube.fetch_comments, session=FakeSession()))
        out = tmp_path / "fetched.csv"
        assert run_cli("fetch", "vid", "--out", out) == 3
        assert_one_error_line(capsys, "error: fetch failed: API response")
        assert not out.exists()

    def test_bad_base_url_exit_2(self, tmp_path, monkeypatch, capsys):
        key = "secret-key-123"
        monkeypatch.setenv("SENTIMEN_API_KEY", key)
        out = tmp_path / "f.csv"
        assert run_cli("fetch", "vid", "--base-url", "notaurl",
                       "--out", out) == 2
        err = assert_one_error_line(capsys, "error: fetch failed: ")
        assert "notaurl" in err and "MissingSchema" in err
        assert key not in err
        assert not out.exists()
