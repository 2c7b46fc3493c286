import argparse
import csv
import functools
import io
import math
import shutil
import struct
import tempfile
from collections import namedtuple
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


SMALL_CONFIG = ("# scaled-down settings for tests\n"
                "embed_dim = 12\n"
                "hidden_dim = 12\n"
                "epochs = 5\n"
                "batch_size = 4\n"
                "learning_rate = 0.02\n"
                "max_len = 8\n"
                "dtype = float64\n")


@pytest.fixture
def separable_csv(tmp_path):
    return write_corpus_csv(tmp_path / "sep.csv", separable_rows())


@pytest.fixture
def small_config(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CONFIG, "utf-8")
    return path


def run_cli(*args):
    return cli.main([str(a) for a in args])


def assert_one_error_line(capsys, prefix="error: "):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1, err
    assert err.startswith(prefix), err
    assert "Traceback" not in err
    return err


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """A 40-epoch model of ``separable_rows``, trained once per module."""
    root = tmp_path_factory.mktemp("trained")
    corpus = write_corpus_csv(root / "sep.csv", separable_rows())
    config = root / "small.cfg"
    config.write_text(SMALL_CONFIG, "utf-8")
    assert run_cli("--out-dir", root / "run", "--seed", 3, "--quiet", "train",
                   corpus, "--config", config, "--epochs", "40") == 0
    return root / "run"


@pytest.fixture
def trained_run(tmp_path, trained_model):
    """This test's own copy of ``trained_model``, free to corrupt."""
    return Path(shutil.copytree(trained_model, tmp_path / "trained"))


# --- bad input: one table, one contract --------------------------------------
# A bad input exits 2 with one "error: " line that names the file at fault
# (or the config key and value), shows no traceback, and leaves the working
# directory as it was: no out-dir, no --out file.  CELLS holds every bad
# input; check_bad_input checks the whole contract for each.  FILES holds
# the files each subcommand reads or writes, by argparse dest; vocab.txt
# and its .meta are read next to the checkpoint unless --vocab is given.
FILES = {
    "fetch": ("config", "out"),
    "preprocess": ("config", "input", "roots", "stopwords", "slang", "out"),
    "train": ("config", "corpus", "roots", "stopwords", "slang", "out_dir"),
    "evaluate": ("config", "checkpoint", "vocab", "vocab.txt",
                 "vocab.txt.meta", "test_csv", "roots", "stopwords", "slang",
                 "out_dir"),
    "predict": ("config", "checkpoint", "vocab", "vocab.txt", "vocab.txt.meta",
                "roots", "stopwords", "slang"),
    "compare": ("config", "corpus", "roots", "stopwords", "slang", "out_dir"),
}
CORPUS = {"preprocess": "input", "train": "corpus", "evaluate": "test_csv",
          "compare": "corpus"}
(SUBCOMMANDS,) = [a.choices for a in cli.build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
DIRECTORY = object()
SECRET = "secret-key-123"  # the API key of every run; no error shows it


def corpus_bytes(rows, text_of_row_7=None, encoding="utf-8"):
    if text_of_row_7 is not None:  # the file's row 7 is the sixth record
        rows[5] = rows[5][:2] + (text_of_row_7, rows[5][3])
    out = io.StringIO()
    csv.writer(out).writerows([("id", "source", "text", "label"), *rows])
    return out.getvalue().encode(encoding)


def file_faults(arg):
    """fault -> (content, expected): the wrong kinds of file for ``arg``."""
    is_dir = (DIRECTORY, "Is a directory: '{bad}'")
    if arg in ("out", "out_dir"):
        return {"directory": is_dir} if arg == "out" else {
            "file": (b"", "File exists: '{bad}'")}
    return {"missing": (None, "not found: {bad}"), "directory": is_dir,
            **({"not_checkpoint": (b"bagus\n", "{bad}: bad checkpoint: "
                                   "not a model checkpoint")}
               if arg == "checkpoint" else
               {"not_utf8": (corpus_bytes(separable_rows(), "enak bébas",
                                          "latin-1"),
                             "{bad}: row 7: not UTF-8 text")}
               if arg in CORPUS.values() else
               {"not_utf8": ("enak\tbébas\n".encode("latin-1"),
                             "{bad}: not UTF-8 text")})}


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

BAD_FLAGS = [("seed", "-1"), ("epochs", "-1"), ("batch_size", "0"),
             ("learning_rate", "nan"), ("learning_rate", "-1"),
             ("max_len", "0"), ("epochs", "1e3"), ("seed", "x"),
             ("learning_rate", "abc"), ("max_len", "2.5")]


# byte offsets in a version-1 checkpoint: 8 magic bytes, the uint32
# version, the one-byte dtype code, then the five uint64 dimensions
# (vocab_size, embed_dim, hidden_dim, num_classes, max_len)
def _three_classes(blob):
    """The checkpoint ``nn.save_checkpoint`` writes for the model of
    ``blob``'s dimensions with three classes."""
    vocab_size, embed_dim, hidden_dim, _, max_len = struct.unpack_from(
        "<5Q", blob, 13)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "three.bin"
        nn.save_checkpoint(path, nn.init_params(nn.ModelConfig(
            vocab_size, embed_dim, hidden_dim, 3, max_len)))
        return path.read_bytes()


def _hidden_dim_zero(blob):
    """A float64 version-1 file, written by hand, whose hidden_dim is 0:
    every array's byte count fits its shape."""
    vocab_size, embed_dim, _, classes, max_len = struct.unpack_from(
        "<5Q", blob, 13)
    arrays = [np.zeros(vocab_size * embed_dim)] + [np.zeros(0)] * 5 + [
        np.zeros(classes)]
    return (blob[:12] + b"\x01"
            + struct.pack("<5Q2d", vocab_size, embed_dim, 0, classes, max_len,
                          0.0, 0.5)
            + b"".join(struct.pack("<Q", a.nbytes) + a.astype("<f8").tobytes()
                       for a in arrays)
            + b"\0")


NO_TRAIN = b"train_fraction = 0\nval_fraction = 0.5\ntest_fraction = 0.5\n"
FIELD_OVER_LIMIT = corpus_bytes(separable_rows(), "bagus " * 40_000)  # 240k
NOT_INT = ": expected an integer"
# the subcommands that load a model, and those that read dictionaries
MODEL = "evaluate predict"
DICTIONARIES = "preprocess train evaluate predict compare"

# (subcommands, arg, fault, content, expected[, argv]): a cell for each
# subcommand, run with the bad content in ``arg`` and then ``argv``.  The
# arg is a file argument ("corpus": the subcommand's corpus), a file next
# to the checkpoint, or a flag.  The content is the file's bytes, a
# function of the good file's bytes, None for no file, DIRECTORY for a
# directory in its place, or the flag's str value.  The error line must
# hold ``expected``, "{bad}" standing for the bad file's path.  The
# trained model has max_len 8 and 10 tokens.
Cell = namedtuple("Cell", "command arg content expected argv", defaults=[()])
TABLE = [
    (" ".join(FILES), "config", "unknown_key",
     # a second dropout on h_final equals a larger fc_dropout, so the
     # former lstm_dropout key is unknown like any other
     b"fc_dropout = 0.5\nlstm_dropout = 0.0\n",
     "unknown config keys: ['lstm_dropout']"),
    (" ".join(FILES), "config", "no_equals", b"epochs 5\n",
     "{bad}:1: expected 'key = value'"),
    (" ".join(FILES), "config", "fractions", b"train_fraction = 0.5\n",
     "config train_fraction, val_fraction, test_fraction: split fractions "
     "(0.5, 0.15, 0.15) sum to 0.8"),
    # training always shuffles, so the former shuffle key is unknown too
    ("train", "config", "unknown_key_shuffle", b"shuffle = false\n",
     "unknown config keys: ['shuffle']"),
    ("train", "config", "empty_split", NO_TRAIN, "train split is empty"),
    ("compare", "config", "empty_train", NO_TRAIN, "train split is empty"),
    ("compare", "config", "empty_split",
     b"train_fraction = 0.85\nval_fraction = 0.15\ntest_fraction = 0\n",
     "test split is empty"),
    ("compare", "config", "baselines=naive_bayse",
     b"baselines = naive_bayse\nepochs = 1\n",
     "config baselines = 'naive_bayse'"),
    ("fetch", "base_url", "not_a_url", "notaurl",
     "fetch failed: bad base URL notaurl: MissingSchema",
     ("--max-pages", "1")),
    (" ".join(CORPUS), "corpus", "bad_label",
     corpus_bytes([("1", "c", "ok", "positive"), ("2", "c", "ok", "netral")]),
     "{bad}: row 3: unknown label 'netral'"),
    (" ".join(CORPUS), "corpus", "field_limit", FIELD_OVER_LIMIT,
     "{bad}: row 7: field larger than field limit"),
    ("preprocess", "corpus", "field_limit_lenient", FIELD_OVER_LIMIT,
     "{bad}: row 7: field larger than field limit", ("--lenient",)),
    ("train evaluate compare", "corpus", "no_labels", corpus_bytes([]),
     "{bad}: no labeled records"),
    # one negative record cannot fill three nonzero splits
    ("train compare", "corpus", "unsplittable",
     corpus_bytes(separable_rows(1)), "1 records for 3 nonzero splits"),
    (DICTIONARIES, "roots", "empty", b"",
     "root-word dictionary {bad} is empty"),
    (DICTIONARIES, "slang", "empty_word", b"gak\ttidak\n\tkata\n",
     "{bad}:2: empty slang word"),
    *[(MODEL, "checkpoint", fault, corrupt, "{bad}: bad checkpoint: " + shown)
      for fault, corrupt, shown in (
          ("truncated", lambda b: b[:20], "truncated checkpoint"),
          ("trailing", lambda b: b + b"\0\0",
           "2 bytes after the checkpoint payload"),
          ("version", lambda b: b[:8] + b"\x09\0\0\0" + b[12:],
           "unsupported checkpoint version 9"),
          ("dtype", lambda b: b[:12] + b"\x07" + b[13:],
           "unknown dtype code 7"),
          ("three_classes", _three_classes, "3 classes, expected 2"),
          ("hidden_dim_zero", _hidden_dim_zero, "hidden_dim 0, expected >= 1"),
          # the dropout field, after the dimensions and the retired rate
          *[(f"fc_dropout_{name}",
             lambda b, rate=rate: b[:61] + struct.pack("<d", rate) + b[69:],
             f"fc_dropout {rate}, expected in [0, 1)")
            for name, rate in (("nan", math.nan), ("one", 1.0),
                               ("negative", -0.5), ("seven", 7.0))])],
    (MODEL, "vocab.txt", "extra_vocab_line", lambda b: b + b"tambahan\n",
     "{bad}: vocabulary size 11 does not match checkpoint (10)"),
    *[(MODEL, "vocab.txt.meta", fault, meta, "{bad}: " + shown)
      for fault, meta, shown in (
          ("no_max_len", b"min_freq=1\n", "no max_len"),
          ("abc", b"max_len=abc\nmin_freq=1\n", "max_len = 'abc'" + NOT_INT),
          ("0", b"max_len=0\nmin_freq=1\n", "max_len = '0'" + NOT_INT),
          ("min_freq", b"max_len=8\nmin_freq=x\n", "min_freq = 'x'" + NOT_INT),
          ("mismatch", b"max_len=9\nmin_freq=1\n",
           "max_len 9 does not match checkpoint (8)"))],
    # resolve_config parses every value before dispatch, for every
    # subcommand alike
    *[("train", "config", f"{key}={value}", f"{key} = {value}\n".encode(),
       f"config {key} = '{value}'")
      for key, values in BAD_CONFIG.items() for value in values],
    *[("train", key, value, value, f"config {key} = '{value}'")
      for key, value in BAD_FLAGS],
    *[(command, arg, fault, content, expected)
      for command, files in FILES.items() for arg in files
      for fault, (content, expected) in file_faults(arg).items()],
]
CELLS = {f"{command}-{arg}-{fault}": Cell(command, arg, *rest)
         for commands, name, fault, *rest in TABLE
         for command in commands.split()
         for arg in [CORPUS[command] if name == "corpus" else name]}


def check_bad_input(cell, root, run, capsys):
    """Run ``cell`` in ``root``, whose corpus.csv and trained model ``run``
    are good, and check the whole bad-input contract."""
    corpus = root / "corpus.csv"
    given = {"video_id": "vid", "max_pages": "0", "input": corpus,
             "corpus": corpus, "test_csv": corpus, "text": "bagus",
             "out": root / "out.csv", "out_dir": root / "out",
             "checkpoint": run / "checkpoint.bin",
             **{name: run / name for name in ("vocab.txt", "vocab.txt.meta")}}
    if isinstance(cell.content, str):
        bad = given[cell.arg] = cell.content
    else:  # the bad file takes the good one's place
        bad = given.setdefault(cell.arg, root / f"bad_{cell.arg}")
        good = bad.read_bytes() if bad.exists() else None
        bad.unlink(missing_ok=True)
        if cell.content is DIRECTORY:
            bad.mkdir()
        elif cell.content is not None:
            bad.write_bytes(cell.content(good) if callable(cell.content)
                            else cell.content)
    argv = [cell.command]
    for action in SUBCOMMANDS[cell.command]._actions:
        if action.dest in given:
            argv += [*action.option_strings[:1], given[action.dest]]
    before = sorted(root.rglob("*"))
    assert run_cli(*argv, *cell.argv) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    assert "Traceback" not in err and SECRET not in err
    assert cell.expected.format(bad=bad) in err, err
    assert "{bad}" not in cell.expected or err.count(str(bad)) == 1, err
    assert sorted(root.rglob("*")) == before


@pytest.fixture
def bad_input(tmp_path, trained_run, capsys, monkeypatch):
    """A function that checks the contract for each cell it is given."""
    monkeypatch.setenv("SENTIMEN_API_KEY", SECRET)
    write_corpus_csv(tmp_path / "corpus.csv", separable_rows())

    def check(*names):
        for name in names:
            check_bad_input(CELLS[name], tmp_path, trained_run, capsys)
    return check


# Cells that tests older than this table ran keep those tests' ids, which
# the end of the module registers: test -> its cells, or case id -> cells.
# Every other cell is a case of test_bad_input_exit_2.
KEPT = {
    "test_bad_config_value_exit_2_before_any_work": {
        key: [f"train-config-{key}={value}" for value in BAD_CONFIG[key]]
        for key in sorted(cli.SCHEMA)},
    "test_unknown_config_key_exit_2_before_any_work": [
        "train-config-unknown_key", "train-config-unknown_key_shuffle"],
    "test_bad_flag_value_exit_2_before_any_work": {
        f"--{key.replace('_', '-')}-{value}": [f"train-{key}-{value}"]
        for key, value in BAD_FLAGS},
    "test_split_fractions_not_summing_to_1_exit_2_before_any_work": [
        "train-config-fractions"],
    "TestPreprocessCommand::test_missing_dictionary_exit_2_with_path": [
        "preprocess-roots-missing"],
    "TestPreprocessCommand::test_empty_roots_exit_2_with_path": [
        "preprocess-roots-empty", "train-roots-empty"],
    "TestPreprocessCommand::test_empty_slang_word_exit_2_with_path": [
        "preprocess-slang-empty_word"],
    "TestPreprocessCommand::test_bad_row_strict_vs_lenient": [
        "preprocess-input-bad_label"],
    "TestEvaluateCommand::test_empty_test_file_exit_2": [
        "evaluate-test_csv-no_labels"],
    "TestEvaluateCommand::test_missing_checkpoint_exit_2": [
        "evaluate-checkpoint-missing"],
    "TestEvaluateCommand::test_missing_vocab_meta_exit_2": {
        "no_max_len": ["evaluate-vocab.txt.meta-no_max_len"]},
    "test_directory_or_file_in_wrong_place_exit_2": {
        arg: [f"{command}-{arg}-{'file' if arg == 'out_dir' else 'directory'}"]
        for command, arg in (
            ("train", "corpus"), ("train", "config"), ("preprocess", "roots"),
            ("evaluate", "checkpoint"), ("evaluate", "vocab"),
            ("train", "out_dir"))},
    "test_non_utf8_file_exit_2_naming_it": {
        "corpus": ["preprocess-input-not_utf8"],
        **{kind: [f"preprocess-{kind}-not_utf8"]
           for kind in ("roots", "stopwords", "slang")}},
    "test_bad_input_leaves_no_out_dir": {
        "train-roots": ["train-roots-not_utf8"],
        "evaluate-roots": ["evaluate-roots-not_utf8"],
        "compare-roots": ["compare-roots-not_utf8"],
        "train-unsplittable": ["train-corpus-unsplittable"],
        "compare-unsplittable": ["compare-corpus-unsplittable"],
        "train-empty_split": ["train-config-empty_split"],
        "compare-empty_split": ["compare-config-empty_split"],
        "compare-empty_train": ["compare-config-empty_train"]},
    "test_non_utf8_config_or_vocab_exit_2_naming_it": {
        "config": ["train-config-not_utf8"],
        "vocab": ["predict-vocab.txt-not_utf8"],
        "vocab_meta": ["predict-vocab.txt.meta-not_utf8"]},
    "test_bad_vocab_meta_exit_2_naming_it": {
        case: [f"predict-vocab.txt.meta-{case}"]
        for case in ("abc", "0", "min_freq", "mismatch")},
    "test_bad_model_file_exit_2_naming_it": {
        **{f"{fault}-{command}": [f"{command}-{arg}-{fault}"]
           for commands, arg, fault, *_ in TABLE
           if commands == MODEL and arg != "vocab.txt.meta"
           for command in MODEL.split()},
        **{f"no_meta-{command}": [f"{command}-vocab.txt.meta-missing"]
           for command in MODEL.split()}},
    "test_csv_field_over_size_limit_exit_2": {
        **{command: [f"{command}-{arg}-field_limit"]
           for command, arg in CORPUS.items()},
        "preprocess_lenient": ["preprocess-input-field_limit_lenient"]},
    "TestCompareCommand::test_unknown_baseline_exit_2": [
        "compare-config-baselines=naive_bayse"],
    "TestFetchCommand::test_bad_base_url_exit_2": ["fetch-base_url-not_a_url"],
}


def kept(cases):
    """The bad-input test of one test's ``KEPT`` cases."""
    if isinstance(cases, list):
        return lambda bad_input: bad_input(*cases)

    @pytest.mark.parametrize("cells", list(cases.values()), ids=list(cases))
    def test(bad_input, cells):
        bad_input(*cells)
    return test


@pytest.mark.parametrize("name", sorted(set(CELLS).difference(*(
    [cell for cells in cases.values() for cell in cells]
    if isinstance(cases, dict) else cases for cases in KEPT.values()))))
def test_bad_input_exit_2(bad_input, name):
    bad_input(name)


# the arguments that name no file, and --out-dir, a file of the three
# subcommands that FILES lists it for
NOT_FILES = {"help", "seed", "quiet", "text", "video_id", "max_pages",
             "base_url", "lenient", "epochs", "batch_size", "learning_rate",
             "max_len", "out_dir"}


def test_every_file_argument_has_bad_input_cells():
    assert set(SUBCOMMANDS) == set(FILES)
    covered = {(cell.command, cell.arg) for cell in CELLS.values()}
    for command, parser in SUBCOMMANDS.items():
        parsed = {a.dest for a in parser._actions} - NOT_FILES
        assert parsed == set(FILES[command]) - {"out_dir", "vocab.txt",
                                                "vocab.txt.meta"}
        assert {(command, arg) for arg in FILES[command]} <= covered


def test_flag_values_echoed_as_given(tmp_path, separable_csv):
    out_dir = tmp_path / "run"
    assert run_cli("--quiet", "--out-dir", out_dir, "train", separable_csv,
                   "--epochs", "0", "--learning-rate", "1e-3") == 0
    echoed = (out_dir / "config.resolved.txt").read_text("utf-8")
    assert "learning_rate = 1e-3\n" in echoed.splitlines(keepends=True)


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

    def test_empty_stopwords_and_slang_ok(self, tmp_path, toy_corpus_csv):
        empty = tmp_path / "empty.txt"
        empty.write_text("", "utf-8")
        assert run_cli("--quiet", "preprocess", toy_corpus_csv, "--out",
                       tmp_path / "x.csv", "--stopwords", empty, "--slang",
                       empty) == 0

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


BOM = "\ufeff".encode("utf-8")


@pytest.mark.parametrize("kind", ["corpus", "roots", "stopwords", "slang"])
def test_byte_order_mark_reads_as_the_file_without_it(tmp_path, capsys,
                                                      kind):
    # each dictionary's first entry, and the corpus header's first name,
    # sits right after the mark
    rows = [("a1", "c", "makanan bgs sekali enak", "positive"),
            ("a2", "c", "jelek sekali", "negative")]
    plain = {"corpus": write_corpus_csv(tmp_path / "plain.csv", rows),
             "roots": tmp_path / "roots.txt",
             "stopwords": tmp_path / "stopwords.txt",
             "slang": tmp_path / "slang.tsv"}
    plain["roots"].write_text("makan\nenak\njelek\n", "utf-8")
    plain["stopwords"].write_text("sekali\n", "utf-8")
    plain["slang"].write_text("bgs\tbagus\n", "utf-8")
    marked = tmp_path / f"bom_{plain[kind].name}"
    marked.write_bytes(BOM + plain[kind].read_bytes())
    tokens = {}
    for name, path in (("plain", plain[kind]), ("marked", marked)):
        corpus, flags = ((path, []) if kind == "corpus"
                         else (plain["corpus"], [f"--{kind}", path]))
        out = tmp_path / f"{name}_tokens.csv"
        assert run_cli("preprocess", corpus, "--out", out, *flags) == 0
        tokens[name] = out.read_bytes()
    assert tokens["marked"] == tokens["plain"]
    # stemmed to the root, slang mapped, stopword gone
    assert b"\na1,c,makanan bgs sekali enak,positive,makan bagus enak\r\n" \
        in tokens["marked"]


def test_config_byte_order_mark_reads_as_the_file_without_it(tmp_path,
                                                             separable_csv):
    text = "seed = 5\nepochs = 1\nembed_dim = 6\nhidden_dim = 6\n"
    histories = []
    for name, head in (("plain", b""), ("marked", BOM)):
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(head + text.encode("utf-8"))
        out_dir = tmp_path / name
        assert run_cli("--out-dir", out_dir, "--quiet", "train",
                       separable_csv, "--config", cfg) == 0
        assert "seed = 5\n" in (out_dir / "config.resolved.txt").read_text(
            "utf-8")
        histories.append((out_dir / "history.csv").read_bytes())
    assert histories[0] == histories[1]


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

    def test_texts_before_between_or_after_options(self, trained_run, capsys):
        ckpt, vocab = trained_run / "checkpoint.bin", trained_run / "vocab.txt"
        a, b = "bagus enak mantap", "buruk jelek gagal"
        shown = []
        for argv in ([ckpt, a, b, "--vocab", vocab, "--quiet"],
                     [ckpt, a, "--vocab", vocab, b, "--quiet"],
                     [ckpt, "--vocab", vocab, "--quiet", a, b],
                     ["--quiet", "--vocab", vocab, ckpt, a, b]):
            assert run_cli("predict", *argv) == 0
            shown.append(capsys.readouterr().out)
        assert len(shown[0].splitlines()) == 2 and len(set(shown)) == 1
        # any other word left over is still a usage error
        for argv in (["predict", ckpt, "--bogus", a], ["train", ckpt, a]):
            with pytest.raises(SystemExit, match="2"):
                run_cli(*argv)

    def test_adam_state_at_a_huge_step_count(self, trained_run, capsys):
        # predict never reads the Adam state, and loading it sizes nothing
        # by its step count
        ckpt = trained_run / "checkpoint.bin"
        params, _ = nn.load_checkpoint(ckpt)
        adam = nn.AdamState.for_params(params)
        adam.t = 2 ** 40
        nn.save_checkpoint(ckpt, params, adam)
        assert run_cli("predict", ckpt, "bagus enak mantap") == 0
        assert capsys.readouterr().out.startswith("positive\t")

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

    @pytest.mark.parametrize("body", [
        b'{"items": ["x"]}', b'{"items": [{"snippet": 5}]}', b'{"items": 7}',
        b'{"items": [{"snippet": {"topLevelComment": {"id": 7, '
        b'"snippet": {"textOriginal": {"a": 1}}}}}]}',
        b'{"items": [{"snippet": {"topLevelComment": {"id": 7, '
        b'"snippet": {"textOriginal": "bagus"}}}}]}'])
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

    @pytest.mark.parametrize("body", [b'{"error": "quota"}',
                                      b'{"error": {"errors": "x"}}',
                                      b'{"error": {"errors": [1]}}'])
    def test_malformed_error_body_exit_3(self, tmp_path, monkeypatch, capsys,
                                         body):
        monkeypatch.setenv("SENTIMEN_API_KEY", "k")

        class FakeSession:
            def get(self, url, params, timeout):
                resp = requests.Response()
                resp.status_code, resp._content = 403, body
                return resp

        monkeypatch.setattr(cli.youtube, "fetch_comments", functools.partial(
            youtube.fetch_comments, session=FakeSession()))
        out = tmp_path / "fetched.csv"
        assert run_cli("fetch", "vid", "--out", out) == 3
        assert_one_error_line(capsys, "error: fetch failed: authentication "
                                      "failed (HTTP 403)")
        assert not out.exists()


# KEPT's tests, under their names
for _name, _cases in KEPT.items():
    _cls, _, _test = _name.rpartition("::")
    if _cls:
        setattr(globals()[_cls], _test, staticmethod(kept(_cases)))
    else:
        globals()[_test] = kept(_cases)
