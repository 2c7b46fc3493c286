import csv
import io

import pytest

from sentimen import cli
from sentimen.preprocess import run_pipeline
from sentimen.train import load_history_csv

from conftest import write_corpus_csv


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

    def test_bad_row_strict_vs_lenient(self, tmp_path):
        src = write_corpus_csv(tmp_path / "bad.csv",
                               [("1", "c", "ok", "positive"),
                                ("2", "c", "ok", "netral")])
        assert run_cli("preprocess", src, "--out", tmp_path / "o.csv") == 2
        assert run_cli("preprocess", src, "--out", tmp_path / "o.csv",
                       "--lenient") == 0


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
        history = load_history_csv(out_dir / "history.csv")
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
        assert load_history_csv(out_dir / "history.csv") == []

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

    def test_mistyped_shuffle_exit_2(self, tmp_path, separable_csv, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("shuffle = ture\nepochs = 1\n", "utf-8")
        out_dir = tmp_path / "run"
        assert run_cli("--out-dir", out_dir, "--quiet", "train", separable_csv,
                       "--config", cfg) == 2
        assert "ture" in capsys.readouterr().err
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

        from sentimen.evaluation import report_from_csv
        parsed = report_from_csv((out_dir / "report.csv").read_text())
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
