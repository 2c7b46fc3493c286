"""Command-line surface: fetch, preprocess, train, evaluate, predict, compare.

Exit codes: 0 success, 1 internal error, 2 bad input/config, 3 external
service failure.  Configuration is a flat ``key = value`` file (# comments)
with command-line flags taking precedence; the fully resolved config is
echoed into the output directory before any long-running work.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from pathlib import Path

import numpy as np

from . import baselines, evaluation, ingest, nn, svgplot, youtube
from .preprocess import (PreprocessConfig, _file_text, read_slang_tsv,
                         read_wordlist, run_pipeline)
from .train import (EncodedDataset, TrainConfig, save_history_csv,
                    train as train_model)
from .vocab import build_vocab, encode, load_vocab, save_vocab, suggest_max_len

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_BAD_INPUT = 2
EXIT_EXTERNAL = 3


class CliError(Exception):
    """A bad input or config; ``main`` prints it and exits 2."""


# --- configuration -----------------------------------------------------------

def _checked(convert, expected: str, accepts=lambda _: True,
             optional: bool = False):
    """A parser of one config string: ``convert`` it and keep the value if
    it ``accepts`` it, else raise ``ValueError`` saying what is ``expected``.
    With ``optional``, the empty string parses to None."""
    def parse(raw: str):
        if optional and raw == "":
            return None
        try:
            value = convert(raw)
            if accepts(value):
                return value
        except (KeyError, ValueError):
            pass
        raise ValueError(f"expected {expected}")
    return parse


def _integer(low: int, optional: bool = False, high: int | None = None):
    expected = (f"an integer >= {low}" if high is None
                else f"an integer in [{low}, {high}]")
    return _checked(int, expected,
                    lambda n: n >= low and (high is None or n <= high),
                    optional)


def _real(accepts, expected: str):
    return _checked(float, f"a finite number {expected}",
                    lambda x: math.isfinite(x) and accepts(x))


_positive = _real(lambda x: x > 0, "> 0")
_rate = _real(lambda x: 0 <= x < 1, "in [0, 1)")
_fraction = _real(lambda x: 0 <= x <= 1, "in [0, 1]")

# key -> (default, parser).  resolve_config parses every key once, before
# any command reads its inputs or creates its out-dir.
SCHEMA = {
    # one 32-bit word: seeds.stream keys a generator by (seed, id, index),
    # and a larger seed's extra words would alias another seed's keys
    "seed": ("0", _integer(0, high=2**32 - 1)),
    "epochs": ("20", _integer(0)),
    "batch_size": ("16", _integer(1)),
    "learning_rate": ("0.0005", _positive),
    "embed_dim": ("128", _integer(1)),
    "hidden_dim": ("128", _integer(1)),
    "fc_dropout": ("0.5", _rate),
    "min_freq": ("1", _integer(1)),
    # empty -> 95th percentile of train lengths
    "max_len": ("", _integer(1, optional=True)),
    # resolve_config checks their sum through SplitSpec
    "train_fraction": ("0.70", _fraction),
    "val_fraction": ("0.15", _fraction),
    "test_fraction": ("0.15", _fraction),
    # e.g. "1.0,4.0"; empty -> unweighted
    "class_weights": ("", _checked(
        lambda raw: tuple(map(_positive, raw.split(","))),
        "two comma-separated finite numbers > 0", lambda ws: len(ws) == 2,
        optional=True)),
    "dtype": ("float32", _checked(
        {"float32": np.float32, "float64": np.float64}.__getitem__,
        "one of ['float32', 'float64']")),
    "baselines": (",".join(baselines.MODELS), _checked(
        lambda raw: [p.strip() for p in raw.split(",") if p.strip()],
        f"comma-separated names from {list(baselines.MODELS)}",
        lambda names: set(names) <= set(baselines.MODELS))),
}


class Config(dict):
    """Each key's value as ``SCHEMA`` parsed it; ``text`` keeps the
    resolved strings, which ``echo_config`` writes, and ``split`` is the
    ``SplitSpec`` of the three fractions and the seed."""

    def __init__(self, values: dict, text: dict[str, str],
                 split: ingest.SplitSpec):
        super().__init__(values)
        self.text = text
        self.split = split


def parse_config_file(path: Path) -> dict[str, str]:
    values: dict[str, str] = {}
    for ln, raw in enumerate(_file_text(path).splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(f"{path}:{ln}: expected 'key = value'")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> Config:
    """Defaults, then the config file, then flags; every value parsed."""
    text = {key: default for key, (default, _) in SCHEMA.items()}
    if args.config:
        path = Path(args.config)
        if not path.exists():
            raise CliError(f"config file not found: {path}")
        file_values = parse_config_file(path)
        unknown = set(file_values) - set(SCHEMA)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
        text.update(file_values)
    for key in ("seed", "epochs", "batch_size", "learning_rate", "max_len"):
        value = getattr(args, key, None)
        if value is not None:
            text[key] = value
    values = {}
    for key, (_, parse) in SCHEMA.items():
        try:
            values[key] = parse(text[key])
        except ValueError as exc:
            raise CliError(f"config {key} = '{text[key]}': {exc}") from None
    try:
        split = ingest.SplitSpec(values["train_fraction"],
                                 values["val_fraction"],
                                 values["test_fraction"], seed=values["seed"])
    except ValueError as exc:
        raise CliError(f"config train_fraction, val_fraction, "
                       f"test_fraction: {exc}") from None
    return Config(values, text, split)


def echo_config(cfg: Config, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    lines = [f"{k} = {cfg.text[k]}" for k in sorted(cfg.text)]
    (out_dir / "config.resolved.txt").write_text("\n".join(lines) + "\n", "utf-8")


def preprocess_config(args: argparse.Namespace) -> PreprocessConfig:
    """Bundled dictionaries unless a file override was given."""
    overrides = {}
    try:
        if getattr(args, "roots", None):
            overrides["roots"] = read_wordlist(args.roots)
        if getattr(args, "stopwords", None):
            overrides["stopwords"] = read_wordlist(args.stopwords)
        if getattr(args, "slang", None):
            overrides["slang"] = read_slang_tsv(args.slang)
    except FileNotFoundError as exc:
        raise CliError(f"dictionary file not found: {exc.filename}") from None
    # no stopwords or slang is a choice; no roots would turn stemming off
    if "roots" in overrides and not overrides["roots"]:
        raise CliError(f"root-word dictionary {args.roots} is empty")
    return PreprocessConfig.default(**overrides)


# --- shared pipeline pieces ----------------------------------------------------

def _tokenized(ds: ingest.Dataset, pp: PreprocessConfig,
               quiet: bool) -> list[list[str]]:
    """Tokens of the labeled records of ``ds``: the corpus's ``tokens``
    column when it has one, else the preprocessing pipeline's."""
    labeled = [r for r in ds.records if r.label is not None]
    if all(r.tokens is not None for r in labeled):
        return [list(r.tokens) for r in labeled]
    texts = [r.text for r in labeled]
    if not quiet:
        print(f"preprocessing {len(texts)} comments...", file=sys.stderr)
    return [run_pipeline(text, pp) for text in texts]


# --- commands ------------------------------------------------------------------

def cmd_fetch(args, cfg) -> int:
    comments = youtube.fetch_comments(
        args.video_id, max_pages=args.max_pages, base_url=args.base_url)
    ingest.save_csv(comments, args.out)
    if not args.quiet:
        print(f"wrote {len(comments)} comments to {args.out}")
    return EXIT_OK


def cmd_preprocess(args, cfg) -> int:
    ds = ingest.load_csv(args.input, strict=not args.lenient)
    pp = preprocess_config(args)
    for row, reason in ds.skipped:
        print(f"warning: {args.input}: row {row} skipped: {reason}",
              file=sys.stderr)
    tokens = [run_pipeline(r.text, pp) for r in ds.records]
    ingest.save_csv(ds, args.out,
                    extra_columns={"tokens": [" ".join(t) for t in tokens]})
    if not args.quiet:
        print(f"wrote {len(ds)} tokenized rows to {args.out}")
    return EXIT_OK


def _split_and_encode(args, cfg, pp, needed: tuple[str, ...]):
    """(docs, labels) of the train, validation and test splits of the
    labeled records of the corpus; the ``needed`` splits ("train", "test")
    must not be empty.  The out-dir is made, and the resolved config
    written to it, once the corpus has been read and split."""
    full = ingest.load_csv(args.corpus)
    labels = [r.label for r in full.records if r.label is not None]
    if not labels:
        raise CliError(f"{args.corpus}: no labeled records")
    parts = ingest.stratified_indices(labels, cfg.split)
    for name, part in zip(("train", "val", "test"), parts):
        if name in needed and not part:
            raise CliError(f"{name} split is empty; adjust split fractions")
    echo_config(cfg, Path(args.out_dir))
    docs = _tokenized(full, pp, args.quiet)
    return tuple(([docs[i] for i in part], [int(labels[i]) for i in part])
                 for part in parts)


def _train_lstm(cfg, vocab, train_split, val_split, quiet):
    """Build the LSTM and the TrainConfig the resolved config asks for and
    train on the (docs, labels) splits.  The model's max_len defaults to
    the 95th percentile of training lengths."""
    max_len = cfg["max_len"] or suggest_max_len(train_split[0])
    model_cfg = nn.ModelConfig(
        vocab_size=vocab.size, embed_dim=cfg["embed_dim"],
        hidden_dim=cfg["hidden_dim"], max_len=max_len,
        fc_dropout=cfg["fc_dropout"])
    params = nn.init_params(model_cfg, seed=cfg["seed"], dtype=cfg["dtype"])
    train_cfg = TrainConfig(
        batch_size=cfg["batch_size"], learning_rate=cfg["learning_rate"],
        epochs=cfg["epochs"], seed=cfg["seed"],
        class_weights=cfg["class_weights"])
    if train_cfg.epochs == 0:
        print("warning: epochs = 0, nothing to train", file=sys.stderr)

    def enc(docs, labels):
        return EncodedDataset(*encode(docs, vocab, max_len),
                              np.array(labels, dtype=np.int64))

    return train_model(params, enc(*train_split),
                       enc(*val_split) if val_split[0] else None,
                       train_cfg, log=None if quiet else sys.stderr)


def cmd_train(args, cfg) -> int:
    out_dir = Path(args.out_dir)
    pp = preprocess_config(args)
    (train_docs, train_labels), (val_docs, val_labels), _ = \
        _split_and_encode(args, cfg, pp, ("train",))

    vocab = build_vocab(train_docs, min_freq=cfg["min_freq"])
    result = _train_lstm(cfg, vocab, (train_docs, train_labels),
                         (val_docs, val_labels), args.quiet)
    save_vocab(vocab, out_dir / "vocab.txt",
               result.final_params.config.max_len, min_freq=cfg["min_freq"])

    save_history_csv(result.history, out_dir / "history.csv")
    nn.save_checkpoint(out_dir / "checkpoint.bin", result.final_params)
    if result.best_params is not None:
        nn.save_checkpoint(out_dir / "checkpoint_best.bin", result.best_params)
    if result.history:
        (out_dir / "loss.svg").write_text(svgplot.line_plot(
            {"train": [s.train_loss for s in result.history],
             "val": [s.val_loss for s in result.history]},
            "training and validation loss", "loss"), "utf-8")
        (out_dir / "accuracy.svg").write_text(svgplot.line_plot(
            {"train": [s.train_accuracy for s in result.history],
             "val": [s.val_accuracy for s in result.history]},
            "training and validation accuracy", "accuracy"), "utf-8")
    if not args.quiet:
        print(f"trained {len(result.history)} epochs; artifacts in {out_dir}")
    return EXIT_OK


def _load_model(args):
    ckpt = Path(args.checkpoint)
    if not ckpt.exists():
        raise CliError(f"checkpoint not found: {ckpt}")
    try:
        params, _ = nn.load_checkpoint(ckpt)
    except nn.CheckpointError as exc:
        raise CliError(f"{ckpt}: bad checkpoint: {exc}") from None
    if params.config.num_classes != len(ingest.Label):
        raise CliError(f"{ckpt}: bad checkpoint: {params.config.num_classes} "
                       f"classes, expected {len(ingest.Label)}")
    vocab_path = Path(args.vocab) if args.vocab else ckpt.parent / "vocab.txt"
    if not vocab_path.exists():
        raise CliError(f"vocabulary file not found: {vocab_path}")
    vocab, max_len, _ = load_vocab(vocab_path)
    if vocab.size != params.config.vocab_size:
        raise CliError(f"{vocab_path}: vocabulary size {vocab.size} does not "
                       f"match checkpoint ({params.config.vocab_size})")
    if max_len != params.config.max_len:
        raise CliError(f"{vocab_path}.meta: max_len {max_len} does not match "
                       f"checkpoint ({params.config.max_len})")
    return params, vocab


def cmd_evaluate(args, cfg) -> int:
    out_dir = Path(args.out_dir)
    params, vocab = _load_model(args)
    full = ingest.load_csv(args.test_csv)
    ds = full.labeled_only()
    if len(ds) == 0:
        raise CliError(f"{args.test_csv}: no labeled records")
    pp = preprocess_config(args)
    echo_config(cfg, out_dir)
    docs = _tokenized(full, pp, args.quiet)

    preds = [int(p.label) for p in nn.predict_encoded(
        params, *encode(docs, vocab, params.config.max_len))]
    truth = [int(r.label) for r in ds.records]

    cm = evaluation.confusion(preds, truth)
    rep = evaluation.report_from_confusion(cm)
    text = evaluation.render_text(rep)
    (out_dir / "report.txt").write_text(text + "\n", "utf-8")
    (out_dir / "report.csv").write_text(evaluation.report_to_csv(rep), "utf-8")
    (out_dir / "confusion.csv").write_text(evaluation.confusion_to_csv(cm), "utf-8")
    (out_dir / "confusion.svg").write_text(evaluation.confusion_svg(cm), "utf-8")
    if not args.quiet:
        print(text)
    return EXIT_OK


def cmd_predict(args, cfg) -> int:
    params, vocab = _load_model(args)
    pp = preprocess_config(args)
    # a chunk of lines is one encoded corpus, printed before the next is
    # read, so stdin streams
    lines = iter(args.text) if args.text else (l.rstrip("\n") for l in sys.stdin)
    while chunk := list(itertools.islice(lines, nn._PREDICT_BATCH)):
        docs = [run_pipeline(line, pp) for line in chunk]
        encoded = encode(docs, vocab, params.config.max_len)
        for pred in nn.predict_encoded(params, *encoded):
            name = ingest.LABEL_NAMES[pred.label]
            prob = float(pred.probabilities[int(pred.label)])
            if pred.low_confidence:
                print(f"{name} (low-confidence: empty after preprocessing)"
                      f"\t{prob:.4f}")
            else:
                print(f"{name}\t{prob:.4f}")
        sys.stdout.flush()
    return EXIT_OK


def cmd_compare(args, cfg) -> int:
    out_dir = Path(args.out_dir)
    pp = preprocess_config(args)
    (train_docs, train_labels), (val_docs, val_labels), \
        (test_docs, test_labels) = _split_and_encode(args, cfg, pp,
                                                     ("train", "test"))

    vocab = build_vocab(train_docs, min_freq=cfg["min_freq"])
    rows = baselines.run_comparison(train_docs, train_labels, test_docs,
                                    test_labels, vocab, seed=cfg["seed"],
                                    include=cfg["baselines"])

    # the LSTM row is always present, baselines config notwithstanding
    model = _train_lstm(cfg, vocab, (train_docs, train_labels),
                        (val_docs, val_labels), args.quiet).final_params
    lstm_preds = [int(p.label) for p in nn.predict_encoded(
        model, *encode(test_docs, vocab, model.config.max_len))]
    lstm_rep = evaluation.report(lstm_preds, test_labels)
    rows.append(baselines.ComparisonRow("lstm", lstm_rep.accuracy,
                                        lstm_rep.macro_f1))

    table = baselines.compare_models(rows)
    csv_lines = ["model,accuracy,macro_f1"] + [
        f"{r.model},{r.accuracy:.4f},{r.macro_f1:.4f}" for r in rows]
    (out_dir / "comparison.csv").write_text("\n".join(csv_lines) + "\n", "utf-8")
    (out_dir / "comparison.txt").write_text(table + "\n", "utf-8")
    if not args.quiet:
        print(table)
    return EXIT_OK


# --- entry point -----------------------------------------------------------------

GLOBAL_DEFAULTS = {"config": None, "seed": None, "out_dir": "out",
                   "quiet": False}


def _global_flags() -> argparse.ArgumentParser:
    # SUPPRESS defaults let these appear before or after the subcommand
    # without the subparser clobbering root-level values
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", default=argparse.SUPPRESS,
                        help="flat key = value config file")
    common.add_argument("--seed", default=argparse.SUPPRESS)
    common.add_argument("--out-dir", dest="out_dir",
                        default=argparse.SUPPRESS,
                        help="artifact directory for train/evaluate/compare")
    common.add_argument("--quiet", action="store_true",
                        default=argparse.SUPPRESS)
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _global_flags()
    parser = argparse.ArgumentParser(
        prog="sentimen",
        description="Indonesian sentiment classification toolkit",
        parents=[common])
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: argparse.ArgumentParser(
                                    parents=[common], **kw))

    def add_dict_flags(p):
        p.add_argument("--roots", help="root-word dictionary file override")
        p.add_argument("--stopwords", help="stopword list file override")
        p.add_argument("--slang", help="slang map TSV override")

    p = sub.add_parser("fetch", help="fetch comments into a corpus CSV")
    p.add_argument("video_id")
    p.add_argument("--max-pages", type=int, default=1)
    p.add_argument("--out", required=True)
    p.add_argument("--base-url", default=youtube.DEFAULT_BASE_URL)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("preprocess", help="tokenize a corpus CSV")
    p.add_argument("input")
    p.add_argument("--out", required=True)
    p.add_argument("--lenient", action="store_true",
                   help="skip bad rows instead of aborting")
    add_dict_flags(p)
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("train", help="train the LSTM classifier")
    p.add_argument("corpus")
    for flag in ("--epochs", "--batch-size", "--learning-rate", "--max-len"):
        p.add_argument(flag)  # a string, parsed by SCHEMA like the file's
    add_dict_flags(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a test CSV")
    p.add_argument("checkpoint")
    p.add_argument("test_csv")
    p.add_argument("--vocab", help="vocabulary file (default: next to checkpoint)")
    add_dict_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("predict", help="classify text lines")
    p.add_argument("checkpoint")
    p.add_argument("text", nargs="*", help="texts; stdin lines when omitted")
    p.add_argument("--vocab")
    add_dict_flags(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("compare", help="baseline/LSTM comparison table")
    p.add_argument("corpus")
    p.add_argument("--epochs")
    add_dict_flags(p)
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args, extra = parser.parse_known_args(argv)
    # argparse matches predict's texts, empty, before an option and leaves
    # the words after it over: those are texts too
    if args.func is cmd_predict and not any(a.startswith("-") for a in extra):
        args.text += extra
        extra = []
    if extra:
        parser.error(f"unrecognized arguments: {' '.join(extra)}")
    for key, value in GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        cfg = resolve_config(args)
        return args.func(args, cfg)
    except youtube.FetchError as exc:
        print(f"error: fetch failed: {exc}", file=sys.stderr)
        return (EXIT_BAD_INPUT if isinstance(exc, youtube.InvalidUrlError)
                else EXIT_EXTERNAL)
    except (CliError, ingest.CorpusError, FloatingPointError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
