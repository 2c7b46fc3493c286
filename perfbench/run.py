"""Paper-scale benchmark of the sentimen toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--quick]

Run from the root of a source checkout: the program is imported from
``src/``.  The run generates its inputs from ``--seed`` under
``.perfbench_out/``, measures the workload in a fresh process
(``workload.py``) for ``--seconds``, checks the program's outputs against
the independent computations in ``reference.py`` and prints, as its last
line, one JSON object: ``correct``, ``attempted``, ``failed`` and the
``metrics`` (end-to-end with ``--trace 0``, per-layer with ``--trace 1``).
``--quick`` runs a small corpus at tiny model dimensions.  The workloads and
metrics are described in README.md next to this file.
"""

from __future__ import annotations

import os

# BLAS threads are fixed before numpy loads, here and in the measured child
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import asdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
DATA = SRC / "sentimen" / "data"
OUT = ROOT / ".perfbench_out"
TIME_LIMIT_S = 175.0
SETUP_PROCESSES = 5  # set-up is timed in this many fresh processes

WORKLOADS = ("train_paper", "infer_paper", "text_baselines")
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "items_per_s": "1/s",
                    "round_s": "s", "latency_p50_ms": "ms", "latency_p99_ms": "ms",
                    "quality": "ratio"}
PAPER_EPOCHS = 1
# text_baselines fits the linear SVM on the corpus of this fixed seed, the
# same in every run: on it the program's fit ends with a hinge objective
# above its value at w = 0 (1.71 against 1.0), so that fit fails in every
# round, while on other seeds it fails only now and then (README.md)
SVM_CORPUS_SEED = 789478892
# the served model is trained at 4x the batch, and 4x the rate, to keep the
# set-up short; its dimensions are the paper's
FIXTURE_ARGS = ["--batch-size", "64", "--learning-rate", "0.002"]
# --quick: tiny dimensions, and a learning rate that moves them in 3 epochs
QUICK_EPOCHS = 3
QUICK_CONFIG = "embed_dim = 8\nhidden_dim = 8\nlearning_rate = 0.01\n"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--quick", action="store_true",
                   help="small corpus and tiny model dimensions")
    return p.parse_args(argv)


def prepare(args, run_dir: Path) -> dict:
    """Write the run's inputs and the spec the measured process reads."""
    import corpus
    from sentimen import cli, ingest

    shape = corpus.QUICK_SHAPE if args.quick else corpus.PAPER_SHAPE
    comments = corpus.generate(corpus.Dictionaries.read(DATA), shape, args.seed)
    corpus_csv = run_dir / "corpus.csv"
    corpus.write_csv(comments, corpus_csv)
    (run_dir / "comments.json").write_text(
        json.dumps([asdict(c) for c in comments]), "utf-8")

    # the split the program's train, evaluate and compare commands make
    labeled = ingest.load_csv(corpus_csv).labeled_only()
    parts = ingest.stratified_split(labeled, ingest.SplitSpec(0.70, 0.15, 0.15, seed=0))
    unlabeled = [c for c in comments if not c.label]
    split = {"all": [c.id for c in comments],
             "unlabeled": [c.id for c in unlabeled],
             **{name: [r.id for r in part.records]
                for name, part in zip(("train", "val", "test"), parts)}}
    (run_dir / "split.json").write_text(json.dumps(split), "utf-8")
    (run_dir / "unlabeled.json").write_text(
        json.dumps([c.text for c in unlabeled]), "utf-8")

    config_args = []
    if args.quick:
        (run_dir / "quick.cfg").write_text(QUICK_CONFIG, "utf-8")
        config_args = ["--config", str(run_dir / "quick.cfg")]
    spec = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "src": str(SRC), "run_dir": str(run_dir),
        "trace_file": str(OUT / f"trace-{args.workload}-seed{args.seed}.json"),
        "corpus": str(corpus_csv), "comments": str(run_dir / "comments.json"),
        "split": str(run_dir / "split.json"),
        "unlabeled": str(run_dir / "unlabeled.json"),
        "epochs": QUICK_EPOCHS if args.quick else PAPER_EPOCHS,
        "config_args": config_args,
        "n_comments": len(comments), "n_train": len(split["train"]),
        "n_test": len(split["test"]),
    }
    if args.workload == "text_baselines":
        spec["svm_inputs"] = str(run_dir / "svm_inputs.json")
        _write_svm_inputs(Path(spec["svm_inputs"]), run_dir)
    if args.workload == "infer_paper":
        # the model served is written by the program's own train command
        test_csv = run_dir / "test.csv"
        ingest.save_csv(parts[2], test_csv)
        model = run_dir / "model"
        code = cli.main(["train", str(corpus_csv), "--epochs", str(spec["epochs"]),
                         "--out-dir", str(model), "--quiet", *FIXTURE_ARGS,
                         *config_args])
        if code != 0:
            raise RuntimeError(f"set-up train exited with {code}")
        spec.update(test_csv=str(test_csv), checkpoint=str(model / "checkpoint.bin"),
                    vocab=str(model / "vocab.txt"))
    (run_dir / "spec.json").write_text(json.dumps(spec), "utf-8")
    return spec


def _write_svm_inputs(path: Path, run_dir: Path) -> None:
    """The tokenized train and test splits of the fixed SVM corpus, made by
    the program's own split and preprocessing."""
    import corpus
    from sentimen import ingest, preprocess

    comments = corpus.generate(corpus.Dictionaries.read(DATA), corpus.PAPER_SHAPE,
                               SVM_CORPUS_SEED)
    corpus_csv = run_dir / "svm_corpus.csv"
    corpus.write_csv(comments, corpus_csv)
    labeled = ingest.load_csv(corpus_csv).labeled_only()
    train, _, test = ingest.stratified_split(
        labeled, ingest.SplitSpec(0.70, 0.15, 0.15, seed=0))
    pp = preprocess.PreprocessConfig.default()
    inputs = {}
    for name, part in (("train", train), ("test", test)):
        inputs[f"{name}_docs"] = [preprocess.run_pipeline(r.text, pp)
                                  for r in part.records]
        inputs[f"{name}_labels"] = [int(r.label) for r in part.records]
    path.write_text(json.dumps(inputs), "utf-8")


def _remaining(started: float) -> float:
    return TIME_LIMIT_S - (time.monotonic() - started)


def _corpus_facts(inputs, spec: dict, run_dir: Path) -> str:
    """Vocabulary reached, max_len chosen, share of comments left empty."""
    import reference
    ids = inputs.split["all"]
    empty = sum(1 for i in ids if not inputs.tokens(i)) / len(ids)
    facts = f"empty after preprocessing {empty:.4f}"
    vocab = Path(spec.get("vocab", run_dir / "round0" / "vocab.txt"))
    if vocab.exists():
        tokens, max_len = reference.read_vocab(vocab)
        facts += f", vocabulary {len(tokens) + 2}, max_len {max_len}"
    return facts


def main(argv=None) -> int:
    args = _parse(argv)
    started = time.monotonic()
    if not (SRC / "sentimen" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'sentimen'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import checks
    import reference
    from sentimen.stemmer import IndonesianStemmer

    run_dir = OUT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    spec = prepare(args, run_dir)

    child = [sys.executable, str(HERE / "workload.py"), str(run_dir / "spec.json")]
    setups = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(child + ["setup"], cwd=ROOT, capture_output=True,
                              text=True, timeout=_remaining(started))
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            print(f"error: set-up exited with {proc.returncode}; inputs kept in "
                  f"{run_dir}", file=sys.stderr)
            return 1
        setups.append([float(x) for x in proc.stdout.split()[-2:]])
    proc = subprocess.run(child, cwd=ROOT, stdout=sys.stderr,
                          timeout=_remaining(started))
    if proc.returncode != 0:
        print(f"error: measured process exited with {proc.returncode}; "
              f"inputs kept in {run_dir}", file=sys.stderr)
        return 1
    result = json.loads((run_dir / "result.json").read_text("utf-8"))
    result["end_to_end"]["setup_s"] = statistics.median(s for s, _ in setups)
    result["as_read"]["setup_s"] = statistics.median(s for _, s in setups)

    dicts = reference.TextDictionaries.read(DATA)
    inputs = checks.Inputs(spec, dicts, IndonesianStemmer(dicts.roots).stem)
    problems = checks.CHECKS[args.workload](inputs, run_dir, result["rounds"])
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)
    faults = checks.failed_operations(args.workload, inputs, run_dir, result["rounds"])
    for f in faults:
        print(f"operation failed: {f}", file=sys.stderr)

    if args.trace:
        from tracing import layer_units
        units = layer_units()
        values = result["per_layer"]
    else:
        units = END_TO_END_UNITS
        values = result["end_to_end"]
    print(f"{args.workload} seed={args.seed}: {result['rounds']} rounds, "
          f"{result['latency_samples']} latency samples, machine speed "
          f"{result['speed']:.3f} of the reference, "
          f"{len(problems)} failed checks, {len(faults)} failed fits; "
          f"{_corpus_facts(inputs, spec, run_dir)}; as read: "
          + ", ".join(f"{k} {v:.6g}" for k, v in result["as_read"].items()))
    print(json.dumps({
        "correct": not problems,
        "attempted": result["attempted"],
        "failed": result["failed"] + len(faults),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    if not problems:
        shutil.rmtree(run_dir)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
