"""Set-up and timed phase of one benchmark run, in a fresh process.

    python3 perfbench/workload.py RUN_DIR/spec.json [setup]

``run.py`` writes the spec (workload, input paths, run length, trace flag)
and reads back ``result.json`` plus the program outputs this process leaves
in RUN_DIR.  Running apart from ``run.py`` keeps input generation and the
correctness checks out of this process's imports, set-up time and peak RSS.
With ``setup`` the process only imports the program, sets up and prints
the seconds that took, at the reference speed and as read.

Set-up ends with one warm-up request through ``preprocess.run_pipeline``.
The program's stemmer cache keeps the first ``PreprocessConfig`` it sees,
and every later config pays a full root-set comparison per call, so the
warm-up puts every round, the first included, in the same state: the
closed loops reuse the set-up config, and every CLI command builds its own.

Each round runs the workload's operations once, through the program's
public entry points; rounds repeat until the run length has passed.  With
tracing on, every round runs once untraced and once traced, and the
difference of the two wall times is the tracing overhead.  Every time this
process reports, set-up included, is put at a reference machine speed by
the probe in ``speed.py``.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from speed import SpeedProbe

SETUP_PROBES = 5  # probes right before and after set-up, which is short


Stretch = tuple[float, float]  # (start on SpeedProbe.clock, seconds)


class StepClock:
    """Reads the clock as each mini-batch step of ``train`` begins.

    Wraps ``nn.backward`` (first call of a step) and ``train.evaluate_split``
    (end of an epoch's last step); one clock reading per step.
    """

    def __init__(self, nn_module, train_module, clock):
        self.modules = nn_module, train_module
        self.originals = nn_module.backward, train_module.evaluate_split
        self.clock = clock
        self.marks: list[tuple[str, float]] = []

    def __enter__(self):
        nn_module, train_module = self.modules
        backward, evaluate_split = self.originals
        marks, clock = self.marks, self.clock

        def timed_backward(*args, **kwargs):
            marks.append(("step", clock()))
            return backward(*args, **kwargs)

        def timed_evaluate_split(*args, **kwargs):
            marks.append(("end", clock()))
            return evaluate_split(*args, **kwargs)

        nn_module.backward = timed_backward
        train_module.evaluate_split = timed_evaluate_split
        return self

    def __exit__(self, *exc):
        nn_module, train_module = self.modules
        nn_module.backward, train_module.evaluate_split = self.originals

    def steps(self) -> list[Stretch]:
        out = []
        for (kind, t), (_, t_next) in zip(self.marks, self.marks[1:]):
            if kind == "step":
                out.append((t, t_next - t))
        return out


@dataclass
class Round:
    """What one round measured; its outputs stay in its directory."""
    attempted: int = 0
    failed: int = 0
    items: int = 0                  # work items of the round's CLI command
    command: Stretch = (0.0, 0.0)   # and its wall time
    latencies: list[Stretch] = field(default_factory=list)  # requests or steps
    parts: list[Stretch] = field(default_factory=list)  # sum to the round's wall time
    quality: float = 0.0


def _warm_preprocess(m):
    """The dictionaries, and one request through the preprocessing chain."""
    pp = m.preprocess.PreprocessConfig.default()
    m.preprocess.run_pipeline("Programnya bagus", pp)
    return pp


def _command(cli, argv: list[str], rnd: Round, clock) -> None:
    """Run one CLI command as the round's command and first part."""
    start = clock()
    code = cli.main(argv)
    rnd.command = (start, clock() - start)
    rnd.parts.append(rnd.command)
    rnd.attempted += 1
    if code != 0:
        rnd.failed += 1
        print(f"command failed with exit {code}: {argv[0]}", file=sys.stderr)


def _requests(rnd: Round, clock, call, args) -> list:
    """Closed loop: ``call(a)`` for each ``a`` in turn, each timed."""
    out, timed = [], []
    for a in args:
        start = clock()
        out.append(call(a))
        timed.append((start, clock() - start))
    rnd.attempted += len(timed)
    rnd.latencies += timed
    rnd.parts.append((timed[0][0], sum(seconds for _, seconds in timed)))
    return out


class TrainPaper:
    def __init__(self, spec, m, clock):
        self.spec, self.m, self.clock = spec, m, clock

    def set_up(self):
        _warm_preprocess(self.m)

    def run_round(self, out: Path) -> Round:
        m, spec = self.m, self.spec
        rnd = Round()
        argv = ["train", spec["corpus"], "--epochs", str(spec["epochs"]),
                "--out-dir", str(out), "--quiet", *spec["config_args"]]
        with StepClock(m.nn, m.train, self.clock) as steps:
            _command(m.cli, argv, rnd, self.clock)
        rnd.items = spec["n_train"] * spec["epochs"]
        rnd.latencies = steps.steps()
        with open(out / "history.csv", newline="", encoding="utf-8") as fh:
            val_loss = float(list(csv.DictReader(fh))[-1]["val_loss"])
        rnd.quality = math.exp(-val_loss)
        return rnd


class InferPaper:
    def __init__(self, spec, m, clock):
        self.spec, self.m, self.clock = spec, m, clock
        self.unlabeled = json.loads(Path(spec["unlabeled"]).read_text("utf-8"))

    def set_up(self):
        m, spec = self.m, self.spec
        scratch = Path(spec["run_dir"]) / "setup"
        scratch.mkdir(exist_ok=True)
        self.pp = _warm_preprocess(m)
        params, _ = m.nn.load_checkpoint(spec["checkpoint"])
        vocab, max_len, min_freq = m.vocab.load_vocab(spec["vocab"])
        m.nn.save_checkpoint(scratch / "checkpoint.bin", params)
        m.vocab.save_vocab(vocab, scratch / "vocab.txt", max_len, min_freq=min_freq)
        self.params, _ = m.nn.load_checkpoint(scratch / "checkpoint.bin")
        self.vocab, self.max_len, _ = m.vocab.load_vocab(scratch / "vocab.txt")

    def run_round(self, out: Path) -> Round:
        m, spec = self.m, self.spec
        rnd = Round()
        argv = ["evaluate", spec["checkpoint"], spec["test_csv"],
                "--out-dir", str(out), "--quiet"]
        _command(m.cli, argv, rnd, self.clock)
        rnd.items = spec["n_test"]
        with open(out / "report.csv", newline="", encoding="utf-8") as fh:
            rows = {r["row"]: r for r in csv.DictReader(fh)}
        rnd.quality = float(rows["accuracy"]["f1"])
        preds = _requests(rnd, self.clock, lambda text: m.nn.predict(
            text, self.params, self.vocab, self.pp, max_len=self.max_len),
            self.unlabeled)
        probs = [[float(p) for p in pred.probabilities] for pred in preds]
        low = [bool(pred.low_confidence) for pred in preds]
        (out / "predictions.json").write_text(
            json.dumps({"probabilities": probs, "low_confidence": low}), "utf-8")
        return rnd


class TextBaselines:
    def __init__(self, spec, m, clock):
        self.spec, self.m, self.clock = spec, m, clock
        self.texts = [c["text"] for c in
                      json.loads(Path(spec["comments"]).read_text("utf-8"))]
        self.svm_inputs = json.loads(Path(spec["svm_inputs"]).read_text("utf-8"))

    def set_up(self):
        self.pp = _warm_preprocess(self.m)

    def run_round(self, out: Path) -> Round:
        m, spec = self.m, self.spec
        rnd = Round()
        out.mkdir(parents=True, exist_ok=True)
        tokenized = out / "tokenized.csv"
        argv = ["preprocess", spec["corpus"], "--out", str(tokenized), "--quiet"]
        _command(m.cli, argv, rnd, self.clock)
        rnd.items = spec["n_comments"]
        single = _requests(rnd, self.clock,
                           lambda text: m.preprocess.run_pipeline(text, self.pp),
                           self.texts)

        start = self.clock()
        ds = m.ingest.load_csv(tokenized).labeled_only()
        with open(tokenized, newline="", encoding="utf-8") as fh:
            tokens = {r["id"]: r["tokens"].split() for r in csv.DictReader(fh)}
        spec_split = m.ingest.SplitSpec(0.70, 0.15, 0.15, seed=0)
        train_ds, _, test_ds = m.ingest.stratified_split(ds, spec_split)
        train_docs = [tokens[r.id] for r in train_ds.records]
        test_docs = [tokens[r.id] for r in test_ds.records]
        train_labels = [int(r.label) for r in train_ds.records]
        test_labels = [int(r.label) for r in test_ds.records]
        vocab = m.vocab.build_vocab(train_docs)
        rnd.attempted += 1
        rows = m.baselines.run_comparison(
            train_docs, train_labels, test_docs, test_labels, vocab, seed=0,
            include=("majority", "naive_bayes", "logistic_regression"))

        # the linear SVM, on the fixed inputs (run.py, SVM_CORPUS_SEED)
        svm_in = self.svm_inputs
        svm_vocab = m.vocab.build_vocab(svm_in["train_docs"])
        fitted = []
        linear_fit = m.baselines.linear_fit

        def keep_fit(*args, **kwargs):  # keeps the SVM for the objective check
            fitted.append(linear_fit(*args, **kwargs))
            return fitted[-1]

        m.baselines.linear_fit = keep_fit
        try:
            rnd.attempted += 1
            svm_rows = m.baselines.run_comparison(
                svm_in["train_docs"], svm_in["train_labels"], svm_in["test_docs"],
                svm_in["test_labels"], svm_vocab, seed=0, include=("linear_svm",))
        finally:
            m.baselines.linear_fit = linear_fit
        rnd.parts.append((start, self.clock() - start))
        scored = [r for r in rows + svm_rows if r.model != "majority"]
        rnd.quality = statistics.fmean(r.macro_f1 for r in scored)
        (svm,) = fitted
        (out / "baselines.json").write_text(json.dumps({
            "rows": {r.model: {"accuracy": r.accuracy, "macro_f1": r.macro_f1}
                     for r in rows},
            "columns": [vocab.index_to_token[i] for i in range(2, vocab.size)],
            "svm_w": svm.w.tolist(), "svm_b": svm.b,
            "svm_columns": [svm_vocab.index_to_token[i]
                            for i in range(2, svm_vocab.size)],
            "single": single}), "utf-8")
        return rnd


WORKLOADS = {"train_paper": TrainPaper, "infer_paper": InferPaper,
             "text_baselines": TextBaselines}


class Modules:
    """The program's modules, looked up by path: the package attribute
    ``sentimen.train`` is the re-exported function, not the module."""

    def __init__(self):
        for name in ("cli", "ingest", "preprocess", "vocab", "nn", "train",
                     "baselines"):
            setattr(self, name, importlib.import_module(f"sentimen.{name}"))


def main(spec_path: str, mode: str = "run") -> int:
    spec = json.loads(Path(spec_path).read_text("utf-8"))
    run_dir = Path(spec["run_dir"])
    sys.path.insert(0, spec["src"])

    probe = SpeedProbe()
    with probe:
        for _ in range(SETUP_PROBES):  # the speed as set-up starts
            probe.probe()
        start = probe.clock()
        importlib.import_module("sentimen.cli")  # numpy and every module it uses
        imports = (start, probe.clock() - start)
        workload = WORKLOADS[spec["workload"]](spec, Modules(), probe.clock)
        start = probe.clock()
        workload.set_up()
        set_up = (start, probe.clock() - start)
        if mode == "setup":
            for _ in range(SETUP_PROBES):  # and as it ends
                probe.probe()
            print(probe.adjust(*imports) + probe.adjust(*set_up),
                  imports[1] + set_up[1])  # at the reference speed, and as read
            return 0
        result = _measure(spec, workload, probe)
    (run_dir / "result.json").write_text(json.dumps(result), "utf-8")
    return 0


def _as_read(start: float, seconds: float) -> float:
    return seconds


def _wall(adjust, rnd: Round) -> float:
    return sum(adjust(*part) for part in rnd.parts)


def _timings(rounds: list[Round], adjust) -> dict[str, float]:
    latencies = [adjust(*x) for r in rounds for x in r.latencies]
    cuts = statistics.quantiles(latencies, n=100, method="inclusive")
    return {
        "items_per_s": (sum(r.items for r in rounds)
                        / sum(adjust(*r.command) for r in rounds)),
        "round_s": statistics.fmean(_wall(adjust, r) for r in rounds),
        "latency_p50_ms": cuts[49] * 1e3,
        "latency_p99_ms": cuts[98] * 1e3,
    }


def _measure(spec: dict, workload, probe: SpeedProbe) -> dict:
    """Rounds until spec["seconds"] have passed; every time at the
    reference speed (speed.py)."""
    run_dir = Path(spec["run_dir"])
    tracer = None
    if spec["trace"]:
        from tracing import Tracer
        tracer = Tracer()

    rounds: list[Round] = []
    layer_rounds: list[dict[str, float]] = []
    deadline = time.perf_counter() + spec["seconds"]
    while not rounds or time.perf_counter() < deadline:
        rnd = workload.run_round(run_dir / f"round{len(rounds)}")
        rounds.append(rnd)
        if tracer is not None:
            tracer.reset()
            tracer.install()
            try:
                traced = workload.run_round(run_dir / f"round{len(rounds)}")
            finally:
                tracer.uninstall()
            layers = tracer.round_metrics()
            layers["trace.overhead_s"] = (_wall(probe.adjust, traced)
                                          - _wall(probe.adjust, rnd))
            layer_rounds.append(layers)
            rounds.append(traced)
    for _ in range(SETUP_PROBES):  # the speed as the last round ends
        probe.probe()

    result = {
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "rounds": len(rounds),
        "latency_samples": sum(len(r.latencies) for r in rounds),
        "speed": statistics.fmean(probe.rates),
        "end_to_end": {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            **_timings(rounds, probe.adjust),
            "quality": statistics.median(r.quality for r in rounds),
        },
        "as_read": _timings(rounds, _as_read),
    }
    if tracer is not None:
        from tracing import merge_rounds
        result["per_layer"] = merge_rounds(layer_rounds)
        tracer.write(Path(spec["trace_file"]))
    return result


if __name__ == "__main__":
    raise SystemExit(main(*sys.argv[1:]))
