"""Span tracing of the program's public functions, from the benchmark's side.

``Tracer.install`` wraps each function in ``TARGETS`` and puts the wrapper
on every module of the package that holds the function, so callers that
imported it by name (``cli`` holds ``run_pipeline`` and ``train``) go
through it too.  Methods and classmethods are replaced on their class.
``uninstall`` restores the originals.

A span is (name, start, end, parent); spans stay in memory until
``write`` saves them.  Two counters are taken at the boundaries: padded
positions in the (B, T) batches given to ``nn.forward_logits`` and
``nn.backward``, and ``IndonesianStemmer.stem`` calls for a word already
stemmed since the last ``reset``.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

PACKAGE = "sentimen"

# (module, attribute): every public function the per-layer metrics name
TARGETS = (
    ("cli", "main"),
    ("ingest", "load_csv"), ("ingest", "save_csv"), ("ingest", "stratified_split"),
    ("preprocess", "PreprocessConfig.default"), ("preprocess", "run_pipeline"),
    ("preprocess", "case_fold"), ("preprocess", "clean"),
    ("preprocess", "normalize_slang"), ("preprocess", "tokenize"),
    ("preprocess", "remove_stopwords"), ("preprocess", "stem_tokens"),
    ("stemmer", "IndonesianStemmer.stem"),
    ("vocab", "build_vocab"), ("vocab", "encode"), ("vocab", "load_vocab"),
    ("nn", "forward_logits"), ("nn", "backward"), ("nn", "adam_step"),
    ("nn", "predict"), ("nn", "predict_encoded"),
    ("nn", "save_checkpoint"), ("nn", "load_checkpoint"),
    ("train", "train"), ("train", "evaluate_split"),
    ("evaluation", "report_from_confusion"),
    ("baselines", "nb_fit"), ("baselines", "count_vector"),
    ("baselines", "TfidfVectorizer.fit"), ("baselines", "TfidfVectorizer.transform"),
    ("baselines", "linear_fit"), ("baselines", "run_comparison"),
)

# per-layer metric -> (span name, statistic, unit)
#   statistic: median per call in ms/us, total per round in s, calls per round
LAYER_METRICS = {
    "nn.backward.ms": ("nn.backward", "median_ms", "ms"),
    "nn.adam_step.ms": ("nn.adam_step", "median_ms", "ms"),
    "nn.forward_logits.ms": ("nn.forward_logits", "median_ms", "ms"),
    "nn.forward_logits.calls": ("nn.forward_logits", "calls", "count"),
    "nn.save_checkpoint.s": ("nn.save_checkpoint", "total_s", "s"),
    "nn.load_checkpoint.s": ("nn.load_checkpoint", "total_s", "s"),
    "nn.predict_encoded.ms": ("nn.predict_encoded", "median_ms", "ms"),
    "nn.predict.ms": ("nn.predict", "median_ms", "ms"),
    "train.train.s": ("train.train", "total_s", "s"),
    "train.evaluate_split.s": ("train.evaluate_split", "total_s", "s"),
    "preprocess.run_pipeline.us": ("preprocess.run_pipeline", "median_us", "us"),
    "preprocess.run_pipeline.s": ("preprocess.run_pipeline", "total_s", "s"),
    "preprocess.case_fold.s": ("preprocess.case_fold", "total_s", "s"),
    "preprocess.clean.s": ("preprocess.clean", "total_s", "s"),
    "preprocess.normalize_slang.s": ("preprocess.normalize_slang", "total_s", "s"),
    "preprocess.tokenize.s": ("preprocess.tokenize", "total_s", "s"),
    "preprocess.remove_stopwords.s": ("preprocess.remove_stopwords", "total_s", "s"),
    "preprocess.stem_tokens.s": ("preprocess.stem_tokens", "total_s", "s"),
    "preprocess.PreprocessConfig.default.s":
        ("preprocess.PreprocessConfig.default", "total_s", "s"),
    "stemmer.stem.calls": ("stemmer.IndonesianStemmer.stem", "calls", "count"),
    "stemmer.stem.us": ("stemmer.IndonesianStemmer.stem", "median_us", "us"),
    "vocab.encode.us": ("vocab.encode", "median_us", "us"),
    "vocab.build_vocab.s": ("vocab.build_vocab", "total_s", "s"),
    "vocab.load_vocab.s": ("vocab.load_vocab", "total_s", "s"),
    "ingest.load_csv.s": ("ingest.load_csv", "total_s", "s"),
    "ingest.save_csv.s": ("ingest.save_csv", "total_s", "s"),
    "ingest.stratified_split.s": ("ingest.stratified_split", "total_s", "s"),
    "baselines.nb_fit.s": ("baselines.nb_fit", "total_s", "s"),
    "baselines.count_vector.s": ("baselines.count_vector", "total_s", "s"),
    "baselines.TfidfVectorizer.fit.s": ("baselines.TfidfVectorizer.fit", "total_s", "s"),
    "baselines.TfidfVectorizer.transform.s":
        ("baselines.TfidfVectorizer.transform", "total_s", "s"),
    "baselines.linear_fit.logistic.s": ("baselines.linear_fit.logistic", "total_s", "s"),
    "baselines.linear_fit.hinge.s": ("baselines.linear_fit.hinge", "total_s", "s"),
    "evaluation.report_from_confusion.ms":
        ("evaluation.report_from_confusion", "median_ms", "ms"),
}
# metrics computed from counters or from several spans
DERIVED_METRICS = {
    "nn.forward_logits.rows_per_call": "rows",
    "nn.pad_share": "ratio",
    "stemmer.repeat_share": "ratio",
    "cli.self.s": "s",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos: int, name: str, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Start the counters of a new traced round; spans are kept."""
        self.first_span = len(self.spans)
        self.pad_positions = 0
        self.batch_positions = 0
        self.forward_rows = 0
        self.stemmed: set[str] = set()
        self.stem_repeats = 0

    # --- wrapping ---------------------------------------------------------------

    def _count(self, name: str, args, kwargs) -> None:
        if name in ("nn.forward_logits", "nn.backward"):
            indices = _arg(args, kwargs, 1, "indices")
            lengths = _arg(args, kwargs, 2, "lengths")
            positions = int(indices.shape[0]) * int(indices.shape[1])
            self.batch_positions += positions
            self.pad_positions += positions - int(lengths.sum())
            if name == "nn.forward_logits":
                self.forward_rows += int(indices.shape[0])
        elif name == "stemmer.IndonesianStemmer.stem":
            word = _arg(args, kwargs, 1, "word")
            if word in self.stemmed:
                self.stem_repeats += 1
            else:
                self.stemmed.add(word)

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counted = name in ("nn.forward_logits", "nn.backward",
                           "stemmer.IndonesianStemmer.stem")
        by_objective = name == "baselines.linear_fit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name
            if by_objective:
                label += "." + _arg(args, kwargs, 2, "objective", "logistic")
            if counted:
                self._count(name, args, kwargs)
            span = [label, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
        return traced

    def install(self) -> None:
        package_modules = [m for n, m in sys.modules.items()
                           if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attr in TARGETS:
            # sentimen.train the attribute is the function, so import by path
            module = importlib.import_module(f"{PACKAGE}.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__))
                else:
                    wrapped = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, wrapped)
                continue
            fn = getattr(module, attr)
            wrapped = self._wrap(name, fn)
            for holder in package_modules:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        self._patches.append((holder, key, fn))
                        setattr(holder, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)

    # --- results ----------------------------------------------------------------

    def round_metrics(self) -> dict[str, float]:
        """Per-layer values of the spans since the last ``reset``."""
        spans = self.spans[self.first_span:]
        durations: dict[str, list[float]] = defaultdict(list)
        child_time: dict[int, float] = defaultdict(float)
        for k, (name, start, end, parent) in enumerate(spans, self.first_span):
            durations[name].append(end - start)
            child_time[parent] += end - start
        out = {}
        for metric, (span, stat, _) in LAYER_METRICS.items():
            d = durations.get(span, [])
            if stat == "calls":
                out[metric] = float(len(d))
            elif stat == "total_s":
                out[metric] = float(sum(d))
            else:
                scale = 1e3 if stat == "median_ms" else 1e6
                out[metric] = statistics.median(d) * scale if d else 0.0
        calls = len(durations.get("nn.forward_logits", []))
        out["nn.forward_logits.rows_per_call"] = (
            self.forward_rows / calls if calls else 0.0)
        out["nn.pad_share"] = (self.pad_positions / self.batch_positions
                               if self.batch_positions else 0.0)
        n_stem = len(durations.get("stemmer.IndonesianStemmer.stem", []))
        out["stemmer.repeat_share"] = self.stem_repeats / n_stem if n_stem else 0.0
        out["cli.self.s"] = sum(
            (end - start) - child_time[k]
            for k, (name, start, end, _) in enumerate(spans, self.first_span)
            if name == "cli.main")
        return out

    def write(self, path: Path) -> None:
        """Spans as [name index, start us, end us, parent index] rows."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round((s - t0) * 1e6, 1), round((e - t0) * 1e6, 1), p]
                for n, s, e, p in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows},
                                   separators=(",", ":")), "utf-8")


def merge_rounds(rounds: list[dict[str, float]]) -> dict[str, float]:
    """Median over traced rounds of each per-layer value."""
    return {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}


def layer_units() -> dict[str, str]:
    units = {m: unit for m, (_, _, unit) in LAYER_METRICS.items()}
    units.update(DERIVED_METRICS)
    return units
