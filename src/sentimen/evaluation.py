"""Confusion matrix and classification report for the two-class task.

The raw matrix takes Positive as its reference class (tp counts positives
predicted positive); per-class metrics for Negative come from relabeling
(tp<->tn, fp<->fn) before applying the same precision/recall/F1 formulas.
Zero denominators yield 0 and are flagged.  Internal values are never
rounded; display rounds half away from zero to 2 decimals.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Sequence

from .ingest import Label


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be non-negative")

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn

    def relabeled(self) -> "ConfusionMatrix":
        """Swap the reference class."""
        return ConfusionMatrix(tp=self.tn, fp=self.fn, tn=self.tp, fn=self.fp)


@dataclass(frozen=True)
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int
    zero_denominator: bool = False


@dataclass(frozen=True)
class ClassificationReport:
    per_class: dict[Label, ClassMetrics]
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    weighted_precision: float
    weighted_recall: float
    weighted_f1: float
    total_support: int


def confusion(preds: Sequence[int | Label],
              truth: Sequence[int | Label]) -> ConfusionMatrix:
    if len(preds) != len(truth):
        raise ValueError(f"{len(preds)} predictions vs {len(truth)} labels")
    if not preds:
        raise ValueError("empty prediction list")
    tp = fp = tn = fn = 0
    for p, t in zip(preds, truth):
        p, t = int(p), int(t)
        if t == 1:
            if p == 1:
                tp += 1
            else:
                fn += 1
        else:
            if p == 1:
                fp += 1
            else:
                tn += 1
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def metrics_for_class(cm: ConfusionMatrix, reference: Label) -> ClassMetrics:
    if reference == Label.NEGATIVE:
        cm = cm.relabeled()
    zero = False
    if cm.tp + cm.fp == 0:
        precision, zero = 0.0, True
    else:
        precision = cm.tp / (cm.tp + cm.fp)
    if cm.tp + cm.fn == 0:
        recall, zero = 0.0, True
    else:
        recall = cm.tp / (cm.tp + cm.fn)
    if precision + recall == 0:
        f1, zero = 0.0, True
    else:
        f1 = 2 * precision * recall / (precision + recall)
    return ClassMetrics(precision=precision, recall=recall, f1=f1,
                        support=cm.tp + cm.fn, zero_denominator=zero)


def report_from_confusion(cm: ConfusionMatrix) -> ClassificationReport:
    per_class = {label: metrics_for_class(cm, label)
                 for label in (Label.NEGATIVE, Label.POSITIVE)}
    total = cm.total
    accuracy = (cm.tp + cm.tn) / total
    supports = {label: m.support for label, m in per_class.items()}

    def macro(attr: str) -> float:
        return sum(getattr(m, attr) for m in per_class.values()) / len(per_class)

    def weighted(attr: str) -> float:
        return sum(getattr(m, attr) * supports[label]
                   for label, m in per_class.items()) / total

    return ClassificationReport(
        per_class=per_class, accuracy=accuracy,
        macro_precision=macro("precision"), macro_recall=macro("recall"),
        macro_f1=macro("f1"),
        weighted_precision=weighted("precision"),
        weighted_recall=weighted("recall"), weighted_f1=weighted("f1"),
        total_support=total)


def report(preds: Sequence[int | Label],
           truth: Sequence[int | Label]) -> ClassificationReport:
    return report_from_confusion(confusion(preds, truth))


def round2(x: float) -> float:
    """Round half away from zero to 2 decimals (display convention)."""
    return math.copysign(math.floor(abs(x) * 100 + 0.5) / 100, x)


def _rows(rep: ClassificationReport) -> list[tuple]:
    """The report's five rows as (name, precision, recall, f1, support,
    zero denominator); the accuracy row has no precision or recall."""
    rows = [(name, m.precision, m.recall, m.f1, m.support, m.zero_denominator)
            for name, m in (("negative", rep.per_class[Label.NEGATIVE]),
                            ("positive", rep.per_class[Label.POSITIVE]))]
    n = rep.total_support
    return rows + [
        ("accuracy", None, None, rep.accuracy, n, False),
        ("macro avg", rep.macro_precision, rep.macro_recall, rep.macro_f1,
         n, False),
        ("weighted avg", rep.weighted_precision, rep.weighted_recall,
         rep.weighted_f1, n, False)]


def render_text(rep: ClassificationReport) -> str:
    """Aligned table in the conventional classification-report layout."""
    def fmt(x: float | None) -> str:
        return "" if x is None else f"{round2(x):.2f}"

    lines = [f"{'':12s}  precision  recall  f1-score  support"]
    for name, *values, support, zero in _rows(rep):
        if name == "accuracy":
            lines.append("")
        cells = "".join(f"  {fmt(x):>{width}s}"
                        for x, width in zip(values, (9, 6, 8)))
        flag = "  (zero denominator)" if zero else ""
        lines.append(f"{name:12s}{cells}  {support:7d}{flag}")
    return "\n".join(lines)


def report_to_csv(rep: ClassificationReport) -> str:
    """Full-precision CSV: ``repr`` of each float, so it parses back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "precision", "recall", "f1", "support"])
    for name, *values, support, _ in _rows(rep):
        writer.writerow([name.replace(" ", "_")]
                        + ["" if x is None else repr(x) for x in values]
                        + [support])
    return buf.getvalue()


def confusion_to_csv(cm: ConfusionMatrix) -> str:
    """2x2 matrix, rows actual and columns predicted."""
    return ("," + "predicted_positive,predicted_negative\n"
            f"actual_positive,{cm.tp},{cm.fn}\n"
            f"actual_negative,{cm.fp},{cm.tn}\n")


def confusion_svg(cm: ConfusionMatrix) -> str:
    """Minimal 2x2 heatmap as standalone SVG (no timestamps, text-diffable)."""
    cells = [("actual positive", [("TP", cm.tp), ("FN", cm.fn)]),
             ("actual negative", [("FP", cm.fp), ("TN", cm.tn)])]
    peak = max(1, cm.tp, cm.fp, cm.tn, cm.fn)
    size, origin = 120, 150
    parts = [
        '<svg xmlns="http://www.w3.org/2000/svg" width="480" height="360" '
        'viewBox="0 0 480 360">',
        '<style>text{font-family:monospace;font-size:14px}</style>',
        '<text x="240" y="24" text-anchor="middle">confusion matrix</text>',
        '<text x="210" y="52" text-anchor="middle">predicted positive</text>',
        '<text x="330" y="52" text-anchor="middle">predicted negative</text>',
    ]
    for r, (row_name, row) in enumerate(cells):
        parts.append(f'<text x="140" y="{origin + r * size - size // 2 + 5}" '
                     f'text-anchor="end">{row_name}</text>')
        for c, (tag, value) in enumerate(row):
            shade = 255 - int(195 * value / peak)
            x = origin + c * size
            y = origin + (r - 1) * size + 10
            parts.append(f'<rect x="{x}" y="{y}" width="{size}" height="{size}" '
                         f'fill="rgb({shade},{shade},255)" stroke="black"/>')
            parts.append(f'<text x="{x + size // 2}" y="{y + size // 2}" '
                         f'text-anchor="middle">{tag}={value}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
