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


def render_text(rep: ClassificationReport) -> str:
    """Aligned table in the conventional classification-report layout."""
    def fmt(x: float) -> str:
        return f"{round2(x):.2f}"

    lines = [f"{'':12s}  precision  recall  f1-score  support"]
    for label, name in ((Label.NEGATIVE, "negative"), (Label.POSITIVE, "positive")):
        m = rep.per_class[label]
        flag = "  (zero denominator)" if m.zero_denominator else ""
        lines.append(f"{name:12s}  {fmt(m.precision):>9s}  {fmt(m.recall):>6s}"
                     f"  {fmt(m.f1):>8s}  {m.support:7d}{flag}")
    lines.append("")
    lines.append(f"{'accuracy':12s}  {'':9s}  {'':6s}  {fmt(rep.accuracy):>8s}"
                 f"  {rep.total_support:7d}")
    lines.append(f"{'macro avg':12s}  {fmt(rep.macro_precision):>9s}"
                 f"  {fmt(rep.macro_recall):>6s}  {fmt(rep.macro_f1):>8s}"
                 f"  {rep.total_support:7d}")
    lines.append(f"{'weighted avg':12s}  {fmt(rep.weighted_precision):>9s}"
                 f"  {fmt(rep.weighted_recall):>6s}  {fmt(rep.weighted_f1):>8s}"
                 f"  {rep.total_support:7d}")
    return "\n".join(lines)


def report_to_csv(rep: ClassificationReport) -> str:
    """Full-precision CSV: ``repr`` of each float, so it parses back exactly."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["row", "precision", "recall", "f1", "support"])
    for label, name in ((Label.NEGATIVE, "negative"), (Label.POSITIVE, "positive")):
        m = rep.per_class[label]
        writer.writerow([name, repr(m.precision), repr(m.recall), repr(m.f1),
                         m.support])
    writer.writerow(["accuracy", "", "", repr(rep.accuracy), rep.total_support])
    writer.writerow(["macro_avg", repr(rep.macro_precision),
                     repr(rep.macro_recall), repr(rep.macro_f1),
                     rep.total_support])
    writer.writerow(["weighted_avg", repr(rep.weighted_precision),
                     repr(rep.weighted_recall), repr(rep.weighted_f1),
                     rep.total_support])
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
