import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen.evaluation import (ConfusionMatrix, confusion, confusion_svg,
                                 confusion_to_csv, metrics_for_class,
                                 render_text, report, report_from_confusion,
                                 report_to_csv, round2)
from sentimen.ingest import Label

from conftest import read_report_csv

REFERENCE_CM = ConfusionMatrix(tp=67, fn=51, fp=58, tn=787)


def recount_oracle(preds, truth):
    """Independent per-sample recount of every cell and formula."""
    tp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 1)
    fp = sum(1 for p, t in zip(preds, truth) if p == 1 and t == 0)
    tn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 0)
    fn = sum(1 for p, t in zip(preds, truth) if p == 0 and t == 1)

    def prf(tp_, fp_, fn_):
        precision = tp_ / (tp_ + fp_) if tp_ + fp_ else 0.0
        recall = tp_ / (tp_ + fn_) if tp_ + fn_ else 0.0
        f1 = (2 * precision * recall / (precision + recall)
              if precision + recall else 0.0)
        return precision, recall, f1

    pos = prf(tp, fp, fn)
    neg = prf(tn, fn, fp)
    total = len(preds)
    support = {0: tn + fp, 1: tp + fn}
    macro = tuple((a + b) / 2 for a, b in zip(pos, neg))
    weighted = tuple((p * support[1] + n * support[0]) / total
                     for p, n in zip(pos, neg))
    return {"cm": (tp, fp, tn, fn), "pos": pos, "neg": neg,
            "accuracy": (tp + tn) / total, "macro": macro,
            "weighted": weighted}


class TestConfusion:
    def test_all_positive_correct(self):
        cm = confusion([1, 1, 1], [1, 1, 1])
        assert (cm.tp, cm.fp, cm.tn, cm.fn) == (3, 0, 0, 0)

    def test_reference_shape(self):
        preds = [1] * 67 + [0] * 51 + [1] * 58 + [0] * 787
        truth = [1] * 118 + [0] * 845
        cm = confusion(preds, truth)
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (67, 51, 58, 787)

    def test_degenerate_all_negative_predictor(self):
        cm = confusion([0] * 5, [1, 1, 0, 0, 0])
        assert (cm.tp, cm.fn, cm.fp, cm.tn) == (0, 2, 0, 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0, 1], [0])

    def test_empty(self):
        with pytest.raises(ValueError):
            confusion([], [])


class TestMetricsForClass:
    def test_reference_positive_row(self):
        m = metrics_for_class(REFERENCE_CM, Label.POSITIVE)
        assert round2(m.precision) == 0.54
        assert round2(m.recall) == 0.57
        assert round2(m.f1) == 0.55
        assert m.support == 118

    def test_reference_negative_row(self):
        m = metrics_for_class(REFERENCE_CM, Label.NEGATIVE)
        assert round2(m.precision) == 0.94
        assert round2(m.recall) == 0.93
        assert round2(m.f1) == 0.94
        assert m.support == 845

    def test_zero_denominator_convention(self):
        cm = ConfusionMatrix(tp=0, fp=0, tn=5, fn=0)
        m = metrics_for_class(cm, Label.POSITIVE)
        assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)
        assert m.zero_denominator

    def test_exact_unrounded_values(self):
        m = metrics_for_class(REFERENCE_CM, Label.POSITIVE)
        assert m.precision == pytest.approx(67 / 125, rel=1e-15)
        assert m.recall == pytest.approx(67 / 118, rel=1e-15)


class TestReport:
    def test_reproduces_reference_table(self):
        rep = report_from_confusion(REFERENCE_CM)
        assert round2(rep.accuracy) == 0.89
        assert (round2(rep.macro_precision), round2(rep.macro_recall),
                round2(rep.macro_f1)) == (0.74, 0.75, 0.74)
        assert (round2(rep.weighted_precision), round2(rep.weighted_recall),
                round2(rep.weighted_f1)) == (0.89, 0.89, 0.89)
        assert rep.total_support == 963
        assert rep.accuracy == pytest.approx(854 / 963, rel=1e-15)

    def test_perfect_predictions(self):
        rep = report([1, 0, 1, 0], [1, 0, 1, 0])
        assert rep.accuracy == 1.0
        for m in rep.per_class.values():
            assert (m.precision, m.recall, m.f1) == (1.0, 1.0, 1.0)

    def test_random_twenty_sample_recount(self):
        rng = np.random.default_rng(5)
        preds = rng.integers(0, 2, 20).tolist()
        truth = rng.integers(0, 2, 20).tolist()
        rep = report(preds, truth)
        want = recount_oracle(preds, truth)
        assert rep.accuracy == pytest.approx(want["accuracy"], rel=1e-15)
        pos = rep.per_class[Label.POSITIVE]
        assert (pos.precision, pos.recall, pos.f1) == pytest.approx(want["pos"])
        neg = rep.per_class[Label.NEGATIVE]
        assert (neg.precision, neg.recall, neg.f1) == pytest.approx(want["neg"])
        assert (rep.macro_precision, rep.macro_recall,
                rep.macro_f1) == pytest.approx(want["macro"])
        assert (rep.weighted_precision, rep.weighted_recall,
                rep.weighted_f1) == pytest.approx(want["weighted"])

    @given(st.integers(1, 400), st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_oracle_equivalence_property(self, n, seed):
        rng = np.random.default_rng(seed)
        preds = rng.integers(0, 2, n).tolist()
        truth = rng.integers(0, 2, n).tolist()
        rep = report(preds, truth)
        want = recount_oracle(preds, truth)
        assert rep.accuracy == pytest.approx(want["accuracy"], abs=1e-12)
        assert rep.macro_f1 == pytest.approx(want["macro"][2], abs=1e-12)
        assert rep.weighted_f1 == pytest.approx(want["weighted"][2], abs=1e-12)

    def test_relabeling_symmetry(self):
        preds = [0, 1, 1, 0, 1]
        truth = [0, 1, 0, 1, 1]
        rep = report(preds, truth)
        swapped = report([1 - p for p in preds], [1 - t for t in truth])
        assert swapped.accuracy == rep.accuracy
        assert swapped.per_class[Label.POSITIVE] == rep.per_class[Label.NEGATIVE]
        assert swapped.per_class[Label.NEGATIVE] == rep.per_class[Label.POSITIVE]

    def test_macro_f1_between_class_f1s(self):
        rep = report_from_confusion(REFERENCE_CM)
        f1s = [m.f1 for m in rep.per_class.values()]
        assert min(f1s) <= rep.macro_f1 <= max(f1s)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round2(0.935) == 0.94
        assert round2(0.545) == 0.55
        assert round2(0.544999) == 0.54
        assert round2(-0.125) == -0.13

    def test_internal_values_not_rounded(self):
        rep = report_from_confusion(REFERENCE_CM)
        assert rep.accuracy != round2(rep.accuracy)


class TestRendering:
    def test_text_table_shows_reference_numbers(self):
        text = render_text(report_from_confusion(REFERENCE_CM))
        assert "negative" in text and "positive" in text
        for value in ("0.94", "0.93", "0.54", "0.57", "0.55", "0.89",
                      "0.74", "0.75", "845", "118", "963"):
            assert value in text, value

    def test_csv_round_trip(self):
        rep = report_from_confusion(REFERENCE_CM)
        parsed = read_report_csv(report_to_csv(rep))
        assert parsed["positive"]["precision"] == rep.per_class[Label.POSITIVE].precision
        assert parsed["accuracy"]["f1"] == rep.accuracy
        assert parsed["weighted_avg"]["recall"] == rep.weighted_recall

    def test_confusion_csv_orientation(self):
        text = confusion_to_csv(REFERENCE_CM)
        lines = text.strip().splitlines()
        assert lines[1] == "actual_positive,67,51"
        assert lines[2] == "actual_negative,58,787"

    def test_confusion_svg_wellformed(self):
        import xml.etree.ElementTree as ET
        svg = confusion_svg(REFERENCE_CM)
        root = ET.fromstring(svg)
        assert root.tag.endswith("svg")
        assert "TP=67" in svg and "TN=787" in svg
