import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sentimen.ingest import (CorpusError, Dataset, Label, LabeledComment,
                             SplitSpec, class_distribution, largest_remainder,
                             load_csv, save_csv, stratified_split)

from conftest import write_corpus_csv


def make_dataset(n_neg, n_pos, n_unlabeled=0):
    records = []
    for i in range(n_neg):
        records.append(LabeledComment(f"n{i}", "s", f"teks negatif {i}",
                                      Label.NEGATIVE))
    for i in range(n_pos):
        records.append(LabeledComment(f"p{i}", "s", f"teks positif {i}",
                                      Label.POSITIVE))
    for i in range(n_unlabeled):
        records.append(LabeledComment(f"u{i}", "s", f"teks {i}", None))
    return Dataset(tuple(records))


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        path = write_corpus_csv(tmp_path / "c.csv", [
            ("1", "a", "jelek", "negative"),
            ("2", "a", "bagus", "positive"),
            ("3", "b", "buruk", "negative"),
        ])
        ds = load_csv(path)
        assert len(ds) == 3
        assert ds.counts == {Label.NEGATIVE: 2, Label.POSITIVE: 1}
        assert [r.id for r in ds.records] == ["1", "2", "3"]  # order kept

    def test_reference_corpus_counts(self, tmp_path):
        rows = [(f"n{i}", "c", "x", "negative") for i in range(5629)]
        rows += [(f"p{i}", "c", "x", "positive") for i in range(790)]
        ds = load_csv(write_corpus_csv(tmp_path / "c.csv", rows))
        assert ds.counts == {Label.NEGATIVE: 5629, Label.POSITIVE: 790}

    def test_header_only(self, tmp_path):
        ds = load_csv(write_corpus_csv(tmp_path / "c.csv", []))
        assert len(ds) == 0
        assert ds.counts == {Label.NEGATIVE: 0, Label.POSITIVE: 0}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv")

    def test_missing_column(self, tmp_path):
        (tmp_path / "c.csv").write_text("id,source,text\n1,a,abc\n", "utf-8")
        with pytest.raises(CorpusError, match="label"):
            load_csv(tmp_path / "c.csv")

    def test_bad_label_strict_reports_row(self, tmp_path):
        path = write_corpus_csv(tmp_path / "c.csv", [
            ("1", "a", "ok", "negative"),
            ("2", "a", "ok", "netral"),
        ])
        with pytest.raises(CorpusError, match="row 3"):
            load_csv(path)

    def test_bad_rows_lenient_tallied(self, tmp_path):
        path = write_corpus_csv(tmp_path / "c.csv", [
            ("1", "a", "ok", "negative"),
            ("2", "a", "ok", "netral"),
            ("3", "a", "", "positive"),
        ])
        ds = load_csv(path, strict=False)
        assert len(ds) == 1
        assert len(ds.skipped) == 2
        assert [row for row, _ in ds.skipped] == [3, 4]

    @pytest.mark.parametrize("strict", [True, False])
    def test_unreadable_row_reports_file_and_row(self, tmp_path, strict):
        # a field over the csv module's 131,072-character limit
        path = write_corpus_csv(tmp_path / "c.csv", [
            ("1", "a", "ok", "negative"),
            ("2", "a", "x" * 200_000, "positive"),
        ])
        with pytest.raises(CorpusError, match=r"c\.csv: row 3: field larger"):
            load_csv(path, strict=strict)

    def test_unreadable_header_is_row_1(self, tmp_path):
        (tmp_path / "c.csv").write_text("x" * 200_000 + "\n", "utf-8")
        with pytest.raises(CorpusError, match=r"c\.csv: row 1: field larger"):
            load_csv(tmp_path / "c.csv")

    @pytest.mark.parametrize("field", [0, 2], ids=["row_start", "text"])
    @pytest.mark.parametrize("strict", [True, False])
    def test_non_utf8_row_reported_by_its_number(self, tmp_path, strict,
                                                 field):
        # 30 kB before the bad byte, past the text reader's first chunk,
        # with a quoted line break and a blank line on the way
        rows = [[str(i), "a", "teks " * 50, "negative"] for i in range(120)]
        rows[60][2] = "dua\nbaris"
        rows[100][field] = "\u00e9" + rows[100][field]
        path = write_corpus_csv(tmp_path / "c.csv", rows)
        data = path.read_bytes().replace(b"\r\n", b"\r\n\r\n", 1)
        path.write_bytes(data.replace("\u00e9".encode("utf-8"), b"\xe9"))
        with pytest.raises(CorpusError,
                           match=r"c\.csv: row 102: not UTF-8 text"):
            load_csv(path, strict=strict)

    def test_non_utf8_header_is_row_1(self, tmp_path):
        (tmp_path / "c.csv").write_bytes(b"id,source,t\xe9xt,label\n")
        with pytest.raises(CorpusError,
                           match=r"c\.csv: row 1: not UTF-8 text"):
            load_csv(tmp_path / "c.csv")

    def test_unlabeled_rows_kept_but_not_counted(self, tmp_path):
        path = write_corpus_csv(tmp_path / "c.csv", [
            ("1", "a", "apa saja", ""),
            ("2", "a", "bagus", "positive"),
        ])
        ds = load_csv(path)
        assert len(ds) == 2
        assert ds.n_unlabeled == 1
        assert sum(ds.counts.values()) == 1

    def test_tokens_column_kept(self, tmp_path):
        path = write_corpus_csv(tmp_path / "c.csv", [
            ("1", "a", "x", "negative"), ("2", "a", "y", "positive")])
        assert [r.tokens for r in load_csv(path).records] == [None, None]
        (tmp_path / "t.csv").write_text(
            "id,source,text,label,tokens\n1,a,x,negative,makan enak\n"
            "2,a,y,positive,\n", "utf-8")
        assert [r.tokens for r in load_csv(tmp_path / "t.csv").records] == [
            ("makan", "enak"), ()]

    def test_lenient_load_keeps_tokens_aligned(self, tmp_path):
        (tmp_path / "t.csv").write_text(
            "id,source,text,label,tokens\n"
            "1,a,x,negative,satu\n"
            "2,a,x,netral,dua\n"
            "3,a,,positive,tiga\n"
            "4,a,x,,empat\n"
            "5,a,x,positive,lima enam\n", "utf-8")
        ds = load_csv(tmp_path / "t.csv", strict=False)
        assert [row for row, _ in ds.skipped] == [3, 4]
        assert [(r.id, r.tokens) for r in ds.records] == [
            ("1", ("satu",)), ("4", ("empat",)), ("5", ("lima", "enam"))]

    def test_round_trip(self, tmp_path):
        ds = make_dataset(3, 2, n_unlabeled=1)
        save_csv(ds, tmp_path / "out.csv")
        again = load_csv(tmp_path / "out.csv")
        assert again.records == ds.records

    def test_rfc4180_quoting(self, tmp_path):
        tricky = 'kata "aneh", dengan koma'
        ds = Dataset((LabeledComment("1", "s", tricky, Label.POSITIVE),))
        save_csv(ds, tmp_path / "q.csv")
        assert load_csv(tmp_path / "q.csv").records[0].text == tricky

    @pytest.mark.parametrize("name", ["id", "source", "text", "label"])
    def test_extra_column_repeating_a_canonical_one_rejected(self, tmp_path,
                                                             name):
        # load_csv would read the last of the two columns of that name
        path = tmp_path / "dup.csv"
        with pytest.raises(ValueError, match=f"^extra column '{name}' repeats"):
            save_csv(make_dataset(1, 0), path, extra_columns={name: ["x"]})
        assert not path.exists()

    def test_record_fields_cannot_be_assigned(self):
        record = make_dataset(1, 0).records[0]
        with pytest.raises(AttributeError):
            record.label = Label.POSITIVE
        assert record.label is Label.NEGATIVE


class TestClassDistribution:
    def test_reference_proportions(self):
        dist = class_distribution(make_dataset(5629, 790))
        assert dist[Label.NEGATIVE] == pytest.approx(0.877, abs=5e-4)
        assert dist[Label.POSITIVE] == pytest.approx(0.123, abs=5e-4)

    def test_symmetry(self):
        dist = class_distribution(make_dataset(1, 1))
        assert dist == {Label.NEGATIVE: 0.5, Label.POSITIVE: 0.5}

    def test_direct_ratio(self):
        dist = class_distribution(make_dataset(3, 1))
        assert dist == {Label.NEGATIVE: 0.75, Label.POSITIVE: 0.25}

    def test_no_labels_rejected(self):
        with pytest.raises(ValueError):
            class_distribution(make_dataset(0, 0, n_unlabeled=2))

    @given(n_neg=st.integers(0, 500), n_pos=st.integers(0, 500))
    @settings(max_examples=30)
    def test_sums_to_one(self, n_neg, n_pos):
        if n_neg + n_pos == 0:
            return
        dist = class_distribution(make_dataset(n_neg, n_pos))
        assert abs(sum(dist.values()) - 1.0) <= 1e-12


class TestLargestRemainder:
    def test_exact_fractions(self):
        assert largest_remainder(50, (0.8, 0.1, 0.1)) == [40, 5, 5]

    def test_remainder_goes_to_largest_fraction(self):
        # 7 * (0.5, 0.3, 0.2) = (3.5, 2.1, 1.4): floors 3,2,1; leftover -> .5
        assert largest_remainder(7, (0.5, 0.3, 0.2)) == [4, 2, 1]

    def test_sizes_sum(self):
        for n in (0, 1, 17, 963, 6419):
            assert sum(largest_remainder(n, (0.7, 0.15, 0.15))) == n

    @pytest.mark.parametrize("n,sizes", [
        # 7.0 | 1.5 | 1.5: the largest share has no remainder
        (10, [7, 2, 1]),
        # the paper-shape classes: 3940.3 | 844.35 | 844.35 and
        # 553.0 | 118.5 | 118.5
        (5629, [3940, 845, 844]),
        (790, [553, 119, 118]),
    ])
    def test_leftover_follows_the_remainder_not_the_share(self, n, sizes):
        assert largest_remainder(n, (0.7, 0.15, 0.15)) == sizes


class TestStratifiedSplit:
    def test_reference_split_shape(self):
        ds = make_dataset(5629, 790)
        _, _, test = stratified_split(ds, SplitSpec(0.70, 0.15, 0.15, seed=42))
        counts = test.counts
        assert abs(counts[Label.NEGATIVE] - 845) <= 1
        assert abs(counts[Label.POSITIVE] - 118) <= 1
        assert abs(len(test) - 963) <= 2

    def test_degenerate_all_train(self):
        ds = make_dataset(10, 5)
        train, val, test = stratified_split(ds, SplitSpec(1.0, 0.0, 0.0, seed=1))
        assert len(train) == 15 and len(val) == 0 and len(test) == 0

    def test_hand_counted_allocation(self):
        ds = make_dataset(50, 50)
        for seed in (0, 1, 99):
            _, _, test = stratified_split(ds, SplitSpec(0.8, 0.1, 0.1, seed=seed))
            assert test.counts == {Label.NEGATIVE: 5, Label.POSITIVE: 5}

    def test_partition_no_duplicates(self):
        ds = make_dataset(37, 13)
        parts = stratified_split(ds, SplitSpec(0.6, 0.2, 0.2, seed=7))
        ids = [r.id for p in parts for r in p.records]
        assert len(ids) == len(ds)
        assert sorted(ids) == sorted(r.id for r in ds.records)

    def test_determinism(self):
        ds = make_dataset(101, 23)
        spec = SplitSpec(0.7, 0.15, 0.15, seed=5)
        a = stratified_split(ds, spec)
        b = stratified_split(ds, spec)
        for part_a, part_b in zip(a, b):
            assert part_a.records == part_b.records

    def test_unlabeled_rejected(self):
        ds = make_dataset(5, 5, n_unlabeled=1)
        with pytest.raises(ValueError, match="unlabeled"):
            stratified_split(ds, SplitSpec(0.5, 0.25, 0.25, seed=0))

    def test_too_small_class_rejected(self):
        ds = make_dataset(10, 2)
        with pytest.raises(ValueError, match="positive"):
            stratified_split(ds, SplitSpec(0.4, 0.3, 0.3, seed=0))

    @given(n_neg=st.integers(6, 120), n_pos=st.integers(6, 120),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_stratification_property(self, n_neg, n_pos, seed):
        ds = make_dataset(n_neg, n_pos)
        spec = SplitSpec(0.6, 0.2, 0.2, seed=seed)
        parts = stratified_split(ds, spec)
        assert sum(len(p) for p in parts) == len(ds)
        global_neg = n_neg / (n_neg + n_pos)
        for part in parts:
            if len(part) == 0:
                continue
            frac = part.counts[Label.NEGATIVE] / len(part)
            assert abs(frac - global_neg) <= 1.0 / len(part) + 1e-12

    def test_invalid_fractions(self):
        with pytest.raises(ValueError):
            SplitSpec(0.5, 0.5, 0.5)
        with pytest.raises(ValueError):
            SplitSpec(-0.1, 0.6, 0.5)
