"""Corpus loading, class accounting and deterministic stratified splits.

The canonical corpus format is a UTF-8 CSV with a header row and columns
``id,source,text,label`` (RFC 4180 quoting: ``save_csv`` writes the bytes
``csv.writer``'s default dialect writes, CRLF rows and a cell quoted only
when it holds a comma, a quote or a line break).  ``label`` is ``negative``,
``positive`` or empty; rows with an empty label are kept as unlabeled
records so raw fetched comments and labeled corpora share one format.  A
tokenized corpus, as the preprocess command writes it, adds a ``tokens``
column of space-separated tokens.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from enum import IntEnum
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .seeds import stream


class Label(IntEnum):
    NEGATIVE = 0
    POSITIVE = 1


LABEL_NAMES = {Label.NEGATIVE: "negative", Label.POSITIVE: "positive"}
# a label's cell in a saved corpus, and the label of each such cell
_CELL_OF_LABEL = {None: "", **LABEL_NAMES}
_LABEL_OF_CELL = {cell: label for label, cell in _CELL_OF_LABEL.items()}


class CorpusError(Exception):
    """Malformed corpus file (missing column, bad label, empty text...)."""


class LabeledComment(NamedTuple):
    """One comment.  ``label`` is None for records that were never labeled;
    ``tokens`` is None unless the comment was read from a ``tokens`` column
    (an empty cell there means no tokens).

    A record is a tuple: it compares equal to a plain tuple of its fields,
    and a changed copy comes from ``_replace``, not ``dataclasses.replace``.
    """

    id: str
    source: str
    text: str
    label: Label | None
    tokens: tuple[str, ...] | None = None


@dataclass(frozen=True)
class Dataset:
    records: tuple[LabeledComment, ...]
    # (row_number, reason) pairs skipped during a lenient load
    skipped: tuple[tuple[int, str], ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def counts(self) -> dict[Label, int]:
        """Per-label record counts, recomputed from the records."""
        c = Counter(r.label for r in self.records if r.label is not None)
        return {Label.NEGATIVE: c[Label.NEGATIVE], Label.POSITIVE: c[Label.POSITIVE]}

    @property
    def n_unlabeled(self) -> int:
        return sum(1 for r in self.records if r.label is None)

    def labeled_only(self) -> "Dataset":
        return Dataset(tuple(r for r in self.records if r.label is not None))


COLUMNS = ("id", "source", "text", "label")


def _parse_label(raw: str) -> Label | None:
    name = raw.strip().lower()
    if name not in _LABEL_OF_CELL:
        raise CorpusError(f"unknown label {raw!r} (expected negative/positive/empty)")
    return _LABEL_OF_CELL[name]


def load_csv(path: str | Path, strict: bool = True) -> Dataset:
    """Load a corpus CSV.

    In strict mode any bad row aborts with its row number; in lenient mode
    bad rows are skipped and tallied on ``Dataset.skipped``.  A row the csv
    module cannot read, such as one with a field over its size limit, or
    one that is not UTF-8 aborts in either mode.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")

    records: list[LabeledComment] = []
    skipped: list[tuple[int, str]] = []
    row_no = 1  # the row being read; 1 is the header
    # utf-8-sig: a leading byte-order mark is not part of the first name
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CorpusError(f"{path}: empty file, expected a header row")
            for col in COLUMNS:
                if col not in header:
                    raise CorpusError(f"{path}: missing column {col!r} "
                                      f"(header has {header})")
            # a repeated name reads its last column, as csv.DictReader does
            at = {name: i for i, name in enumerate(header)}
            i_id, i_source, i_text, i_label = (at[col] for col in COLUMNS)
            i_tokens = at.get("tokens")
            width = len(header)
            append = records.append
            row_no = 2
            for row in reader:
                if not row:  # blank rows are skipped and not counted
                    continue
                if len(row) < width:  # missing cells read as empty
                    row += [""] * (width - len(row))
                try:
                    label = _parse_label(row[i_label])
                    text = row[i_text]
                    if label is not None and not text.strip():
                        raise CorpusError("empty text on a labeled row")
                    append(LabeledComment(
                        row[i_id].strip(), row[i_source].strip(), text, label,
                        tuple(row[i_tokens].split())
                        if i_tokens is not None else None))
                except CorpusError as exc:
                    if strict:
                        raise CorpusError(
                            f"{path}: row {row_no}: {exc}") from None
                    skipped.append((row_no, str(exc)))
                row_no += 1
        except csv.Error as exc:
            raise CorpusError(f"{path}: row {row_no}: {exc}") from None
        except UnicodeDecodeError:
            # the reader decodes ahead of the csv module: count rows anew
            try:
                path.read_bytes().decode("utf-8")
            except UnicodeDecodeError as exc:  # "x": the bad byte's row
                head = exc.object[:exc.start].decode("utf-8") + "x"
            row = sum(1 for r in csv.reader(io.StringIO(head, newline="")) if r)
            raise CorpusError(f"{path}: row {row}: not UTF-8 text") from None
    return Dataset(tuple(records), tuple(skipped))


def _csv_field(cell: str) -> str:
    """A cell as ``csv.writer`` writes it by default: in quotes, its quotes
    doubled, when it holds a comma, a quote or a line break; else as is."""
    if "," in cell or '"' in cell or "\r" in cell or "\n" in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def save_csv(ds: Dataset | Iterable[LabeledComment], path: str | Path,
             extra_columns: dict[str, list[str]] | None = None) -> None:
    """Write records in the canonical CSV format, byte for byte as
    ``csv.writer`` writes the same str cells.

    Every id, source, text and extra value must be a str: unlike
    ``csv.writer``, no other value is converted, and one raises
    ``TypeError`` once the file is truncated and the rows before it
    written.  ``extra_columns`` maps column name -> per-record values (e.g.
    the ``tokens`` column emitted by the preprocess command); a name that
    repeats a canonical column is rejected, since ``load_csv`` would read
    only the last of the two.
    """
    records = list(ds)
    extra = extra_columns or {}
    for name, values in extra.items():
        if name in COLUMNS:
            raise ValueError(f"extra column {name!r} repeats a canonical column")
        if len(values) != len(records):
            raise ValueError(f"extra column {name!r} has {len(values)} values "
                             f"for {len(records)} records")
    field = _csv_field
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(map(field, [*COLUMNS, *extra])) + "\r\n")
        # from a generator, so one row's line at a time is held in memory
        fh.writelines(",".join([field(r.id), field(r.source), field(r.text),
                                _CELL_OF_LABEL[r.label], *map(field, cells)])
                      + "\r\n" for r, *cells in zip(records, *extra.values()))


def class_distribution(ds: Dataset) -> dict[Label, float]:
    """Proportions over labeled records only.  Sums to 1 within 1e-12."""
    counts = ds.counts
    total = sum(counts.values())
    if total == 0:
        raise ValueError("dataset has no labeled records")
    return {label: n / total for label, n in counts.items()}


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.70
    val_fraction: float = 0.15
    test_fraction: float = 0.15
    seed: int = 0

    def __post_init__(self):
        fracs = (self.train_fraction, self.val_fraction, self.test_fraction)
        if any(f < 0 for f in fracs):
            raise ValueError(f"negative split fraction in {fracs}")
        if abs(sum(fracs) - 1.0) > 1e-9:
            raise ValueError(f"split fractions {fracs} sum to {sum(fracs)}, not 1")

    @property
    def fractions(self) -> tuple[float, float, float]:
        return (self.train_fraction, self.val_fraction, self.test_fraction)


def largest_remainder(n: int, fractions: Iterable[float]) -> list[int]:
    """Integer allocation of ``n`` items to ``fractions`` (which sum to 1).

    Floors the exact shares, then hands the leftover items to the largest
    fractional remainders; equal remainders resolve in argument order.
    """
    fracs = list(fractions)
    exact = [n * f for f in fracs]
    sizes = [int(np.floor(e)) for e in exact]
    leftover = n - sum(sizes)
    order = sorted(range(len(fracs)), key=lambda j: -(exact[j] - sizes[j]))
    for j in order[:leftover]:
        sizes[j] += 1
    return sizes


def stratified_indices(labels: Sequence[Label],
                       spec: SplitSpec) -> tuple[list[int], list[int], list[int]]:
    """Deterministic per-class split of positions into (train, val, test),
    each in ascending order.

    Per-class sizes come from largest-remainder rounding, so the same
    (labels, spec) always produces identical splits; the seed only shuffles
    membership within each class.
    """
    by_class: dict[Label, list[int]] = {Label.NEGATIVE: [], Label.POSITIVE: []}
    for i, label in enumerate(labels):
        by_class[label].append(i)

    n_nonzero = sum(1 for f in spec.fractions if f > 0)
    parts: list[list[int]] = [[], [], []]
    for label in (Label.NEGATIVE, Label.POSITIVE):
        idx = by_class[label]
        if not idx:
            continue
        if len(idx) < n_nonzero:
            raise ValueError(f"class {LABEL_NAMES[label]} has {len(idx)} records "
                             f"for {n_nonzero} nonzero splits")
        rng = stream(spec.seed, f"split_{LABEL_NAMES[label]}")
        shuffled = [idx[j] for j in rng.permutation(len(idx))]
        sizes = largest_remainder(len(idx), spec.fractions)
        start = 0
        for j, size in enumerate(sizes):
            parts[j].extend(shuffled[start:start + size])
            start += size

    for part in parts:
        part.sort()  # keep original record order inside each split
    return parts[0], parts[1], parts[2]


def stratified_split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset, Dataset]:
    """``stratified_indices`` over the records of a fully labeled dataset."""
    if ds.n_unlabeled:
        raise ValueError(f"{ds.n_unlabeled} unlabeled records; call "
                         "labeled_only() before splitting")
    labels = [r.label for r in ds.records]
    return tuple(Dataset(tuple(ds.records[i] for i in part))
                 for part in stratified_indices(labels, spec))
