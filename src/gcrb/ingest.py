"""Ingestion of measured coincidence-count tables.

Counts tables are plain CSV with the exact header ``phase_rad,c0,c1,c2,c3``
plus an optional trailing ``acquisition_id`` column: decimal point, newline
delimited, no thousands separators.  Numbers are ASCII: counts are plain
digit strings no larger than 2**53 and phases decimal literals with an
optional exponent.  Phases are stored as given; folding into an analysis
domain is always an explicit, separate step.
"""

from __future__ import annotations

import csv
import math
import re
from pathlib import Path
from typing import NamedTuple, TextIO

import numpy as np

from .bayes import PhaseDomain
from .errors import CountsParseError
from .model import MAX_COUNT, N_SETTINGS, check_counts, check_real

COUNTS_COLUMNS = ("phase_rad", "c0", "c1", "c2", "c3")
ID_COLUMN = "acquisition_id"

# int() and float() also accept "_" digit separators and non-ASCII digits,
# which the schema forbids
_COUNT = re.compile(r"[0-9]+")
_PHASE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


class CountsTable(NamedTuple):
    """A counts file as columns, one entry per acquisition row, in file order."""

    phase_label: np.ndarray             # (E,) float64 nominal phases
    counts: np.ndarray                  # (E, 4) int64 setting counts
    acquisition_id: tuple[str, ...]     # E ids, "" where the file has none


def _open_text(source: TextIO | str | Path, mode: str = "r"):
    """The text stream of a path, opened in mode, or source itself; and whether it was opened."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8", newline=""), True
    return source, False


def parse_counts(source: TextIO | str | Path) -> CountsTable:
    """Parse a counts CSV into a table, preserving row order.

    Every malformed line is collected and reported together in a single
    CountsParseError; a header-only file yields a table of no rows.
    """
    stream, owned = _open_text(source)
    try:
        reader = csv.reader(stream)
        try:
            header = next(reader)
        except StopIteration:
            raise CountsParseError([(1, "missing header line")]) from None
        header = tuple(h.strip() for h in header)
        if header != COUNTS_COLUMNS and header != COUNTS_COLUMNS + (ID_COLUMN,):
            raise CountsParseError(
                [(1, f"header must be {','.join(COUNTS_COLUMNS)}[,{ID_COLUMN}], got {','.join(header)}")]
            )
        has_id = len(header) == len(COUNTS_COLUMNS) + 1
        phases: list[float] = []
        counts: list[int] = []
        ids: list[str] = []
        problems: list[tuple[int, str]] = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                problems.append((lineno, f"expected {len(header)} columns, got {len(row)}"))
                continue
            problems_before = len(problems)
            cell = row[0].strip()
            phase = float(cell) if _PHASE.fullmatch(cell) else math.nan
            if not math.isfinite(phase):
                problems.append((lineno, f"phase_rad is not a finite number: {row[0]!r}"))
            row_counts = []
            for name, cell in zip(COUNTS_COLUMNS[1:], row[1:5]):
                digits = cell.strip()
                if not _COUNT.fullmatch(digits):
                    problems.append((lineno, f"{name} must be a non-negative integer: {cell!r}"))
                    continue
                # the length test keeps int() off digit strings beyond its limit
                if len(digits.lstrip("0")) > len(str(MAX_COUNT)) or int(digits) > MAX_COUNT:
                    problems.append((lineno, f"{name} exceeds 2**53, the largest count "
                                             "held exactly"))
                    continue
                row_counts.append(int(digits))
            if len(problems) > problems_before:
                continue
            phases.append(phase)
            counts.extend(row_counts)
            ids.append(row[5].strip() if has_id else "")
        if problems:
            raise CountsParseError(problems)
        return CountsTable(np.array(phases, dtype=np.float64),
                           np.array(counts, dtype=np.int64).reshape(-1, N_SETTINGS), tuple(ids))
    finally:
        if owned:
            stream.close()


def write_counts(table: CountsTable, dest: TextIO | str | Path) -> None:
    """Serialize a table to the counts CSV schema (round-trips exactly).
    Raises ValueError unless the labels are a column of finite reals, the
    counts pass `gcrb.model.check_counts` and the columns have one length."""
    labels = check_real(table.phase_label, "phase labels", ndim=1)
    counts = check_counts(table.counts)
    ids = tuple(table.acquisition_id)
    if not len(labels) == len(counts) == len(ids):
        raise ValueError(f"columns differ in length: {len(labels)} phase labels, "
                         f"{len(counts)} counts rows and {len(ids)} acquisition ids")
    header = COUNTS_COLUMNS + (ID_COLUMN,) if any(ids) else COUNTS_COLUMNS
    stream, owned = _open_text(dest, "w")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for label, row, acquisition_id in zip(labels.tolist(), counts.tolist(), ids):
            writer.writerow([repr(label), *map(str, row), acquisition_id][:len(header)])
    finally:
        if owned:
            stream.close()


def fold_phase(phase, domain: PhaseDomain):
    """Map nominal phases into [domain.lower, domain.upper) by width-modular
    reduction, elementwise; a scalar gives a float.  Never applied
    implicitly."""
    folded = domain.lower + np.fmod(np.subtract(phase, domain.lower), domain.width)
    folded = np.where(folded < domain.lower, folded + domain.width, folded)
    # a remainder within rounding of one width lands on upper, which is
    # congruent to lower
    folded = np.where(folded >= domain.upper, domain.lower, folded)
    return folded if folded.ndim else float(folded)
