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
from dataclasses import dataclass
from pathlib import Path
from typing import TextIO

from .bayes import PhaseDomain
from .errors import CountsParseError
from .model import MAX_COUNT, N_SETTINGS, check_counts, is_real

COUNTS_COLUMNS = ("phase_rad", "c0", "c1", "c2", "c3")
ID_COLUMN = "acquisition_id"

# int() and float() also accept "_" digit separators and non-ASCII digits,
# which the schema forbids
_COUNT = re.compile(r"[0-9]+")
_PHASE = re.compile(r"[+-]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?")


@dataclass(frozen=True)
class CountsRecord:
    """One acquisition row: nominal phase plus the four setting counts."""

    phase_label: float
    counts: tuple[int, int, int, int]
    acquisition_id: str = ""

    def __post_init__(self) -> None:
        if not (is_real(self.phase_label) and math.isfinite(self.phase_label)):
            raise ValueError(f"phase label must be a finite real, got {self.phase_label!r}")
        object.__setattr__(self, "phase_label", float(self.phase_label))
        counts = check_counts(self.counts)
        if counts.ndim != 1:
            raise ValueError(f"need one row of {N_SETTINGS} counts, got shape {counts.shape}")
        object.__setattr__(self, "counts", tuple(counts.tolist()))


def _open_text(source: TextIO | str | Path, mode: str = "r"):
    """The text stream of a path, opened in mode, or source itself; and whether it was opened."""
    if isinstance(source, (str, Path)):
        return open(source, mode, encoding="utf-8", newline=""), True
    return source, False


def parse_counts(source: TextIO | str | Path) -> list[CountsRecord]:
    """Parse a counts CSV into records, preserving row order.

    Every malformed line is collected and reported together in a single
    CountsParseError; a header-only file yields an empty list.
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
        records: list[CountsRecord] = []
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
            counts = []
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
                counts.append(int(digits))
            if len(problems) > problems_before:
                continue
            records.append(
                CountsRecord(
                    phase_label=phase,
                    counts=tuple(counts),
                    acquisition_id=row[5].strip() if has_id else "",
                )
            )
        if problems:
            raise CountsParseError(problems)
        return records
    finally:
        if owned:
            stream.close()


def write_counts(records, dest: TextIO | str | Path) -> None:
    """Serialize records to the counts CSV schema (round-trips exactly)."""
    records = list(records)
    with_id = any(r.acquisition_id for r in records)
    header = COUNTS_COLUMNS + (ID_COLUMN,) if with_id else COUNTS_COLUMNS
    stream, owned = _open_text(dest, "w")
    try:
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(header)
        for r in records:
            row = [repr(float(r.phase_label)), *[str(c) for c in r.counts]]
            if with_id:
                row.append(r.acquisition_id)
            writer.writerow(row)
    finally:
        if owned:
            stream.close()


def fold_phase(phase: float, domain: PhaseDomain) -> float:
    """Map a nominal phase into [domain.lower, domain.upper) by width-modular
    reduction.  Never applied implicitly."""
    folded = domain.lower + math.fmod(phase - domain.lower, domain.width)
    if folded < domain.lower:
        folded += domain.width
    # a remainder within rounding of one width lands on upper, which is
    # congruent to lower
    return domain.lower if folded >= domain.upper else folded
