"""Shipped reference tables, the documented erratum list, and cell-by-cell
comparison of generated tables against them.

The reference CSVs under reference_data/ transcribe the published tables
verbatim.  Cells where our computation deliberately and reproducibly differs
from the published value are recorded in reference_data/errata.json with an
explanation; verification treats exactly those flags as expected.  No other
mechanism may suppress a flagged cell.  A comparison takes a built Table, and
DiscrepancyReport takes the errata list from its caller, as `riskdiv verify`
loads it once for all tables.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from importlib import resources

from .tables import Table

__all__ = [
    "CellComparison",
    "DiscrepancyReport",
    "TableParseError",
    "COMPARISON_TOLERANCES",
    "load_reference",
    "load_errata",
    "compare_with_reference",
]

# Absolute tolerances for |generated - reference| per table: half a printed
# unit for the exact pmf table, one printed unit for the exact loading
# tables, and a simulation allowance for the Monte Carlo tables.
COMPARISON_TOLERANCES = {"T1": 0.0005, "T2": 0.005, "T3": 0.005, "T4": 0.02, "T5": 0.02}


class TableParseError(ValueError):
    """A table file could not be parsed; carries the offending location."""


@dataclass(frozen=True)
class CellComparison:
    table_id: str
    row_key: tuple[str, str]
    col_key: str
    generated: float
    reference: float
    tolerance: float
    status: str  # "match" or "flagged"


@dataclass
class DiscrepancyReport:
    """Outcome of comparing one generated table against its reference."""

    table_id: str
    cells: list[CellComparison]

    @property
    def flagged(self) -> list[CellComparison]:
        return [c for c in self.cells if c.status == "flagged"]

    def unexpected(self, errata: list[dict]) -> list[CellComparison]:
        """Flagged cells not covered by an erratum: one at the cell whose "ours"
        lies within the cell's tolerance of the generated value."""
        ours = {(e["table"], str(e["row"]), e["measure"], e["column"]): e["ours"] for e in errata}

        def documented(c: CellComparison) -> bool:
            pinned = ours.get((c.table_id, c.row_key[1], c.row_key[0], c.col_key))
            return pinned is not None and abs(c.generated - pinned) <= c.tolerance

        return [c for c in self.flagged if not documented(c)]

    def stale(self, errata: list[dict]) -> list[dict]:
        """Errata of this table whose cell is not flagged.

        Meaningful for an exact build only: a simulated cell may land within
        tolerance of its reference by chance.
        """
        flagged = {(c.row_key[1], c.row_key[0], c.col_key) for c in self.flagged}
        return [
            e
            for e in errata
            if e["table"] == self.table_id
            and (str(e["row"]), e["measure"], e["column"]) not in flagged
        ]


def _read_rows(text: str, where: str) -> tuple[list[str], list[list[str]]]:
    rows = []
    header: list[str] | None = None
    for lineno, record in enumerate(csv.reader(text.splitlines()), start=1):
        if not record or record[0].startswith("#"):
            continue
        if header is None:
            header = record
            continue
        if len(record) != len(header):
            raise TableParseError(
                f"{where}: row {lineno} has {len(record)} fields, header has {len(header)}"
            )
        rows.append(record)
    if header is None:
        raise TableParseError(f"{where}: no header row found")
    return header, rows


def _cells(header: list[str], rows: list[list[str]], where: str) -> dict[tuple[str, str, str], float]:
    """Map (measure, row-label, column) -> value for every numeric cell."""
    out: dict[tuple[str, str, str], float] = {}
    key_cols = 2 if header[0] == "measure" else 1
    for r, row in enumerate(rows):
        measure = row[0] if key_cols == 2 else ""
        label = row[key_cols - 1]
        for c, col in enumerate(header[key_cols:], start=key_cols):
            raw = row[c]
            if raw == "":
                continue
            try:
                value = float(raw)
            except ValueError as exc:
                raise TableParseError(f"{where}: row {r + 1}, column {col!r}: {raw!r}") from exc
            out[(measure, label, col)] = value
    return out


def _reference_text(table_id: str) -> str:
    res = resources.files("riskdiv.reference_data").joinpath(f"{table_id}.csv")
    return res.read_text(encoding="utf-8")


def load_reference(table_id: str) -> dict[tuple[str, str, str], float]:
    """Reference cells for one table as (measure, row, column) -> value."""
    header, rows = _read_rows(_reference_text(table_id), f"reference {table_id}")
    return _cells(header, rows, f"reference {table_id}")


def load_errata() -> list[dict]:
    res = resources.files("riskdiv.reference_data").joinpath("errata.json")
    return json.loads(res.read_text(encoding="utf-8"))


def compare_with_reference(generated: Table, table_id: str) -> DiscrepancyReport:
    """Compare a generated table against the shipped reference, cell by cell.

    Every reference cell appears exactly once in the report; flagged cells
    are kept, never dropped.

    Raises:
        TableParseError: On a non-numeric cell in either table, or malformed
            reference CSV, with the row/column location.
        KeyError: If the generated table is missing a reference cell.
    """
    gen = _cells(generated.headers, generated.rows, f"generated {table_id}")
    ref = load_reference(table_id)
    tol = COMPARISON_TOLERANCES[table_id]
    cells = []
    for (measure, label, col), ref_value in ref.items():
        if (measure, label, col) not in gen:
            raise KeyError(f"generated {table_id} is missing cell {(measure, label, col)}")
        g = gen[(measure, label, col)]
        status = "match" if abs(g - ref_value) <= tol else "flagged"
        cells.append(
            CellComparison(table_id, (measure, label), col, g, ref_value, tol, status)
        )
    return DiscrepancyReport(table_id, cells)
