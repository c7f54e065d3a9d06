"""Plain-text table rendering for benchmark and example output.

The benchmarks print the same kind of rows the paper's figures would carry
(per-protocol fairness indices, per-parameter reliability curves).  No
plotting library is assumed; tables render as aligned monospace text which
`pytest -s` and the example scripts write to stdout.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Union

__all__ = ["format_table", "format_mapping", "Table"]

Cell = Union[str, int, float]


def _format_cell(value: Cell, precision: int) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.{precision}f}"
    return str(value)


def format_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Cell]],
    precision: int = 3,
    title: Optional[str] = None,
) -> str:
    """Render rows as an aligned text table.

    Column widths adapt to the longest cell; floats are formatted with the
    given precision.  Returns the table as a single string (no trailing
    newline) so callers can ``print`` or log it.
    """
    rendered_rows = [[_format_cell(cell, precision) for cell in row] for row in rows]
    widths = [len(str(header)) for header in headers]
    for row in rendered_rows:
        for index, cell in enumerate(row):
            if index < len(widths):
                widths[index] = max(widths[index], len(cell))
            else:
                widths.append(len(cell))
    lines: List[str] = []
    if title:
        lines.append(title)
    header_line = "  ".join(str(header).ljust(widths[index]) for index, header in enumerate(headers))
    lines.append(header_line)
    lines.append("  ".join("-" * width for width in widths))
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.ljust(widths[index]) for index, cell in enumerate(row))
        )
    return "\n".join(lines)


def format_mapping(mapping: Mapping[str, Cell], precision: int = 3, title: Optional[str] = None) -> str:
    """Render a flat ``name -> value`` mapping as a two-column table."""
    rows = [(key, mapping[key]) for key in mapping]
    return format_table(["metric", "value"], rows, precision=precision, title=title)


class Table:
    """Incrementally built table with named columns.

    Benchmarks create one :class:`Table`, add a row per configuration, and
    print it at the end; the row dictionaries are also returned to
    pytest-benchmark's ``extra_info`` for machine-readable capture.
    """

    def __init__(self, columns: Sequence[str], title: str = "") -> None:
        if not columns:
            raise ValueError("a table needs at least one column")
        self.columns = list(columns)
        self.title = title
        self.rows: List[Dict[str, Cell]] = []

    def add_row(self, **values: Cell) -> Dict[str, Cell]:
        """Add a row; missing columns render as empty strings."""
        unknown = set(values) - set(self.columns)
        if unknown:
            raise KeyError(f"unknown columns {sorted(unknown)}; declared {self.columns}")
        self.rows.append(dict(values))
        return self.rows[-1]

    def render(self, precision: int = 3) -> str:
        """Render the accumulated rows."""
        materialised = [
            [row.get(column, "") for column in self.columns] for row in self.rows
        ]
        return format_table(self.columns, materialised, precision=precision, title=self.title)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form; inverse of :meth:`from_dict`.

        Used by the CLI's ``--json`` artifact output and by the result cache,
        so a table can be re-rendered without re-running the experiments.
        """
        return {
            "columns": list(self.columns),
            "title": self.title,
            "rows": [dict(row) for row in self.rows],
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "Table":
        """Rebuild a table from :meth:`to_dict` output."""
        table = cls(payload["columns"], title=payload.get("title", ""))
        for row in payload.get("rows", []):
            table.add_row(**row)
        return table

    def __str__(self) -> str:
        return self.render()
