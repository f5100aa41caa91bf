"""Plain-text table rendering for benchmark output.

The benchmark harness prints the same rows/series the paper's claims are
stated in, as monospace tables that survive ``pytest -s`` capture and
``tee`` into EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def _format_cell(value: Any) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}"
    if isinstance(value, int):
        return f"{value:,}"
    return str(value)


@dataclass(slots=True)
class Table:
    """A titled monospace table built row by row."""

    title: str
    headers: Sequence[str]
    rows: list[list[str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        """Append one row; cell count must match the header."""
        if len(cells) != len(self.headers):
            raise ValueError(
                f"row has {len(cells)} cells; table has {len(self.headers)} columns"
            )
        self.rows.append([_format_cell(cell) for cell in cells])

    def add_note(self, note: str) -> None:
        """Attach a footnote rendered under the table."""
        self.notes.append(note)

    def render(self) -> str:
        """Render the table (title, headers, rows, notes) as text."""
        widths = [len(header) for header in self.headers]
        for row in self.rows:
            for index, cell in enumerate(row):
                widths[index] = max(widths[index], len(cell))
        lines = [self.title, "=" * len(self.title)]
        header_line = "  ".join(
            header.ljust(widths[index]) for index, header in enumerate(self.headers)
        )
        lines.append(header_line)
        lines.append("-" * len(header_line))
        for row in self.rows:
            lines.append(
                "  ".join(cell.rjust(widths[index]) for index, cell in enumerate(row))
            )
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    def show(self) -> None:
        """Print the rendered table preceded by a blank line."""
        print()
        print(self.render())


def render_series(label: str, pairs: Iterable[tuple[Any, Any]]) -> str:
    """One-line ``label: x1->y1 x2->y2 ...`` series rendering."""
    body = "  ".join(f"{x}->{_format_cell(y)}" for x, y in pairs)
    return f"{label}: {body}"

