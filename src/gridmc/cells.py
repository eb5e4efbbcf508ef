"""Cell addresses for the grid model (A1-style, columns A..ZZ)."""

from __future__ import annotations

import re
from dataclasses import dataclass

_CELL_RE = re.compile(r"^([A-Z]{1,2})([1-9][0-9]*)$")

MAX_COLUMN = 26 * 26 + 26 - 1  # "ZZ"


@dataclass(frozen=True)
class CellRef:
    """A single cell address: column index (A=0) and 1-based row. Cells
    sort row-major: by row, then by column."""

    col: int
    row: int

    def __post_init__(self):
        if not 0 <= self.col <= MAX_COLUMN:
            raise ValueError(f"column index {self.col} out of range A..ZZ")
        if self.row < 1:
            raise ValueError(f"row {self.row} must be >= 1")

    def __str__(self) -> str:
        if self.col < 26:
            letters = chr(ord("A") + self.col)
        else:
            hi, lo = divmod(self.col - 26, 26)
            letters = chr(ord("A") + hi) + chr(ord("A") + lo)
        return f"{letters}{self.row}"

    def __lt__(self, other: "CellRef") -> bool:
        return (self.row, self.col) < (other.row, other.col)


def parse_cell(text: str) -> CellRef:
    """Parse an A1-style address. Raises ValueError on bad input."""
    m = _CELL_RE.match(text.strip().upper())
    if not m:
        raise ValueError(f"invalid cell address: {text!r}")
    letters, row = m.group(1), int(m.group(2))
    col = 0
    for ch in letters:
        col = col * 26 + (ord(ch) - ord("A") + 1)
    return CellRef(col - 1, row)
