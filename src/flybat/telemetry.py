"""Telemetry CSV schema, writer, and reader.

Comma-separated with a fixed, versioned header; the first line is
`# schema=1`. Floats are written with 9 significant digits, which
round-trips exactly: parsing a written file and re-writing it
reproduces the bytes.
"""

from __future__ import annotations

import io
from typing import NamedTuple

SCHEMA_LINE = "# schema=1"


class TelemetryError(ValueError):
    """Raised for malformed telemetry files."""


class TelemetryRow(NamedTuple):
    time: float
    bus_voltage: float
    current_total: float
    current_primary: float
    current_secondary: float
    power: float
    active_source: str
    main_x: float
    main_y: float
    main_z: float
    fb_id: int
    fb_phase: str
    fb_x: float
    fb_y: float
    fb_z: float
    contact_normal_force: float
    events: str = ""


COLUMNS = TelemetryRow._fields

_FLOAT_COLS = frozenset(
    c for c in COLUMNS if c not in ("active_source", "fb_id", "fb_phase", "events")
)
# one field per column: 9 significant digits for floats, str() for the
# rest; printf-style, which formats a row in about half the time of
# str.format with the same text
_ROW_FORMAT = ",".join("%.9g" if c in _FLOAT_COLS else "%s" for c in COLUMNS)


def format_row(row: TelemetryRow) -> str:
    return _ROW_FORMAT % row


def parse_row(line: str) -> TelemetryRow:
    parts = line.rstrip("\n").split(",")
    if len(parts) != len(COLUMNS):
        # events may legitimately be empty but never contains commas
        raise TelemetryError(f"expected {len(COLUMNS)} fields, got {len(parts)}")
    kw = {}
    for name, raw in zip(COLUMNS, parts):
        if name in _FLOAT_COLS:
            kw[name] = float(raw)
        elif name == "fb_id":
            kw[name] = int(raw)
        else:
            kw[name] = raw
    return TelemetryRow(**kw)


class TelemetryWriter:
    """Incremental writer; optionally retains rows in memory."""

    def __init__(self, path=None, keep_rows: bool = False):
        self.path = path
        self.rows: list[TelemetryRow] | None = [] if keep_rows else None
        self._fh = open(path, "w", encoding="utf-8", newline="\n") if path else None
        if self._fh is not None:
            self._fh.write(SCHEMA_LINE + "\n")
            self._fh.write(",".join(COLUMNS) + "\n")

    def write_row(self, row: TelemetryRow) -> None:
        if self._fh is not None:
            self._fh.write(format_row(row) + "\n")
        if self.rows is not None:
            self.rows.append(row)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def read_telemetry(source) -> list[TelemetryRow]:
    """Parse a telemetry file (path or file-like) back into rows."""
    if hasattr(source, "read"):
        fh = source
        lines = fh.read().splitlines()
    else:
        with open(source, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    if not lines or lines[0] != SCHEMA_LINE:
        raise TelemetryError("missing or unsupported schema line")
    if len(lines) < 2 or lines[1] != ",".join(COLUMNS):
        raise TelemetryError("telemetry header does not match schema 1")
    return [parse_row(ln) for ln in lines[2:] if ln]


def dump_telemetry(rows) -> str:
    buf = io.StringIO()
    buf.write(SCHEMA_LINE + "\n")
    buf.write(",".join(COLUMNS) + "\n")
    for row in rows:
        buf.write(format_row(row) + "\n")
    return buf.getvalue()
