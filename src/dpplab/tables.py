"""CSV text of the report tables, in the one format they share (a field that holds a comma or a quote is
quoted, a float is written at 17 significant digits, so it reads back as the same double, an undefined value
``None`` is an empty field, and every line ends in ``"\\n"``), and the one rule each that labels a table's steps
and its windows."""

import csv
import io

from .errors import DimensionError


def _field(value) -> str:
    return "" if value is None else f"{value:.17g}" if isinstance(value, float) else str(value)


def csv_text(header, rows) -> str:
    """The header line, then one line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_field, row) for row in rows)
    return out.getvalue()


def step_labels(steps, count: int) -> tuple:
    """``steps`` as a tuple, or 1..count when it is None; :class:`DimensionError` unless it holds ``count`` labels."""
    labels = tuple(range(1, count + 1) if steps is None else steps)
    if len(labels) != count:
        raise DimensionError(f"{len(labels)} step labels for {count} steps")
    return labels


def window_labels(windows, prefix: str) -> tuple:
    """Each window's description, or ``prefix`` and its position among ``windows`` when it has none."""
    return tuple(w.description or f"{prefix}{j}" for j, w in enumerate(windows))
