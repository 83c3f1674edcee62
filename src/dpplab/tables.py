"""CSV text of the report tables, in the one format they share: a field that holds a comma or a quote
is quoted, a float is written at 17 significant digits (it reads back as the same double), an undefined
value (``None``) is an empty field, and every line ends in ``"\\n"``."""

import csv
import io


def _field(value) -> str:
    return "" if value is None else f"{value:.17g}" if isinstance(value, float) else str(value)


def csv_text(header, rows) -> str:
    """The header line, then one line per row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_field, row) for row in rows)
    return out.getvalue()
