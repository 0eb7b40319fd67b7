"""Result export: flat tables as CSV.

The paper-style renderers target eyeballs; plotting pipelines want flat
tables.  A table is a header plus rows of plain scalars (for example a
campaign's :meth:`~repro.runtime.campaign.CampaignResult.to_rows`);
:func:`to_csv` serialises it.
"""

from __future__ import annotations

import io

from repro.errors import ConfigurationError

__all__ = ["to_csv"]

Rows = tuple[list[str], list[list]]


def to_csv(rows: Rows) -> str:
    """Serialise ``(header, rows)`` as RFC-4180-ish CSV text."""
    header, body = rows
    if not header:
        raise ConfigurationError("export needs a non-empty header")
    out = io.StringIO()

    def cell(value) -> str:
        text = f"{value}"
        if "," in text or '"' in text or "\n" in text:
            text = '"' + text.replace('"', '""') + '"'
        return text

    out.write(",".join(cell(c) for c in header) + "\n")
    for row in body:
        if len(row) != len(header):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(header)}"
            )
        out.write(",".join(cell(c) for c in row) + "\n")
    return out.getvalue()
