"""Physical-unit helpers used throughout the APIM simulator.

All internal computation is carried out in SI base units (seconds, joules,
volts, amperes, ohms, meters).  These constants make call sites read like the
paper ("1.1 * NS", "10 * KILO_OHM") instead of bare exponents.

The module also provides small formatting helpers so reports can print
quantities with engineering prefixes, matching the style of the paper's
tables (e.g. ``1.4e-16 J*s`` is printed as ``0.14 fJ*s``).
"""

from __future__ import annotations

# --- time ---------------------------------------------------------------
PS = 1e-12
NS = 1e-9
US = 1e-6
MS = 1e-3

# --- energy -------------------------------------------------------------
FJ = 1e-15
PJ = 1e-12
NJ = 1e-9
UJ = 1e-6
MJ = 1e-3

# --- electrical ---------------------------------------------------------
KILO_OHM = 1e3
MEGA_OHM = 1e6
MILLI_VOLT = 1e-3
MICRO_AMP = 1e-6
NANO_AMP = 1e-9
FEMTO_FARAD = 1e-15

# --- data sizes (binary prefixes, as used by the paper's dataset axis) ---
KIB = 1024
MIB = 1024**2
GIB = 1024**3

#: Engineering prefixes, largest first, for :func:`format_si`.
_SI_PREFIXES = (
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "u"),
    (1e-9, "n"),
    (1e-12, "p"),
    (1e-15, "f"),
    (1e-18, "a"),
)


def format_si(value: float, unit: str) -> str:
    """Format *value* with an engineering prefix, to 3 significant digits.

    >>> format_si(1.1e-9, "s")
    '1.1 ns'
    >>> format_si(0.0, "J")
    '0 J'
    """
    if value == 0:
        return f"0 {unit}"
    magnitude = abs(value)
    for scale, prefix in _SI_PREFIXES:
        if magnitude >= scale:
            return f"{value / scale:.3g} {prefix}{unit}"
    scale, prefix = _SI_PREFIXES[-1]
    return f"{value / scale:.3g} {prefix}{unit}"


def format_bytes(num_bytes: float) -> str:
    """Format a byte count with binary prefixes (matches the paper's axis).

    >>> format_bytes(32 * MIB)
    '32M'
    >>> format_bytes(GIB)
    '1G'
    """
    for scale, suffix in ((GIB, "G"), (MIB, "M"), (KIB, "K")):
        if num_bytes >= scale:
            quotient = num_bytes / scale
            if quotient == int(quotient):
                return f"{int(quotient)}{suffix}"
            return f"{quotient:.1f}{suffix}"
    return f"{int(num_bytes)}B"


def format_improvement(factor: float) -> str:
    """Format an improvement factor like the paper's tables (e.g. ``480x``)."""
    if factor >= 10:
        return f"{factor:.0f}x"
    return f"{factor:.1f}x"
