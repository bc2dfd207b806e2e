"""Pinned constants shared across modules.

These are frozen by the acceptance suite; change only with a ledger entry.
The container layout they belong to is in the ``plancode.codec`` docstring.
"""

from __future__ import annotations

# --- separator --------------------------------------------------------------
# Max side fraction of a separation.
SIDE_FRACTION = 2.0 / 3.0

# --- tables -----------------------------------------------------------------
# The table's size cap and the no-level component threshold. The table of a
# class holds its members of 1 to TABLE_CAP nodes; a finest part of at most
# this many nodes is coded as an index into it, a larger one as its
# spanning-tree contour code. A component of at most this many nodes is one
# such part, with no separation level. The cap is not written in containers.
TABLE_CAP = 6

# --- codec ------------------------------------------------------------------
MAGIC = 0x504C43  # "PLC"
FORMAT_VERSION = 6
# Decode-side sanity ceilings (fuzz guards).
MAX_LEVELS = 64
MAX_NODES = 1 << 28
