"""Pinned constants shared across modules.

These are frozen by the acceptance suite; change only with a ledger entry.
The container layout they belong to is in the ``plancode.codec`` docstring.
"""

from __future__ import annotations

# --- separator --------------------------------------------------------------
# Max side fraction of a separation.
SIDE_FRACTION = 2.0 / 3.0

# --- separation levels ------------------------------------------------------
# Slack constant in the center-size envelope f0 (see separation.envelope_center):
# it absorbs the small-n regime where the per-level terms round up.
ENVELOPE_C = 8.0

# --- tables -----------------------------------------------------------------
# Table cap, the only one: the size cap of the standard table that encode
# uses, the largest cap build_table enumerates, and the largest a by-reference
# container may name. Finest parts of at most this many nodes are coded as a
# table index, larger ones as spanning-tree contour codes (since format 4;
# format 3 wrote them as plain labeled graphs); a component of at most this
# many nodes is one such part, with no separation level. A class codes
# against the table of its GraphClass.table_class: plane triangulations use
# the plane-connected table, every other class its own.
BYPASS_CAP = 6

# --- codec ------------------------------------------------------------------
MAGIC = 0x504C43  # "PLC"
FORMAT_VERSION = 5
DEFAULT_MAX_GENUS = 2
# Decode-side sanity ceilings (fuzz guards).
MAX_LEVELS = 64
MAX_NODES = 1 << 28
