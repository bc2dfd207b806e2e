"""Exception types raised by the library.

Everything user-facing derives from PlancodeError so callers can catch one
type. Decode paths must only ever raise CodecError subclasses on malformed
input, never IndexError/ValueError from the guts.
"""

from __future__ import annotations


class PlancodeError(Exception):
    """Base class for all library errors."""


class InvalidEmbedding(PlancodeError):
    """Rotation-system input is malformed: bad dart pairing, self-loop,
    repeated neighbor, or a declared genus that does not match the rotation."""


class TooSmall(PlancodeError):
    """Operation requires a larger graph (e.g. triangulating n < 3)."""


class Disconnected(PlancodeError):
    """Operation requires a connected graph (e.g. separation hosts)."""


class NotInClass(PlancodeError):
    """Graph fails the membership predicate of the requested class."""


class CodecError(PlancodeError):
    """Container bits are malformed or internally inconsistent."""


class ChecksFailed(PlancodeError):
    """An internal invariant check failed (bug guard, not an input error)."""
