"""Bit strings and self-delimiting integers.

Conventions used everywhere in this package:

* Bit strings are MSB-first: bit 0 of a BitString is the most significant bit
  of the first byte of its byte serialization.
* ``BitWriter.write_uint`` is an Elias-gamma-style code on x+1 so that 0 is
  encodable: for z = x+1 with bit length L, the code is (L-1) zero bits
  followed by the L bits of z (total 2L-1 bits).

Runs of equal-width values (``write_uints``/``read_uints``) of width 1, 2
or 4 -- the contour symbol widths, and the label width of small pieces --
go through byte tables, so that no Python code runs per value.  Such a
width divides 8, so every byte of an aligned run holds whole values: a read
realigns the run to a byte boundary and expands each byte through a
256-entry table of value tuples, and a write turns the values into one
digit string of base 2, 4 or 16 and parses it with ``int``.  A power-of-two
base is parsed in linear time, and is exempt from the int/str digit limit
of Python 3.11 and later.  Other widths go in blocks of at most 64 values.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Sequence

from .errors import CodecError

__all__ = [
    "BitString",
    "BitWriter",
    "BitReader",
    "ceil_log2",
]

# Decode-side ceiling on gamma-coded values (fuzz guard): 2**62 is far above
# anything a valid container contains.
_MAX_UINT_BITS = 62

# Run kernels of the widths that divide a byte.  _BYTE_VALUES[w][b]: the
# values of width w that byte b holds, MSB first.  _DIGITS[w] translates a
# byte of values into digits of base 2**w, and every byte that is no value
# of width w into "!", which no int() parse accepts: an out-of-range value
# cannot read as a digit, a sign, a base prefix ("0b1"), an underscore or
# whitespace.
_BYTE_VALUES = {
    w: [tuple((b >> s) & ((1 << w) - 1) for s in range(8 - w, -1, -w)) for b in range(256)]
    for w in (1, 2, 4)
}
_DIGITS = {w: b"0123456789abcdef"[: 1 << w].ljust(256, b"!") for w in (1, 2, 4)}


def ceil_log2(x: int) -> int:
    """ceil(log2 x) for x >= 1, and 0 for x = 0: the bits that address x
    distinct labels."""
    return max(x - 1, 0).bit_length()


class BitString:
    """Immutable MSB-first bit sequence.

    Internally a (value, length) pair of Python ints, so concatenation and
    slicing are big-int shifts. Equality and hashing are by content.
    """

    __slots__ = ("_v", "_n")

    def __init__(self, value: int = 0, width: int = 0):
        if width < 0:
            raise ValueError("width must be >= 0")
        if value < 0 or value.bit_length() > width:
            raise ValueError("value does not fit in width")
        self._v = value
        self._n = width

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitString":
        v = 0
        n = 0
        for b in bits:
            v = (v << 1) | (1 if b else 0)
            n += 1
        return cls(v, n)

    @classmethod
    def from_01(cls, s: str) -> "BitString":
        if s and set(s) - {"0", "1"}:
            raise ValueError("not a 01-string")
        return cls(int(s, 2) if s else 0, len(s))

    @classmethod
    def from_bytes(cls, data: bytes, bit_length: int) -> "BitString":
        if bit_length > 8 * len(data) or bit_length < 8 * len(data) - 7:
            raise ValueError("bit_length inconsistent with data size")
        v = int.from_bytes(data, "big") >> (8 * len(data) - bit_length)
        return cls(v, bit_length)

    # -- accessors -------------------------------------------------------

    @property
    def value(self) -> int:
        return self._v

    def __len__(self) -> int:
        return self._n

    def __bool__(self) -> bool:
        return self._n > 0

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self._n:
            raise IndexError(i)
        return (self._v >> (self._n - 1 - i)) & 1

    def __iter__(self) -> Iterator[int]:
        for i in range(self._n):
            yield (self._v >> (self._n - 1 - i)) & 1

    def uint_at(self, pos: int, width: int) -> int:
        if pos < 0 or width < 0 or pos + width > self._n:
            raise IndexError("bit range out of bounds")
        return (self._v >> (self._n - pos - width)) & ((1 << width) - 1)

    def slice(self, pos: int, width: int) -> "BitString":
        return BitString(self.uint_at(pos, width), width)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BitString)
            and self._n == other._n
            and self._v == other._v
        )

    def __hash__(self) -> int:
        return hash((self._v, self._n))

    def __add__(self, other: "BitString") -> "BitString":
        return BitString((self._v << other._n) | other._v, self._n + other._n)

    def to_bytes(self) -> bytes:
        """Big-endian bytes, last byte zero-padded in its low bits."""
        nbytes = (self._n + 7) // 8
        return (self._v << (8 * nbytes - self._n)).to_bytes(nbytes, "big")

    def to01(self) -> str:
        return format(self._v, f"0{self._n}b") if self._n else ""

    def __repr__(self) -> str:
        if self._n <= 64:
            return f"BitString('{self.to01()}')"
        return f"BitString(<{self._n} bits>)"


class BitWriter:
    """Append-only bit accumulator; linear time in total bits written."""

    def __init__(self) -> None:
        self._buf = bytearray()
        self._cur = 0  # partial byte, high bits first
        self._nbits = 0  # bits currently in _cur, 0..7

    def __len__(self) -> int:
        return 8 * len(self._buf) + self._nbits

    def write_bit(self, b: int) -> None:
        self._cur = (self._cur << 1) | (1 if b else 0)
        self._nbits += 1
        if self._nbits == 8:
            self._buf.append(self._cur)
            self._cur = 0
            self._nbits = 0

    def _append(self, value: int, width: int) -> None:
        """Append ``width`` bits of ``value`` (which fits): whole bytes go
        into the buffer in one step, the rest stays in the partial byte."""
        nbits = self._nbits + width
        value |= self._cur << width
        if nbits < 8:
            self._cur = value
            self._nbits = nbits
            return
        rest = nbits & 7
        if nbits < 16:
            self._buf.append(value >> rest)
        else:
            self._buf += (value >> rest).to_bytes(nbits >> 3, "big")
        self._cur = value & ((1 << rest) - 1)
        self._nbits = rest

    def write_uint_bits(self, value: int, width: int) -> None:
        """Write ``value`` in exactly ``width`` bits, MSB first."""
        if width < 0 or value < 0 or value.bit_length() > width:
            raise ValueError("value does not fit in width")
        self._append(value, width)

    def write_uints(self, values: Sequence[int], width: int) -> None:
        """Write each value in exactly ``width`` bits, MSB first: the same
        bits as one ``write_uint_bits`` per value.  A run of width 1, 2 or 4
        is parsed as one base-2**width digit string (see the module
        docstring); any other run is appended in blocks of at most 64
        values, so that no shift grows with the run.  Raises ValueError on a
        value that is not an int that fits."""
        digits = _DIGITS.get(width)
        if digits is not None:
            if values:
                try:
                    acc = int(bytes(values).translate(digits), 1 << width)
                except (TypeError, ValueError):
                    raise ValueError("value does not fit in width") from None
                self._append(acc, len(values) * width)
            return
        if width < 0:
            raise ValueError("value does not fit in width")
        if len(values) > 64:
            for i in range(0, len(values), 64):
                self.write_uints(values[i : i + 64], width)
            return
        limit = 1 << width
        acc = 0
        try:
            for v in values:
                if not 0 <= v < limit:
                    raise ValueError("value does not fit in width")
                acc = (acc << width) | v
        except TypeError:  # a value that is no int
            raise ValueError("value does not fit in width") from None
        self._append(acc, len(values) * width)

    def write_uint(self, x: int) -> None:
        """Self-delimiting nonnegative integer (gamma on x+1)."""
        z = x + 1
        if x < 0:
            raise ValueError("x must be >= 0")
        self._append(z, 2 * z.bit_length() - 1)

    def write_bits(self, bs: BitString) -> None:
        self._append(bs.value, len(bs))

    def build(self) -> BitString:
        v = int.from_bytes(bytes(self._buf), "big")
        if self._nbits:
            v = (v << self._nbits) | self._cur
        return BitString(v, 8 * len(self._buf) + self._nbits)


class BitReader:
    """Cursor over the first ``nbits`` bits of ``data`` (all of them when
    ``nbits`` is None), MSB first, from bit ``pos``.  A ``bytes`` argument
    is read in place, not copied.  All reads raise CodecError past the end."""

    def __init__(self, data: bytes, nbits: int | None = None, pos: int = 0):
        data = bytes(data)  # the same object when it is bytes already
        if nbits is None:
            nbits = 8 * len(data)
        elif not 0 <= nbits <= 8 * len(data):
            raise ValueError("bit count out of range of the data")
        self._bytes = data
        self._n = nbits
        self.pos = pos

    def __len__(self) -> int:
        return self._n

    @property
    def remaining(self) -> int:
        return self._n - self.pos

    def read_uint_bits(self, width: int) -> int:
        if width < 0:
            raise CodecError("negative read width")
        pos = self.pos
        if pos + width > self._n:
            raise CodecError("read past end of bit stream")
        self.pos = pos + width
        if width == 0:
            return 0
        lo = pos // 8
        hi = (pos + width + 7) // 8
        chunk = int.from_bytes(self._bytes[lo:hi], "big")
        shift = 8 * (hi - lo) - (pos - 8 * lo) - width
        return (chunk >> shift) & ((1 << width) - 1)

    def read_uints(self, width: int, count: int) -> list[int]:
        """``count`` values of ``width`` bits each: the same values as that
        many ``read_uint_bits`` calls.  The whole run is checked against the
        stream length before anything is read.  A run of width 1, 2 or 4 is
        realigned to a byte boundary and expanded through a byte table (see
        the module docstring); any other run is sliced in blocks of at most
        64 values, so that no shift grows with the run.  A zero width
        consumes nothing, so the caller bounds ``count`` then."""
        if width < 0 or count < 0:
            raise CodecError("negative read width")
        pos = self.pos
        end = pos + width * count
        if end > self._n:
            raise CodecError("read past end of bit stream")
        self.pos = end
        data = self._bytes
        table = _BYTE_VALUES.get(width)
        if table is not None:
            lo, hi = pos >> 3, (end + 7) >> 3
            run = data[lo:hi]
            if pos & 7:  # drop the bits before the run, a byte's worth of room
                run = (int.from_bytes(run, "big") << (pos & 7)).to_bytes(hi - lo + 1, "big")[1:]
            out = list(chain.from_iterable(map(table.__getitem__, run)))
            del out[count:]
            return out
        if width == 0:
            return [0] * count
        mask = (1 << width) - 1
        out: list[int] = []
        while True:
            stop = min(pos + 64 * width, end)
            hi = (stop + 7) >> 3
            chunk = int.from_bytes(data[pos >> 3 : hi], "big") >> (8 * hi - stop)
            out += [(chunk >> s) & mask for s in range(stop - pos - width, -1, -width)]
            if stop == end:
                return out
            pos = stop

    def read_bit(self) -> int:
        return self.read_uint_bits(1)

    def read_uint(self) -> int:
        """Inverse of BitWriter.write_uint.  The zero prefix is found in one
        window of up to ``_MAX_UINT_BITS + 1`` bits, which holds the one-bit
        of every sane code."""
        pos = self.pos
        avail = min(_MAX_UINT_BITS + 1, self._n - pos)
        if avail <= 0:
            raise CodecError("truncated uint")
        hi = (pos + avail + 7) >> 3
        win = (int.from_bytes(self._bytes[pos >> 3 : hi], "big") >> (8 * hi - pos - avail)) & (
            (1 << avail) - 1
        )
        zeros = avail - win.bit_length()
        if zeros > _MAX_UINT_BITS:
            raise CodecError("uint exceeds sane size")
        if not win:
            raise CodecError("truncated uint")
        size = 2 * zeros + 1
        if size <= avail:
            self.pos = pos + size
            return (win >> (avail - size)) - 1
        self.pos = pos + zeros
        return self.read_uint_bits(zeros + 1) - 1

    def read_bits(self, width: int) -> BitString:
        return BitString(self.read_uint_bits(width), width)

    def since(self, start: int) -> BitString:
        """The bits from position ``start`` up to the cursor."""
        end = self.pos
        self.pos = start
        return self.read_bits(end - start)

