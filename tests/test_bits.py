import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plancode.bits import BitReader, BitString, BitWriter, ceil_log2
from plancode.errors import CodecError

from oracles import bit_reader


def bs(s: str) -> BitString:
    return BitString.from_01(s)


def uint_bits(x: int) -> BitString:
    w = BitWriter()
    w.write_uint(x)
    return w.build()


# -- BitString basics ---------------------------------------------------------


def test_bitstring_construction_and_indexing():
    b = bs("10110")
    assert len(b) == 5
    assert [b[i] for i in range(5)] == [1, 0, 1, 1, 0]
    assert list(b) == [1, 0, 1, 1, 0]
    assert b.to01() == "10110"
    assert b == BitString.from_bits([1, 0, 1, 1, 0])
    assert b != bs("010110")  # same value, different width


def test_bitstring_concat_and_slice():
    a, b = bs("101"), bs("0011")
    assert (a + b).to01() == "1010011"
    assert (a + b).slice(2, 3).to01() == "100"
    assert (a + b).uint_at(3, 4) == 0b0011
    assert (BitString() + a) == a


def test_bitstring_bytes_roundtrip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(0, 70)
        b = BitString.from_bits(rng.randrange(2) for _ in range(n))
        assert BitString.from_bytes(b.to_bytes(), n) == b


def test_bitstring_rejects_bad_width():
    with pytest.raises(ValueError):
        BitString(4, 2)
    with pytest.raises(ValueError):
        BitString(-1, 8)


# -- writer / reader ----------------------------------------------------------


def test_writer_matches_manual_bits():
    w = BitWriter()
    w.write_bit(1)
    w.write_uint_bits(0b0110, 4)
    w.write_bits(bs("111000111000111"))
    out = w.build()
    assert out.to01() == "1" + "0110" + "111000111000111"


def test_writer_large_values():
    w = BitWriter()
    w.write_uint_bits((1 << 200) - 3, 201)
    b = w.build()
    assert len(b) == 201
    assert b.value == (1 << 200) - 3


def test_reader_reads_back():
    rng = random.Random(21)
    fields = [(rng.randrange(1 << w), w) for w in rng.choices(range(0, 40), k=300)]
    w = BitWriter()
    for v, width in fields:
        w.write_uint_bits(v, width)
    r = bit_reader(w.build())
    for v, width in fields:
        assert r.read_uint_bits(width) == v
    assert r.remaining == 0
    with pytest.raises(CodecError):
        r.read_bit()


def test_reader_reads_the_first_nbits_of_its_bytes():
    data = bytes([0b10110011, 0b01000000])
    r = BitReader(data, 10, 2)
    assert r.read_uint_bits(8) == 0b11001101 and r.remaining == 0
    with pytest.raises(CodecError):
        r.read_bit()
    assert len(BitReader(data)) == 16
    assert BitReader(bytearray(data)).read_uints(4, 4) == [11, 3, 4, 0]
    for nbits in (-1, 17):
        with pytest.raises(ValueError):
            BitReader(data, nbits)


# -- self-delimiting integers -------------------------------------------------


def test_uint_roundtrip_small():
    for x in range(2000):
        b = uint_bits(x)
        assert len(b) == 2 * (x + 1).bit_length() - 1
        r = bit_reader(b)
        assert (r.read_uint(), r.pos) == (x, len(b))


def test_uint_roundtrip_large():
    rng = random.Random(3)
    for _ in range(100):
        x = rng.randrange(1 << rng.randrange(1, 60))
        assert bit_reader(uint_bits(x)).read_uint() == x


def test_uint_known_values():
    # gamma on x+1: 0 -> "1", 1 -> "010", 2 -> "011", 3 -> "00100"
    assert uint_bits(0).to01() == "1"
    assert uint_bits(1).to01() == "010"
    assert uint_bits(2).to01() == "011"
    assert uint_bits(3).to01() == "00100"


def test_uint_stream_concatenation():
    w = BitWriter()
    xs = [0, 1, 7, 0, 100, 3]
    for x in xs:
        w.write_uint(x)
    r = bit_reader(w.build())
    assert [r.read_uint() for _ in xs] == xs
    assert r.remaining == 0


def test_uint_decode_rejects_garbage():
    with pytest.raises(CodecError):
        bit_reader(bs("000000")).read_uint()  # runs off the end
    with pytest.raises(CodecError):
        bit_reader(bs("0" * 80 + "1" * 80)).read_uint()  # absurd magnitude


def test_uint_decode_errors_name_the_fault():
    for zeros in range(0, 63):
        with pytest.raises(CodecError, match="truncated uint"):
            bit_reader(bs("1" + "0" * zeros), 1).read_uint()
    for tail in ("", "1", "0" * 10 + "1" * 80):
        with pytest.raises(CodecError, match="uint exceeds sane size"):
            bit_reader(bs("0" * 63 + tail)).read_uint()
    # A sane prefix whose value bits run off the end.
    for zeros in (1, 30, 62):
        with pytest.raises(CodecError, match="read past end"):
            bit_reader(bs("0" * zeros + "1" + "0" * (zeros - 1))).read_uint()


def test_uint_largest_sane_value():
    x = (1 << 63) - 2  # 62 zeros, then 63 value bits
    b = uint_bits(x)
    assert len(b) == 125
    assert bit_reader(b).read_uint() == x


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, (1 << 63) - 2),
    st.lists(st.integers(0, 1), max_size=15),
    st.lists(st.integers(0, 1), max_size=70),
)
def test_uint_roundtrip_at_every_offset(x, head, tail):
    # Wide values put the end of the zero prefix, or the value bits, past
    # the reader's window; a tail keeps more bits after the code.
    w = BitWriter()
    for b in head:
        w.write_bit(b)
    w.write_uint(x)
    for b in tail:
        w.write_bit(b)
    r = bit_reader(w.build(), len(head))
    assert r.read_uint() == x
    assert r.pos == len(head) + 2 * (x + 1).bit_length() - 1


def test_uint_prefix_across_the_window():
    # Every prefix length from 0 to 62 zeros, at every start offset mod 8.
    for zeros in range(63):
        for x in ((1 << zeros) - 1, (1 << (zeros + 1)) - 2):
            for off in range(8):
                w = BitWriter()
                w.write_uint_bits(0, off)
                w.write_uint(x)
                w.write_uint(zeros)
                r = bit_reader(w.build(), off)
                assert (r.read_uint(), r.read_uint(), r.remaining) == (x, zeros, 0)


# -- run kernels ----------------------------------------------------------------


@st.composite
def _runs(draw):
    width = draw(st.integers(0, 40))
    count = draw(st.integers(0, 300))
    values = draw(
        st.lists(st.integers(0, (1 << width) - 1), min_size=count, max_size=count)
    )
    offset = draw(st.integers(0, 7))
    return width, values, offset


def _long_narrow_runs(test):
    """Runs of widths 1, 2 and 4 longer than 4,300 values, at every bit
    offset: their digit strings pass the int/str conversion limit of Python
    3.11, which exempts power-of-two bases."""
    rng = random.Random(4301)
    for width in (1, 2, 4):
        for offset in range(8):
            values = [rng.randrange(1 << width) for _ in range(4301 + 97 * offset)]
            test = example((width, values, offset), offset & 1)(test)
    return test


@settings(max_examples=150, deadline=None)
@given(_runs(), st.integers(0, 1))
@_long_narrow_runs
def test_run_kernels_match_per_value_calls(run, fill):
    width, values, offset = run
    one, many = BitWriter(), BitWriter()
    for w in (one, many):
        w.write_uint_bits(fill * ((1 << offset) - 1), offset)
    for v in values:
        one.write_uint_bits(v, width)
    many.write_uints(values, width)
    bits = one.build()
    assert many.build() == bits
    r = bit_reader(bits, offset)
    assert r.read_uints(width, len(values)) == values
    assert r.pos == len(bits)
    r = bit_reader(bits, offset)
    assert [r.read_uint_bits(width) for _ in values] == values


def test_read_uints_bounds():
    bits = bs("1011" * 25)
    r = bit_reader(bits, 3)
    with pytest.raises(CodecError, match="read past end"):
        r.read_uints(13, 8)  # 104 bits from position 3 of 100
    assert r.pos == 3
    # A hostile count is refused before anything is sliced.
    with pytest.raises(CodecError, match="read past end"):
        r.read_uints(13, 1 << 60)
    with pytest.raises(CodecError):
        r.read_uints(-1, 2)
    assert r.read_uints(0, 5) == [0] * 5 and r.pos == 3
    assert r.read_uints(97, 1) == [bits.uint_at(3, 97)] and r.remaining == 0


def test_write_uints_rejects_values_that_do_not_fit():
    cases = [([8], 3), ([-1], 3), ([1], 0), ([0] * 100 + [16], 4), ([1.5], 3)]
    # The byte-table widths: 10 is no binary digit, though "10" would parse
    # as two, and 11 must not read as the "b" of a "0b" prefix.
    cases += [([2], 1), ([10], 1), ([0, 11, 1], 1), ([4], 2), ([16], 4), ([256], 4)]
    cases += [(values, width) for width in (1, 2, 4) for values in ([-1], [1.5], ["1"])]
    for values, width in cases:
        with pytest.raises(ValueError):
            BitWriter().write_uints(values, width)
    with pytest.raises(ValueError):
        BitWriter().write_uints([0], -1)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 15), st.lists(st.integers(0, 1), max_size=200))
def test_write_bits_at_every_writer_offset(offset, bits):
    chunk = BitString.from_bits(bits)
    w = BitWriter()
    w.write_uint_bits((1 << offset) - 1, offset)
    w.write_bits(chunk)
    w.write_bit(1)
    assert w.build() == bs("1" * offset) + chunk + bs("1")
    assert len(w) == offset + len(bits) + 1


# -- label widths ---------------------------------------------------------------


def test_ceil_log2():
    # bits that address x labels: 0 for x <= 1
    assert [ceil_log2(x) for x in range(10)] == [0, 0, 1, 2, 2, 3, 3, 3, 3, 4]
    assert ceil_log2(1 << 40) == 40 and ceil_log2((1 << 40) + 1) == 41
