"""Frame codec layout, bit-exact round trips, malformed-buffer refusal,
and latest-value mailbox semantics."""

import math
import struct

import numpy as np
import pytest

from conftest import random_links
from extremctl.mapping import LINKS, _wrap
from extremctl.wire import (
    FRAME_SIZE,
    BadMagic,
    BadVersion,
    LatestValueMailbox,
    NonUnitQuaternion,
    PoseFrame,
    ShortRead,
    decode_frame,
    encode_frame,
)


def random_frame(rng, seq=0, timestamp_ns=0):
    return PoseFrame(seq=seq, timestamp_ns=timestamp_ns, links=random_links(rng))


def test_frame_is_353_bytes():
    assert FRAME_SIZE == 353
    rng = np.random.default_rng(0)
    assert len(encode_frame(random_frame(rng))) == 353


def test_round_trip_bit_exact():
    rng = np.random.default_rng(1)
    for k in range(200):
        frame = random_frame(rng, seq=k, timestamp_ns=k * 8_333_333)
        wire = encode_frame(frame)
        back = decode_frame(wire)
        assert back.seq == frame.seq
        assert back.timestamp_ns == frame.timestamp_ns
        assert encode_frame(back) == wire
        assert np.array_equal(back.links.array, frame.links.array)


def test_decode_rejects_wrong_magic():
    rng = np.random.default_rng(2)
    wire = bytearray(encode_frame(random_frame(rng)))
    wire[:4] = b"YCTL"
    with pytest.raises(BadMagic):
        decode_frame(bytes(wire))


def test_decode_rejects_wrong_version():
    rng = np.random.default_rng(3)
    wire = bytearray(encode_frame(random_frame(rng)))
    wire[4] = 9
    with pytest.raises(BadVersion):
        decode_frame(bytes(wire))


def test_decode_rejects_non_unit_quaternion():
    import struct

    rng = np.random.default_rng(4)
    wire = bytearray(encode_frame(random_frame(rng)))
    # first link quaternion sits after the 17-byte header + 24-byte translation
    struct.pack_into("<4d", wire, 17 + 24, 0.5, 0.0, 0.0, 0.0)
    with pytest.raises(NonUnitQuaternion):
        decode_frame(bytes(wire))


def test_decode_rejects_short_buffer():
    rng = np.random.default_rng(5)
    wire = encode_frame(random_frame(rng))
    with pytest.raises(ShortRead):
        decode_frame(wire[:100])


def test_frame_field_ranges():
    rng = np.random.default_rng(6)
    links = random_frame(rng).links
    with pytest.raises(ValueError):
        PoseFrame(seq=-1, timestamp_ns=0, links=links)
    with pytest.raises(ValueError):
        PoseFrame(seq=2**32, timestamp_ns=0, links=links)
    with pytest.raises(ValueError):
        PoseFrame(seq=0, timestamp_ns=-1, links=links)
    # A bool or a non-integer is refused by name, before it reaches struct.
    for seq, timestamp_ns, name in (
        (1.5, 0, "seq"),
        (True, 0, "seq"),
        (np.float64(2.0), 0, "seq"),
        ("3", 0, "seq"),
        (0, 2.0, "timestamp_ns"),
        (0, False, "timestamp_ns"),
        (0, np.True_, "timestamp_ns"),
    ):
        with pytest.raises(ValueError, match=f"^{name} "):
            PoseFrame(seq=seq, timestamp_ns=timestamp_ns, links=links)
    # numpy integers pass through operator.index and are stored as int
    frame = PoseFrame(seq=np.uint32(7), timestamp_ns=np.int64(9), links=links)
    assert (type(frame.seq), type(frame.timestamp_ns)) == (int, int)
    assert decode_frame(encode_frame(frame)).seq == 7
    with pytest.raises(ValueError, match="outside u32"):
        PoseFrame(seq=np.int64(2**32), timestamp_ns=0, links=links)


def test_mailbox_empty_and_replace():
    rng = np.random.default_rng(7)
    box = LatestValueMailbox()
    assert box.read().frame is None

    first = random_frame(rng, seq=1, timestamp_ns=1000)
    second = random_frame(rng, seq=2, timestamp_ns=2000)
    box.write(first)
    box.write(second)
    got = box.read(now_ns=5000)
    assert got.frame.seq == 2
    assert got.staleness_ns == 3000
    # same frame repeats on the next read, staleness keeps growing
    again = box.read(now_ns=9000)
    assert again.frame.seq == 2
    assert again.staleness_ns == 7000


def test_mailbox_guards_sequence_regression():
    rng = np.random.default_rng(8)
    box = LatestValueMailbox()
    box.write(random_frame(rng, seq=5, timestamp_ns=5000))
    assert box.read().frame.seq == 5
    # a late-arriving older frame must not surface after seq 5 was seen
    box.write(random_frame(rng, seq=3, timestamp_ns=3000))
    assert box.read().frame is None
    box.write(random_frame(rng, seq=6, timestamp_ns=6000))
    assert box.read().frame.seq == 6


def test_mailbox_counts_writes():
    rng = np.random.default_rng(9)
    box = LatestValueMailbox()
    for k in range(4):
        box.write(random_frame(rng, seq=k))
    assert box.writes == 4


def test_decode_refuses_nan_and_infinite_quaternions_as_non_unit():
    rng = np.random.default_rng(10)
    good = encode_frame(random_frame(rng))
    for bad in (float("nan"), float("inf"), -float("inf")):
        wire = bytearray(good)
        struct.pack_into("<d", wire, 17 + 56 + 24 + 8, bad)  # torso quaternion x
        with pytest.raises(NonUnitQuaternion):
            decode_frame(bytes(wire))


def test_decode_refuses_non_finite_translation_with_value_error():
    rng = np.random.default_rng(11)
    good = encode_frame(random_frame(rng))
    for bad in (float("nan"), float("inf")):
        wire = bytearray(good)
        struct.pack_into("<d", wire, 17 + 5 * 56 + 8, bad)  # right_foot y
        with pytest.raises(ValueError) as info:
            decode_frame(bytes(wire))
        assert not isinstance(info.value, NonUnitQuaternion)


def test_encode_refuses_unchecked_non_finite_or_non_unit_array():
    # A LinkSet whose array bypassed validation must not reach the wire.
    rng = np.random.default_rng(12)
    frame = random_frame(rng)
    for row, col, value, error in (
        (1, 4, np.nan, NonUnitQuaternion),
        (2, 3, 0.5, NonUnitQuaternion),
        (3, 0, np.inf, ValueError),
        (4, 2, np.nan, ValueError),
    ):
        a = frame.links.array.copy()
        a[row, col] = value
        links = _wrap(a)  # the one constructor that skips validation
        with pytest.raises(error):
            encode_frame(PoseFrame(seq=0, timestamp_ns=0, links=links))


def test_decode_reads_the_linkset_array_in_wire_order():
    rng = np.random.default_rng(13)
    frame = random_frame(rng, seq=7, timestamp_ns=99)
    wire = encode_frame(frame)
    back = decode_frame(wire + b"trailing bytes are ignored")
    assert np.array_equal(back.links.array, frame.links.array)
    assert not back.links.array.flags.writeable
    for i in range(len(LINKS)):
        # row i is link LINKS[i]: translation then quaternion, 7 doubles
        assert np.array_equal(back.links.array[i], struct.unpack_from("<7d", wire, 17 + 56 * i))


def _decode_ends_typed(buf: bytes) -> None:
    """A buffer decodes to a frame that re-encodes bit-exact, or is refused
    with a typed error; anything else (IndexError, struct.error) escapes."""
    from extremctl.errors import ExtremControlError

    try:
        frame = decode_frame(buf)
    except (ExtremControlError, ValueError):
        return
    out = encode_frame(frame)
    assert encode_frame(decode_frame(out)) == out
    assert out[:17] == buf[:17]
    for i in range(len(LINKS)):
        start = 17 + 56 * i
        assert out[start : start + 24] == buf[start : start + 24]  # translations as sent
        w, x, y, z = frame.links.array[i, 3:].tolist()
        assert w >= 0.0 and abs(math.sqrt(w * w + x * x + y * y + z * z) - 1.0) <= 1e-12


def test_decode_arbitrary_buffers_end_typed(hypothesis_settings):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis_settings(300)
    @hypothesis.given(st.binary(min_size=0, max_size=400))
    def check(buf):
        _decode_ends_typed(buf)

    check()


def test_decode_valid_header_arbitrary_values_end_typed(hypothesis_settings):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    any_float = st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -0.0, 1e308]),
        st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    )

    @st.composite
    def values(draw):
        # A frame the decoder accepts (finite translations, quaternions off
        # unit by up to 1.1x the tolerance, either sign), then up to three
        # of its 42 values replaced by arbitrary floats: NaN, inf, subnormals.
        out = []
        for _ in LINKS:
            out += draw(st.lists(st.floats(-1e3, 1e3, allow_subnormal=True), min_size=3, max_size=3))
            q = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)))
            hypothesis.assume(q @ q > 1e-3)
            scale = 1.0 + draw(st.floats(-1.1e-6, 1.1e-6))
            out += (q * (scale / np.linalg.norm(q))).tolist()
        for i in draw(st.lists(st.integers(0, len(out) - 1), max_size=3)):
            out[i] = draw(any_float)
        return out

    @hypothesis_settings(300)
    @hypothesis.given(st.integers(0, 2**32 - 1), st.integers(0, 2**64 - 1), values())
    def check(seq, timestamp_ns, values):
        _decode_ends_typed(struct.pack("<4sBIQ42d", b"XCTL", 1, seq, timestamp_ns, *values))

    check()
