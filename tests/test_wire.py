"""Frame codec layout, bit-exact round trips, malformed-buffer refusal,
and latest-value mailbox semantics."""

import math
import struct

import numpy as np
import pytest

from conftest import random_links
from extremctl.mapping import LINKS, LinkSet, _wrap
from extremctl.wire import (
    FRAME_DTYPE,
    FRAME_SIZE,
    BadMagic,
    BadVersion,
    LatestValueMailbox,
    NonUnitQuaternion,
    PoseFrame,
    ShortRead,
    decode_frame,
    decode_frames,
    encode_frame,
    encode_frames,
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
        links = LinkSet.from_array(frame.links.array)
        object.__setattr__(links, "array", a)
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


# The batch codec: encode_frames and decode_frames against the per-frame codec.


def random_stream(rng, n):
    """n random frames: seqs, timestamps (the last at the u64 limit) and
    their (n, 6, 7) array."""
    seqs = rng.integers(0, 2**32, n).tolist()
    stamps = [int(t) for t in rng.integers(0, 2**63, n)]
    if n:
        stamps[-1] = 2**64 - 1
    return seqs, stamps, np.array([random_links(rng).array for _ in range(n)]).reshape(n, 6, 7)


def per_frame_refusal(make):
    """The exception make() raises, or None."""
    try:
        make()
    except Exception as exc:  # noqa: BLE001  compared by type and message below
        return exc
    return None


def assert_same_refusal(batch, expected, row):
    """The batch call raises expected's class, its message prefixed with the row."""
    with pytest.raises(Exception) as info:
        batch()
    assert type(info.value) is type(expected)
    assert str(info.value) == f"frame {row}: {expected}"


def test_frame_dtype_is_the_frame_struct_layout():
    assert FRAME_DTYPE.itemsize == FRAME_SIZE == 353
    rng = np.random.default_rng(20)
    frame = random_frame(rng, seq=5, timestamp_ns=2**64 - 1)
    record = np.frombuffer(encode_frame(frame), FRAME_DTYPE)[0]
    assert (record["magic"], record["version"], record["seq"]) == (b"XCTL", 1, 5)
    assert int(record["timestamp_ns"]) == 2**64 - 1
    assert np.array_equal(record["links"], frame.links.array)


@pytest.mark.parametrize("n", [0, 1, 7])
def test_encode_frames_equals_joined_encode_frame(n):
    rng = np.random.default_rng(21 + n)
    seqs, stamps, poses = random_stream(rng, n)
    expected = b"".join(
        encode_frame(PoseFrame(s, t, LinkSet.from_array(p))) for s, t, p in zip(seqs, stamps, poses)
    )
    assert encode_frames(seqs, stamps, poses) == expected


def test_decode_frames_equals_decode_frame_per_row():
    rng = np.random.default_rng(22)
    seqs, stamps, poses = random_stream(rng, 9)
    values = poses.reshape(9, 42).copy()
    # Quaternions the decoder accepts but canonicalizes: off unit by up to
    # the tolerance, or with w < 0.
    values[:, 3::7] *= -1.0
    values[:, 10::7] *= 1.0 + rng.uniform(-9e-7, 9e-7, (9, 5))
    buf = b"".join(
        struct.pack("<4sBIQ42d", b"XCTL", 1, s, t, *v) for s, t, v in zip(seqs, stamps, values)
    )
    got_seqs, got_stamps, got_poses = decode_frames(buf)
    assert got_poses.shape == (9, 6, 7)
    for k in range(9):
        frame = decode_frame(buf[k * FRAME_SIZE : (k + 1) * FRAME_SIZE])
        assert (int(got_seqs[k]), int(got_stamps[k])) == (frame.seq, frame.timestamp_ns)
        assert got_poses[k].tobytes() == frame.links.array.tobytes()
    # A selection of the records decodes as its rows do.
    records = np.frombuffer(buf, FRAME_DTYPE)[[4, 1]]
    picked = decode_frames(records)
    assert picked[0].tolist() == [seqs[4], seqs[1]]
    assert picked[2].tobytes() == got_poses[[4, 1]].tobytes()
    empty = decode_frames(b"")
    assert [a.shape for a in empty] == [(0,), (0,), (0, 6, 7)]


def _corrupt(buf: bytearray, offset: int, fmt: str, value) -> None:
    struct.pack_into(fmt, buf, offset, value)


@pytest.mark.parametrize("offset, fmt, value", [
    (0, "<4s", b"YCTL"),  # magic
    (4, "<B", 9),  # version
    (17 + 24, "<d", 0.5),  # pelvis quaternion w: norm off unit
    (17 + 56 + 24 + 8, "<d", math.nan),  # torso quaternion x
    (17 + 2 * 56 + 24, "<d", math.inf),  # left hand quaternion w
    (17 + 5 * 56 + 8, "<d", math.nan),  # right foot translation y
])
def test_decode_frames_refuses_as_decode_frame_naming_the_row(offset, fmt, value):
    rng = np.random.default_rng(23)
    buf = bytearray(encode_frames(*random_stream(rng, 4)))
    _corrupt(buf, 2 * FRAME_SIZE + offset, fmt, value)
    expected = per_frame_refusal(lambda: decode_frame(bytes(buf[2 * FRAME_SIZE :])))
    assert expected is not None
    assert_same_refusal(lambda: decode_frames(bytes(buf)), expected, 2)


def test_decode_frames_refuses_a_trailing_part_frame_as_short_read():
    rng = np.random.default_rng(24)
    buf = encode_frames(*random_stream(rng, 3)) + b"XCTL" + bytes(96)
    expected = per_frame_refusal(lambda: decode_frame(buf[3 * FRAME_SIZE :]))
    assert isinstance(expected, ShortRead)
    assert_same_refusal(lambda: decode_frames(buf), expected, 3)


def test_decode_frames_reports_the_first_refused_frame_and_its_first_check():
    rng = np.random.default_rng(25)
    buf = bytearray(encode_frames(*random_stream(rng, 4)))
    # frame 1: a non-finite translation before (in link order) a bad norm;
    # decode_frame checks every norm first. Frame 2 and the tail come later.
    _corrupt(buf, FRAME_SIZE + 17, "<d", math.inf)
    _corrupt(buf, FRAME_SIZE + 17 + 4 * 56 + 24, "<d", 3.0)
    _corrupt(buf, 2 * FRAME_SIZE, "<4s", b"NOPE")
    buf += b"tail"
    expected = per_frame_refusal(lambda: decode_frame(bytes(buf[FRAME_SIZE:])))
    assert isinstance(expected, NonUnitQuaternion) and "left_foot" in str(expected)
    assert_same_refusal(lambda: decode_frames(bytes(buf)), expected, 1)


def test_encode_frames_refuses_as_encode_frame_naming_the_row():
    rng = np.random.default_rng(26)
    for row, col, value in ((1, 4, np.nan), (2, 3, 0.5), (3, 0, np.inf), (0, 2, -np.inf)):
        seqs, stamps, poses = random_stream(rng, 4)
        poses[row, 1 if col > 2 else 4, col] = value
        unchecked = _wrap(poses[row].copy())
        expected = per_frame_refusal(
            lambda: encode_frame(PoseFrame(seqs[row], stamps[row], unchecked))
        )
        assert isinstance(expected, NonUnitQuaternion if col > 2 else ValueError)
        assert_same_refusal(lambda: encode_frames(seqs, stamps, poses), expected, row)


@pytest.mark.parametrize("seq, timestamp_ns", [(2**32, 0), (-1, 0), (0, 2**64), (0, -1)])
def test_encode_frames_refuses_out_of_range_header_as_pose_frame(seq, timestamp_ns):
    rng = np.random.default_rng(27)
    seqs, stamps, poses = random_stream(rng, 3)
    seqs[1], stamps[1] = seq, timestamp_ns
    expected = per_frame_refusal(lambda: PoseFrame(seq, timestamp_ns, LinkSet.from_array(poses[1])))
    assert type(expected) is ValueError
    assert_same_refusal(lambda: encode_frames(seqs, stamps, poses), expected, 1)


def test_batch_decode_matches_per_frame_decode_on_arbitrary_buffers(hypothesis_settings):
    """Any buffer: decode_frames returns what decode_frame returns frame by
    frame, or raises what the first refused frame raises, naming its row."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis_settings(200)
    @hypothesis.given(
        st.integers(0, 3),
        st.lists(st.tuples(st.integers(0, 3 * FRAME_SIZE - 1), st.integers(0, 255)), max_size=4),
        st.one_of(st.just(0), st.integers(1, 2 * FRAME_SIZE)),
        st.integers(0, 2**16),
    )
    def check(n, flips, tail, seed):
        buf = bytearray(encode_frames(*random_stream(np.random.default_rng(seed), n)))
        for at, byte in flips:
            if at < len(buf):
                buf[at] = byte
        buf = bytes(buf) + bytes(tail)
        frames, expected = [], None
        for row in range(-(-len(buf) // FRAME_SIZE)):
            expected = per_frame_refusal(
                lambda: frames.append(decode_frame(buf[row * FRAME_SIZE : (row + 1) * FRAME_SIZE]))
            )
            if expected is not None:
                assert_same_refusal(lambda: decode_frames(buf), expected, row)
                return
        seqs, stamps, poses = decode_frames(buf)
        assert seqs.tolist() == [f.seq for f in frames]
        assert stamps.tolist() == [f.timestamp_ns for f in frames]
        assert poses.tobytes() == b"".join(f.links.array.tobytes() for f in frames)

    check()
