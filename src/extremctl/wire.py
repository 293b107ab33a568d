"""Binary pose streaming: the 353-byte frame codec and the latest-value mailbox.

A frame carries six link poses with a sequence number and a nanosecond
timestamp. Layout, little-endian throughout:

    magic "XCTL" (4s) | version u8 | seq u32 | timestamp_ns u64
    then per link, in LinkSet field order (pelvis, torso, left_hand,
    right_hand, left_foot, right_foot): translation x,y,z f64, then
    quaternion w,x,y,z f64

4 + 1 + 4 + 8 + 6*56 = 353 bytes. The 42 values are the LinkSet's
`values`, its array in row order; decode and encode read and write them
without building the array. Encoding is bit-exact: a decoded frame
re-encodes to the identical bytes (link rotations are stored
canonically, w >= 0, unit norm).

encode_frame and decode_frame handle one frame on plain floats, one
struct pack or unpack each. They check the seq and timestamp types and
ranges, each quaternion norm within QUAT_NORM_TOL of 1, finite
translations, and on decode the length, magic and version.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

from .errors import ExtremControlError, integer
from .mapping import LINKS, LinkSet, _validated

MAGIC = b"XCTL"
VERSION = 1
FRAME_STRUCT = struct.Struct("<4sBIQ" + "d" * (len(LINKS) * 7))
FRAME_SIZE = FRAME_STRUCT.size  # 353
QUAT_NORM_TOL = 1e-6


class BadMagic(ExtremControlError):
    """Buffer does not start with XCTL."""


class BadVersion(ExtremControlError):
    """Unsupported frame version byte."""


class NonUnitQuaternion(ExtremControlError):
    """A link quaternion's norm is not within 1e-6 of 1 (NaN and inf included)."""


class ShortRead(ExtremControlError):
    """Buffer shorter than one full frame."""


@dataclass(frozen=True)
class PoseFrame:
    """One streaming unit: six link poses, a sequence number, a timestamp."""

    seq: int
    timestamp_ns: int
    links: LinkSet

    def __post_init__(self) -> None:
        """Refuses a bool or a non-integer seq or timestamp_ns, naming the
        field, and one outside its u32 or u64 range. Other integer types
        (numpy's) are stored as int."""
        seq, timestamp_ns = self.seq, self.timestamp_ns
        if type(seq) is not int:
            seq = integer(seq, "seq")
            object.__setattr__(self, "seq", seq)
        if type(timestamp_ns) is not int:
            timestamp_ns = integer(timestamp_ns, "timestamp_ns")
            object.__setattr__(self, "timestamp_ns", timestamp_ns)
        if not (0 <= seq < 2**32):
            raise ValueError(f"seq {seq} outside u32 range")
        if not (0 <= timestamp_ns < 2**64):
            raise ValueError(f"timestamp_ns {timestamp_ns} outside u64 range")


def _check_norms(values) -> None:
    """Refuse a link quaternion whose norm is not within QUAT_NORM_TOL of 1.
    Written `not ... <= tol` so that a NaN norm is refused too."""
    for k in range(3, len(values), 7):
        w, x, y, z = values[k : k + 4]
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if not abs(norm - 1.0) <= QUAT_NORM_TOL:
            raise NonUnitQuaternion(f"{LINKS[k // 7]} quaternion norm {norm:.9f}")


def encode_frame(frame: PoseFrame) -> bytes:
    values = frame.links.values
    _check_norms(values)
    if not all(map(math.isfinite, values)):
        link = next(LINKS[i // 7] for i, v in enumerate(values) if not math.isfinite(v))
        raise ValueError(f"non-finite {link} translation")
    return FRAME_STRUCT.pack(MAGIC, VERSION, frame.seq, frame.timestamp_ns, *values)


def decode_frame(buf: bytes) -> PoseFrame:
    if len(buf) < FRAME_SIZE:
        raise ShortRead(f"{len(buf)} bytes, need {FRAME_SIZE}")
    magic, version, seq, timestamp_ns, *values = FRAME_STRUCT.unpack_from(buf)
    if magic != MAGIC:
        raise BadMagic(f"{magic!r}")
    if version != VERSION:
        raise BadVersion(f"version {version}, expected {VERSION}")
    _check_norms(values)
    return PoseFrame(seq=seq, timestamp_ns=timestamp_ns, links=_validated(values))


@dataclass(frozen=True)
class MailboxRead:
    """One read result; frame is None when nothing new is available."""

    frame: PoseFrame | None
    staleness_ns: int | None


class LatestValueMailbox:
    """Single-slot, non-blocking channel: writes replace, reads take the newest.

    The consumer side never observes a sequence regression: if a reordered
    writer stores a frame older than one already read, read reports no new
    frame instead of handing the stale frame out. Reads of the same frame
    repeat (with growing staleness); write cost is independent of reader
    behavior.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._frame: PoseFrame | None = None
        self._last_read_seq: int | None = None
        self.writes = 0

    def write(self, frame: PoseFrame) -> None:
        with self._lock:
            self._frame = frame
            self.writes += 1

    def read(self, now_ns: int | None = None) -> MailboxRead:
        with self._lock:
            frame = self._frame
            if frame is None:
                return MailboxRead(None, None)
            if self._last_read_seq is not None and frame.seq < self._last_read_seq:
                return MailboxRead(None, None)
            self._last_read_seq = frame.seq
        staleness = None if now_ns is None else now_ns - frame.timestamp_ns
        return MailboxRead(frame, staleness)
