"""Binary pose streaming: the 353-byte frame codec and the latest-value mailbox.

A frame carries six link poses with a sequence number and a nanosecond
timestamp. Layout, little-endian throughout:

    magic "XCTL" (4s) | version u8 | seq u32 | timestamp_ns u64
    then per link, in LinkSet field order (pelvis, torso, left_hand,
    right_hand, left_foot, right_foot): translation x,y,z f64, then
    quaternion w,x,y,z f64

4 + 1 + 4 + 8 + 6*56 = 353 bytes. The 42 values are the LinkSet array in
row order. Encoding is bit-exact: a decoded frame re-encodes to the
identical bytes (link rotations are stored canonically, w >= 0, unit
norm).

Two codecs read and write the layout, with the same checks. encode_frame
and decode_frame handle one frame on plain floats, one struct pack or
unpack each; the relay runs them frame by frame. encode_frames and
decode_frames handle N frames in one pass as FRAME_DTYPE records: N
seqs, N timestamps and an (N, 6, 7) array in, the bytes of N
encode_frame calls out, and back. Both check the seq and timestamp
ranges, each quaternion norm within QUAT_NORM_TOL of 1, finite
translations, and on decode the length, magic and version, and refuse
with the same error types and messages, built by _refused. The batch
codec raises what the per-frame codec raises at the first frame it
refuses, the message prefixed with that frame's row.
"""

from __future__ import annotations

import math
import struct
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ExtremControlError
from .mapping import LINKS, LinkSet, _stream_shaped, _validated, validated_frames

MAGIC = b"XCTL"
VERSION = 1
FRAME_STRUCT = struct.Struct("<4sBIQ" + "d" * (len(LINKS) * 7))
FRAME_SIZE = FRAME_STRUCT.size  # 353
# The FRAME_STRUCT layout as one packed numpy record, itemsize FRAME_SIZE.
FRAME_DTYPE = np.dtype([
    ("magic", "S4"),
    ("version", "u1"),
    ("seq", "<u4"),
    ("timestamp_ns", "<u8"),
    ("links", "<f8", (len(LINKS), 7)),
])
QUAT_NORM_TOL = 1e-6


class BadMagic(ExtremControlError):
    """Buffer does not start with XCTL."""


class BadVersion(ExtremControlError):
    """Unsupported frame version byte."""


class NonUnitQuaternion(ExtremControlError):
    """A link quaternion's norm is not within 1e-6 of 1 (NaN and inf included)."""


class ShortRead(ExtremControlError):
    """Buffer shorter than one full frame."""


# Every check both codecs make: the error it raises and its message.
_REFUSALS = {
    "short": (ShortRead, "{} bytes, need " + str(FRAME_SIZE)),
    "magic": (BadMagic, "{!r}"),
    "version": (BadVersion, "version {}, expected " + str(VERSION)),
    "seq": (ValueError, "seq {} outside u32 range"),
    "timestamp": (ValueError, "timestamp_ns {} outside u64 range"),
    "norm": (NonUnitQuaternion, "{} quaternion norm {:.9f}"),
    "translation": (ValueError, "non-finite {} translation"),
}


def _refused(check: str, *detail, row: int | None = None) -> Exception:
    """The error a failed `check` raises; the batch codec names the row."""
    error, text = _REFUSALS[check]
    message = text.format(*detail)
    return error(message if row is None else f"frame {row}: {message}")


@dataclass(frozen=True)
class PoseFrame:
    """One streaming unit: six link poses, a sequence number, a timestamp."""

    seq: int
    timestamp_ns: int
    links: LinkSet

    def __post_init__(self) -> None:
        if not (0 <= self.seq < 2**32):
            raise _refused("seq", self.seq)
        if not (0 <= self.timestamp_ns < 2**64):
            raise _refused("timestamp", self.timestamp_ns)


def _check_norms(values: list) -> None:
    """Refuse a link quaternion whose norm is not within QUAT_NORM_TOL of 1.
    Written `not ... <= tol` so that a NaN norm is refused too."""
    for k in range(3, len(values), 7):
        w, x, y, z = values[k : k + 4]
        norm = math.sqrt(w * w + x * x + y * y + z * z)
        if not abs(norm - 1.0) <= QUAT_NORM_TOL:
            raise _refused("norm", LINKS[k // 7], norm)


def encode_frame(frame: PoseFrame) -> bytes:
    values = frame.links.array.ravel().tolist()
    _check_norms(values)
    if not all(map(math.isfinite, values)):
        link = next(LINKS[i // 7] for i, v in enumerate(values) if not math.isfinite(v))
        raise _refused("translation", link)
    return FRAME_STRUCT.pack(MAGIC, VERSION, frame.seq, frame.timestamp_ns, *values)


def decode_frame(buf: bytes) -> PoseFrame:
    if len(buf) < FRAME_SIZE:
        raise _refused("short", len(buf))
    magic, version, seq, timestamp_ns, *values = FRAME_STRUCT.unpack_from(buf)
    if magic != MAGIC:
        raise _refused("magic", magic)
    if version != VERSION:
        raise _refused("version", version)
    _check_norms(values)
    return PoseFrame(seq=seq, timestamp_ns=timestamp_ns, links=_validated(values))


def _value_checks(a: np.ndarray) -> list:
    """_check_norms, then the finite-translation check, over an (N, 6, 7)
    array, as _refuse_first takes them: the same norm, bit for bit."""
    w, x, y, z = np.moveaxis(a[:, :, 3:], -1, 0)
    with np.errstate(over="ignore", invalid="ignore"):  # refused as non-finite norms
        norm = np.sqrt(w * w + x * x + y * y + z * z)
        off = ~(np.abs(norm - 1.0) <= QUAT_NORM_TOL)
    return [
        ("norm", off, lambda row, j: (LINKS[j], float(norm[row, j]))),
        ("translation", ~np.isfinite(a[:, :, :3]).all(axis=2), lambda row, j: (LINKS[j],)),
    ]


def _refuse_first(checks: list) -> None:
    """Raise the refusal of a batch's first refused frame. `checks` holds
    (check, (N, k) or (N,) refused mask, detail(row, j) -> message args)
    in the order the per-frame codec makes them, so within that frame the
    first failed check is the one reported."""
    masks = [mask if mask.ndim == 2 else mask[:, None] for _, mask, _ in checks]
    refused = np.concatenate(masks, axis=1)
    if not refused.any():
        return
    row, j = divmod(int(np.argmax(refused)), refused.shape[1])
    for (check, _, detail), mask in zip(checks, masks):
        if j < mask.shape[1]:
            raise _refused(check, *detail(row, j), row=row)
        j -= mask.shape[1]


def encode_frames(seqs, timestamps_ns, poses) -> bytes:
    """encode_frame over a stream: N int seqs, N int timestamps and an
    (N, 6, 7) array, packed as N consecutive frames in one pass. Makes
    the checks of PoseFrame and encode_frame on every frame."""
    a = _stream_shaped(np.asarray(poses, dtype=float))
    seqs, stamps = list(seqs), list(timestamps_ns)
    if not len(seqs) == len(stamps) == len(a):
        raise ValueError(f"{len(seqs)} seqs and {len(stamps)} timestamps for {len(a)} frames")
    _refuse_first([
        ("seq", np.array([not 0 <= s < 2**32 for s in seqs], bool), lambda row, _: (seqs[row],)),
        ("timestamp", np.array([not 0 <= t < 2**64 for t in stamps], bool),
         lambda row, _: (stamps[row],)),
        *_value_checks(a),
    ])
    records = np.empty(len(a), FRAME_DTYPE)
    records["magic"] = MAGIC
    records["version"] = VERSION
    records["seq"] = seqs
    records["timestamp_ns"] = stamps
    records["links"] = a
    return records.tobytes()


def decode_frames(buf) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """decode_frame over a buffer of N whole frames: bytes, or FRAME_DTYPE
    records (a selection of what encode_frames wrote, say). Returns the
    (N,) seqs and timestamps and the (N, 6, 7) array, validated by
    mapping.validated_frames. Makes the checks of decode_frame on every
    frame; a trailing part of a frame is refused as a short read after
    the whole frames before it pass."""
    n, tail = divmod(memoryview(buf).nbytes, FRAME_SIZE)
    records = np.frombuffer(buf, FRAME_DTYPE, count=n)
    _refuse_first([
        ("magic", records["magic"] != MAGIC, lambda row, _: (records[row : row + 1].tobytes()[:4],)),
        ("version", records["version"] != VERSION, lambda row, _: (int(records["version"][row]),)),
        *_value_checks(records["links"]),
    ])
    if tail:
        raise _refused("short", tail, row=n)
    return records["seq"].copy(), records["timestamp_ns"].copy(), validated_frames(records["links"])


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
