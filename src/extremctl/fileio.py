"""File formats used by the CLI: PGM frames, XFLW flow fields, CSV tables
(signals, episodes, delay curves), JSONL pose streams, and deterministic
JSON.

XFLW is a raw little-endian flow container: 16-byte header (magic "XFLW",
width u32, height u32, reserved u32 = 0) followed by the full u plane then
the full v plane as f32, row-major.
"""

from __future__ import annotations

import json
import struct
from array import array
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import json_object
from .latency import FlowField, MotionSignal
from .mapping import LINKS, FrameRefused, links_row, validated_frames
from .wire import BadMagic, ShortRead

FLOW_MAGIC = b"XFLW"
_FLOW_HEADER = struct.Struct("<4sIII")


def write_flow(path, flow: FlowField) -> None:
    h, w = flow.shape
    with open(path, "wb") as f:
        f.write(_FLOW_HEADER.pack(FLOW_MAGIC, w, h, 0))
        f.write(flow.u.astype("<f4").tobytes())
        f.write(flow.v.astype("<f4").tobytes())


def read_flow(path) -> FlowField:
    """One XFLW field; every refusal names the file."""
    data = Path(path).read_bytes()
    if len(data) < _FLOW_HEADER.size:
        raise ShortRead(f"{path}: {len(data)} bytes, need {_FLOW_HEADER.size} header")
    magic, w, h, _reserved = _FLOW_HEADER.unpack_from(data)
    if magic != FLOW_MAGIC:
        raise BadMagic(f"{path}: {magic!r}")
    if w == 0 or h == 0:
        raise ValueError(f"{path}: empty {w}x{h} flow")
    need = _FLOW_HEADER.size + 2 * 4 * w * h
    if len(data) < need:
        raise ShortRead(f"{path}: {len(data)} bytes, need {need} for {w}x{h} flow")
    planes = np.frombuffer(data, dtype="<f4", count=2 * w * h, offset=_FLOW_HEADER.size)
    u = planes[: w * h].reshape(h, w).astype(float)
    v = planes[w * h :].reshape(h, w).astype(float)
    try:
        return FlowField(u=u, v=v)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_pgm(path, image: np.ndarray) -> None:
    """Binary 8-bit PGM (P5); pixels are rounded and clipped to [0, 255],
    and a non-finite pixel is refused naming the file."""
    img = np.asarray(image)
    if img.ndim != 2:
        raise ValueError("image must be 2-d")
    if not np.isfinite(img).all():
        raise ValueError(f"{path}: non-finite pixel; PGM has no such value")
    img = np.clip(np.rint(img), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(img.tobytes())


def read_pgm(path) -> np.ndarray:
    """One binary PGM (P5) frame, uint8 or uint16 by its maxval; every
    refusal names the file."""
    data = Path(path).read_bytes()
    if data[:2] != b"P5":
        raise ValueError(f"{path}: not a binary PGM (P5) file")
    # Header: magic, width, height, maxval as whitespace-separated decimal
    # numbers, '#' comments allowed through end of line, then one
    # whitespace byte before the pixels.
    if data[2:3] not in (b"", b"#") and not data[2:3].isspace():
        raise ValueError(f"{path}: PGM magic P5 followed by {data[2:3]!r}, not whitespace")
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise ValueError(f"{path}: truncated PGM header")
        c = data[pos : pos + 1]
        if c == b"#":
            pos = data.find(b"\n", pos) + 1
            if pos == 0:
                raise ValueError(f"{path}: PGM header comment has no end of line")
        elif c.isspace():
            pos += 1
        else:
            end = pos
            while end < len(data) and not data[end : end + 1].isspace():
                end += 1
            token = data[pos:end]
            if not token.isdigit():  # ASCII digits only: no sign, no '_'
                raise ValueError(f"{path}: PGM header field {token!r} is not a decimal number")
            tokens.append(int(token))
            pos = end
    w, h, maxval = tokens
    if pos >= len(data):
        raise ValueError(f"{path}: truncated PGM header")
    pos += 1  # single whitespace after maxval
    if w == 0 or h == 0:
        raise ValueError(f"{path}: empty {w}x{h} PGM")
    if maxval == 0 or maxval > 65535:
        raise ValueError(f"{path}: bad maxval {maxval}")
    dtype = np.dtype(np.uint8 if maxval < 256 else ">u2")
    count = w * h
    if count * dtype.itemsize > len(data) - pos:
        raise ValueError(f"{path}: truncated PGM pixel data")
    pixels = np.frombuffer(data, dtype=dtype, count=count, offset=pos)
    return pixels.reshape(h, w).astype(np.uint8 if maxval < 256 else np.uint16)


def read_frame_dir(path) -> list[np.ndarray]:
    files = sorted(Path(path).glob("*.pgm"))
    if not files:
        raise ValueError(f"no *.pgm files in {path}")
    return [read_pgm(f) for f in files]


def iter_flow_dir(path) -> Iterator[FlowField]:
    """read_flow over the sorted *.xflw files of a directory, one file per
    item, so a consumer that drops each field holds one at a time. A
    directory without such files is refused at once."""
    files = sorted(Path(path).glob("*.xflw"))
    if not files:
        raise ValueError(f"no *.xflw files in {path}")
    return map(read_flow, files)


_CSV_CHUNK_ROWS = 256


def write_csv(path, header, columns) -> None:
    """A header row, then one row per index of equal-length columns, each
    value as repr(float) writes it. Rows are formatted a fixed-size chunk
    at a time, so a long table is never held as one list of strings."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    n = len(columns[0]) if columns else 0
    if len(header) != len(columns) or any(c.shape != (n,) for c in columns):
        raise ValueError(f"{len(header)} headers for columns of shapes {[c.shape for c in columns]}")
    row = ",".join(["%r"] * len(columns)) + "\n"
    with open(path, "w", newline="") as f:
        f.write(",".join(header) + "\n")
        for start in range(0, n, _CSV_CHUNK_ROWS):
            chunk = [c[start : start + _CSV_CHUNK_ROWS].tolist() for c in columns]
            f.write("".join(row % values for values in zip(*chunk)))


def write_signal_csv(path, signal: MotionSignal, value_header: str = "value") -> None:
    write_csv(path, ["t_s", value_header], [signal.t, signal.samples])


def read_signal_csv(path) -> MotionSignal:
    """CSV with a header row and columns (time seconds, value), any names.

    Every refusal raises ValueError naming the file; a malformed row names
    its line too."""
    rows = []
    try:
        with open(path, "r", newline="") as f:
            header = f.readline()
            if not header:
                raise ValueError(f"{path}: empty file")
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) < 2:
                    raise ValueError(f"{path} line {lineno}: one column, need two")
                try:
                    rows.append((float(parts[0]), float(parts[1])))
                except ValueError as exc:
                    raise ValueError(f"{path} line {lineno}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if len(rows) < 2:
        raise ValueError(f"{path}: need at least 2 samples")
    t = np.asarray([r[0] for r in rows])
    v = np.asarray([r[1] for r in rows])
    if not np.all(np.isfinite(t)):
        raise ValueError(f"{path}: time column has non-finite values")
    dt = np.diff(t)
    dt_med = float(np.median(dt))
    if dt_med <= 0 or np.any(np.abs(dt - dt_med) > 1e-6 * max(dt_med, 1.0) + 1e-9):
        raise ValueError(f"{path}: time column is not uniformly sampled")
    try:
        return MotionSignal(v, 1.0 / dt_med, t0=float(t[0]))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class LinkStream(NamedTuple):
    """A JSONL pose stream: one integer timestamp, one (6, 7) LinkSet
    layout row of `poses` and one 1-based file line number per frame."""

    stamps: list[int]
    poses: np.ndarray  # (N, 6, 7) float64
    lines: list[int]


# One JSONL row as json.dumps(row, sort_keys=True) writes it: links by
# sorted name, each {"p": [x, y, z], "q": [w, x, y, z]}, then the stamp.
_ROW_ORDER = sorted(range(len(LINKS)), key=LINKS.__getitem__)
_ROW_TEMPLATE = (
    '{"links": {'
    + ", ".join(f'"{LINKS[i]}": {{"p": [%r, %r, %r], "q": [%r, %r, %r, %r]}}' for i in _ROW_ORDER)
    + '}, "timestamp_ns": %d}\n'
)


def write_linkset_jsonl(path, stamps, poses) -> None:
    """One {"links", "timestamp_ns"} object per frame of an (N, 6, 7) array,
    byte for byte as json.dumps(row, sort_keys=True) writes it."""
    a = np.asarray(poses, dtype=float)
    if a.ndim != 3 or a.shape[1:] != (len(LINKS), 7) or len(a) != len(stamps):
        raise ValueError(f"poses shape {a.shape} for {len(stamps)} stamps, expected (N, {len(LINKS)}, 7)")
    if not np.isfinite(a).all():
        raise ValueError("non-finite pose value; JSON has no such number")
    with open(path, "w") as f:
        for stamp, frame in zip(stamps, a):
            f.write(_ROW_TEMPLATE % (*frame[_ROW_ORDER].ravel().tolist(), stamp))


def read_linkset_jsonl(path) -> LinkStream:
    """One {"timestamp_ns", "links"} object per line, blank lines skipped;
    the links are read by mapping.links_row. A malformed row, or one
    whose poses mapping.validated_frames refuses, raises ValueError naming
    the file and line."""
    stamps: list[int] = []
    lines: list[int] = []
    values = array("d")
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path} line {lineno}"
            try:
                row = json.loads(line)
            except (ValueError, RecursionError) as exc:
                raise ValueError(f"{where}: {exc}") from None
            json_object(row, where)
            try:
                stamp = row["timestamp_ns"]
                if type(stamp) is not int:  # bool is an int subclass; 1.9 must not truncate
                    raise ValueError(f"timestamp_ns {stamp!r} is not a JSON integer")
                values.extend(links_row(row["links"]))
            except (ValueError, KeyError) as exc:
                raise ValueError(f"{where}: {type(exc).__name__}: {exc}") from None
            stamps.append(stamp)
            lines.append(lineno)
    raw = np.frombuffer(values, dtype=float).reshape(len(stamps), len(LINKS), 7)
    try:
        poses = validated_frames(raw)
    except FrameRefused as exc:
        raise ValueError(f"{path} line {lines[exc.index]}: {exc}") from None
    return LinkStream(stamps, poses, lines)


def dump_json(path, obj) -> None:
    """Deterministic JSON: sorted keys, fixed layout, trailing newline."""
    with open(path, "w") as f:
        json.dump(obj, f, sort_keys=True, indent=2)
        f.write("\n")


def load_json(path):
    with open(path) as f:
        return json.load(f)
