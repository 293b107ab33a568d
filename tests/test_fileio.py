"""Container formats round-trip exactly and refuse malformed input."""

import json
import struct

import numpy as np
import pytest

from extremctl.errors import ExtremControlError
from extremctl.fileio import (
    dump_json,
    iter_flow_dir,
    load_json,
    read_flow,
    read_frame_dir,
    read_linkset_jsonl,
    read_pgm,
    read_signal_csv,
    write_csv,
    write_flow,
    write_linkset_jsonl,
    write_pgm,
    write_signal_csv,
)
from conftest import random_links
from extremctl.latency import FlowField, MotionSignal
from extremctl.wire import BadMagic, ShortRead


def test_flow_round_trip(tmp_path):
    # quarter-steps are exactly representable in the f32 planes
    rng = np.random.default_rng(0)
    u = np.round(rng.uniform(-4, 4, (12, 10)) * 4.0) / 4.0
    v = np.round(rng.uniform(-4, 4, (12, 10)) * 4.0) / 4.0
    path = tmp_path / "field.xflw"
    write_flow(path, FlowField(u=u, v=v))
    back = read_flow(path)
    assert np.array_equal(back.u, u)
    assert np.array_equal(back.v, v)


def test_flow_rejects_bad_magic_and_truncation(tmp_path):
    path = tmp_path / "bad.xflw"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(BadMagic):
        read_flow(path)
    good = tmp_path / "short.xflw"
    write_flow(good, FlowField(u=np.zeros((4, 4)), v=np.zeros((4, 4))))
    good.write_bytes(good.read_bytes()[:-8])
    with pytest.raises(ShortRead):
        read_flow(good)
    (tmp_path / "tiny.xflw").write_bytes(b"XF")
    with pytest.raises(ShortRead):
        read_flow(tmp_path / "tiny.xflw")


def test_flow_refuses_empty_header_naming_file(tmp_path):
    for w, h in ((0, 3), (3, 0), (0, 0)):
        path = tmp_path / f"empty_{w}x{h}.xflw"
        path.write_bytes(struct.pack("<4sIII", b"XFLW", w, h, 0))
        with pytest.raises(ValueError, match=rf"{path.name}: empty {w}x{h} flow"):
            read_flow(path)


def test_flow_refuses_non_finite_entries_naming_file(tmp_path):
    for bad in (np.nan, np.inf, -np.inf):
        planes = np.zeros(2 * 3 * 4, dtype="<f4")
        planes[17] = bad
        path = tmp_path / "bad.xflw"
        path.write_bytes(struct.pack("<4sIII", b"XFLW", 4, 3, 0) + planes.tobytes())
        with pytest.raises(ValueError, match=r"bad\.xflw: flow contains non-finite entries"):
            read_flow(path)


def test_flow_header_refusals_name_file(tmp_path):
    path = tmp_path / "magic.xflw"
    path.write_bytes(b"NOPE" + bytes(12))
    with pytest.raises(BadMagic, match=r"magic\.xflw"):
        read_flow(path)
    path = tmp_path / "short.xflw"
    path.write_bytes(struct.pack("<4sIII", b"XFLW", 4, 3, 0) + bytes(8))
    with pytest.raises(ShortRead, match=r"short\.xflw"):
        read_flow(path)


def test_pgm_truncated_pixel_data_names_file(tmp_path):
    for image, keep in ((np.zeros((5, 7)), 34), (np.zeros((5, 7)), 0)):
        path = tmp_path / "short.pgm"
        write_pgm(path, image)
        data = path.read_bytes()
        header = len(data) - image.size
        path.write_bytes(data[: header + keep])
        with pytest.raises(ValueError, match=r"short\.pgm: truncated PGM pixel data"):
            read_pgm(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(7))  # 16-bit: 8 bytes needed
    with pytest.raises(ValueError, match=r"short\.pgm: truncated PGM pixel data"):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    assert read_pgm(path).tolist() == [[0, 0], [0, 0]]


def test_pgm_header_refusals_name_file(tmp_path):
    """Header fields are decimal digits only; a magic run into the width,
    a non-numeric or non-positive size, a sign or digit separator, a
    comment without end of line and a header ending at maxval are refused
    with the path first."""
    path = tmp_path / "head.pgm"
    cases = [
        (b"P52 2\n255\n" + bytes(4), "PGM magic P5 followed by b'2', not whitespace"),
        (b"P5\nx 2\n255\n" + bytes(4), "PGM header field b'x' is not a decimal number"),
        (b"P5\n2 2 # no end of line", "PGM header comment has no end of line"),
        (b"P5#", "PGM header comment has no end of line"),
        (b"P5\n-2 -2\n255\n" + bytes(4), "PGM header field b'-2' is not a decimal number"),
        (b"P5\n1_0 1\n255\n" + bytes(10), "PGM header field b'1_0' is not a decimal number"),
        (b"P5\n+2 2\n255\n" + bytes(4), "PGM header field b'+2' is not a decimal number"),
        (b"P5\n0 2\n255\n", "empty 0x2 PGM"),
        (b"P5\n2 0\n255\n", "empty 2x0 PGM"),
        (b"P5\n2 2\n0\n" + bytes(4), "bad maxval 0"),
        (b"P5\n1 1\n255", "truncated PGM header"),
        (b"P5\n1 1", "truncated PGM header"),
    ]
    for data, text in cases:
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_pgm(path)
        assert str(info.value) == f"{path}: {text}", data
    path.write_bytes(b"P5 # c\n10 1 # c\n255\n" + bytes(range(10)))
    assert read_pgm(path).tolist() == [list(range(10))]


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    img = rng.integers(0, 256, (24, 17)).astype(np.uint8)
    path = tmp_path / "frame.pgm"
    write_pgm(path, img)
    assert np.array_equal(read_pgm(path), img)


def test_pgm_clips_and_rounds(tmp_path):
    path = tmp_path / "f.pgm"
    write_pgm(path, np.array([[-3.0, 12.6, 300.0]]))
    assert read_pgm(path).tolist() == [[0, 13, 255]]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_pgm_write_refuses_non_finite_pixel_naming_file(tmp_path, bad):
    path = tmp_path / "f.pgm"
    with pytest.raises(ValueError) as info:
        write_pgm(path, np.array([[12.0, bad]]))
    assert str(info.value) == f"{path}: non-finite pixel; PGM has no such value"
    assert not path.exists()


def test_pgm_rejects_other_formats(tmp_path):
    path = tmp_path / "f.ppm"
    path.write_bytes(b"P6\n2 2\n255\n" + bytes(12))
    with pytest.raises(ValueError):
        read_pgm(path)


def test_frame_dir_sorted(tmp_path):
    for k, fill in ((1, 10), (2, 20), (10, 30)):
        write_pgm(tmp_path / f"{k:04d}.pgm", np.full((4, 4), fill))
    frames = read_frame_dir(tmp_path)
    assert [int(f[0, 0]) for f in frames] == [10, 20, 30]
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError):
        read_frame_dir(tmp_path / "empty")


def test_flow_dir_sorted(tmp_path):
    for k in range(3):
        write_flow(
            tmp_path / f"{k:03d}.xflw",
            FlowField(u=np.full((2, 2), float(k)), v=np.zeros((2, 2))),
        )
    flows = list(iter_flow_dir(tmp_path))
    assert [f.u[0, 0] for f in flows] == [0.0, 1.0, 2.0]


def test_flow_dir_iterator_reads_one_file_per_item(tmp_path):
    for k in range(3):
        write_flow(tmp_path / f"{k:03d}.xflw", FlowField(u=np.full((2, 2), float(k)), v=np.zeros((2, 2))))
    (tmp_path / "001.xflw").write_bytes(b"NOPE" + bytes(12))
    flows = iter_flow_dir(tmp_path)  # nothing read yet: the bad file is not met
    assert next(flows).u[0, 0] == 0.0
    with pytest.raises(BadMagic, match=r"001\.xflw"):
        next(flows)
    (tmp_path / "empty").mkdir()
    with pytest.raises(ValueError, match="no \\*.xflw files"):
        iter_flow_dir(tmp_path / "empty")


def test_signal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(2)
    sig = MotionSignal(rng.normal(size=50), 60.0, t0=0.5)
    path = tmp_path / "sig.csv"
    write_signal_csv(path, sig)
    back = read_signal_csv(path)
    assert np.array_equal(back.samples, sig.samples)
    assert back.rate_hz == pytest.approx(60.0, rel=1e-9)
    assert back.t0 == pytest.approx(0.5, abs=1e-12)


def test_write_csv_rows_are_repr_across_chunks(tmp_path):
    """Every value is written as repr(float) writes it, rows in order across
    the chunk boundaries; columns of unequal length, or a header of another
    width, are refused before the file opens."""
    rng = np.random.default_rng(6)
    columns = [np.arange(600), rng.normal(size=600), (rng.normal(size=600) * 1e-300).tolist()]
    path = tmp_path / "t.csv"
    write_csv(path, ["k", "x_m", "y_m"], columns)
    rows = ["k,x_m,y_m"] + [",".join(repr(float(v)) for v in row) for row in zip(*columns)]
    assert path.read_text() == "\n".join(rows) + "\n"
    for header, cols in ((["k", "x_m"], columns), (["k", "x_m"], [columns[0], columns[1][:-1]])):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "bad.csv", header, cols)
    assert not (tmp_path / "bad.csv").exists()


def test_signal_csv_rejects_nonuniform(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t_s,value\n0.0,1.0\n0.1,2.0\n0.35,3.0\n")
    with pytest.raises(ValueError):
        read_signal_csv(path)
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(ValueError):
        read_signal_csv(tmp_path / "empty.csv")


def test_linkset_jsonl_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    frames = [(1_000_000 * k, random_links(rng)) for k in range(4)]
    path = tmp_path / "stream.jsonl"
    write_linkset_jsonl(path, [ts for ts, _ in frames], np.stack([links.array for _, links in frames]))
    back = read_linkset_jsonl(path)
    assert back.stamps == [ts for ts, _ in frames] and back.lines == [1, 2, 3, 4]
    assert back.poses.shape == (4, 6, 7)
    for (_, links), poses in zip(frames, back.poses):
        assert np.array_equal(poses, links.array)


def test_json_deterministic(tmp_path):
    obj = {"b": [1.5, 2.25], "a": {"z": 1, "m": None}}
    p1, p2 = tmp_path / "one.json", tmp_path / "two.json"
    dump_json(p1, obj)
    dump_json(p2, obj)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().endswith("\n")
    assert load_json(p1) == obj


# ------------------------------------------------------ malformed input


def _decodes_or_refuses_typed(read, path) -> None:
    """A decoder either returns or raises ExtremControlError / ValueError
    whose message starts with the path; anything else (IndexError,
    TypeError, KeyError, ...) fails the test."""
    try:
        read(path)
    except (ExtremControlError, ValueError) as exc:
        assert str(exc).startswith(str(path)), exc


def test_signal_csv_malformed_rows_name_file_and_line(tmp_path):
    path = tmp_path / "one_column.csv"
    path.write_text("t_s,value\n0.0,1.0\n0.1\n")
    with pytest.raises(ValueError, match=r"one_column\.csv line 3"):
        read_signal_csv(path)
    path.write_text("t_s,value\n0.0,1.0\n0.1,x\n")
    with pytest.raises(ValueError, match=r"line 3"):
        read_signal_csv(path)
    path.write_text("t_s,value\nnan,1.0\nnan,2.0\n")
    with pytest.raises(ValueError, match="non-finite"):
        read_signal_csv(path)
    # Refusals past the row parser name the file too.
    for data, text in ((b"t_s,value\n0.0,1.0\n0.1,nan\n", "signal contains non-finite samples"),
                       (b"t_s,value\n0.0,1.0\n0.1,-inf\n", "signal contains non-finite samples"),
                       (b"t_s,value\n0.0,1.0\n0.1,\xff\n", "")):
        path.write_bytes(data)
        with pytest.raises(ValueError) as info:
            read_signal_csv(path)
        assert str(info.value).startswith(f"{path}: {text}"), data


def test_linkset_jsonl_malformed_rows_name_file_and_line(tmp_path):
    path = tmp_path / "rows.jsonl"
    for row in ("[1, 2]", "3", '{"links": {}}', '{"timestamp_ns": 1}',
                '{"timestamp_ns": 1, "links": []}', '{"timestamp_ns": 1e999, "links": {}}',
                '{"timestamp_ns": 1, "links": {"pelvis": 5}}', "{not json"):
        path.write_text("\n" + row + "\n")
        with pytest.raises(ValueError, match=r"rows\.jsonl line 2"):
            read_linkset_jsonl(path)


def test_linkset_jsonl_timestamp_must_be_a_json_integer(tmp_path):
    names = ("pelvis", "torso", "left_hand", "right_hand", "left_foot", "right_foot")
    links = {n: {"p": [0.0, 0.0, 1.0], "q": [1.0, 0.0, 0.0, 0.0]} for n in names}
    path = tmp_path / "rows.jsonl"
    for stamp in (1.9, 1.0, True, False, "1", None, [1]):
        path.write_text("\n" + json.dumps({"timestamp_ns": stamp, "links": links}) + "\n")
        with pytest.raises(ValueError, match=r"rows\.jsonl line 2"):
            read_linkset_jsonl(path)
    for stamp in (0, -3, 2**64 - 1):
        path.write_text(json.dumps({"timestamp_ns": stamp, "links": links}) + "\n")
        (got,) = read_linkset_jsonl(path).stamps
        assert type(got) is int and got == stamp


def test_linkset_jsonl_pose_values_must_be_json_numbers(tmp_path):
    names = ("pelvis", "torso", "left_hand", "right_hand", "left_foot", "right_foot")
    links = {n: {"p": [0, 0, 1], "q": [1, 0, 0, 0]} for n in names}  # integers are numbers
    path = tmp_path / "rows.jsonl"
    path.write_text(json.dumps({"timestamp_ns": 1, "links": links}) + "\n")
    (poses,) = read_linkset_jsonl(path).poses
    assert np.array_equal(poses, [[0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0]] * 6)
    for key, bad in (("p", [0.0, True, 1.0]), ("q", [1.0, 0.0, 0.0, "0"]), ("q", [1.0, 0.0, 0.0]),
                     ("p", [0.0, 0.0, 10**400])):
        row = json.loads(json.dumps({"timestamp_ns": 1, "links": links}))
        row["links"]["left_foot"][key] = bad
        path.write_text("\n" + json.dumps(row) + "\n")
        with pytest.raises(ValueError, match=rf"rows\.jsonl line 2: .*left_foot {key}"):
            read_linkset_jsonl(path)


def test_signal_csv_fuzz_ends_typed(tmp_path, hypothesis_settings):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    cell = st.one_of(
        st.sampled_from(["", "nan", "inf", "-inf", "1e999", "1_0", " 2 ", "0x1"]),
        st.floats().map(repr),
        st.text(alphabet="0123456789.-+eE ", max_size=6),
    )
    row = st.lists(cell, max_size=3).map(",".join)
    text = st.tuples(st.lists(row, max_size=8), st.sampled_from(["\n", "\r\n", "\r"])).map(
        lambda rows_nl: ("t_s,value" + rows_nl[1] + rows_nl[1].join(rows_nl[0])).encode()
    )
    path = tmp_path / "fuzz.csv"

    @hypothesis_settings(300)
    @hypothesis.given(st.one_of(text, st.binary(max_size=120)))
    def check(data):
        path.write_bytes(data)
        _decodes_or_refuses_typed(read_signal_csv, path)

    check()


def test_linkset_jsonl_fuzz_ends_typed(tmp_path, hypothesis_settings):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    names = ("pelvis", "torso", "left_hand", "right_hand", "left_foot", "right_foot")
    good = {"timestamp_ns": 5, "links": {n: {"p": [0.0, 0.0, 1.0], "q": [1.0, 0.0, 0.0, 0.0]}
                                         for n in names}}
    scalar = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))
    value = st.recursive(
        scalar,
        lambda inner: st.one_of(st.lists(inner, max_size=4),
                                st.dictionaries(st.sampled_from(["p", "q", "x"]), inner, max_size=3)),
        max_leaves=8,
    )
    paths = [("timestamp_ns",), ("links",)] + [("links", n) for n in names] + [
        ("links", n, k) for n in names for k in ("p", "q")]

    @st.composite
    def mutated_row(draw):
        row = json.loads(json.dumps(good))
        where = draw(st.sampled_from(paths))
        parent = row
        for key in where[:-1]:
            parent = parent[key]
        if draw(st.booleans()):
            parent[where[-1]] = draw(value)
        else:
            del parent[where[-1]]
        return json.dumps(row)

    line = st.one_of(mutated_row(), value.map(json.dumps), st.text(max_size=20))
    path = tmp_path / "fuzz.jsonl"

    @hypothesis_settings(300)
    @hypothesis.given(st.lists(line, min_size=1, max_size=3))
    def check(lines):
        path.write_text(json.dumps(good) + "\n" + "\n".join(lines) + "\n")
        _decodes_or_refuses_typed(read_linkset_jsonl, path)

    check()


def test_pgm_fuzz_ends_typed(tmp_path, hypothesis_settings):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    token = st.one_of(st.integers(-3, 70000).map(str), st.text(alphabet="0123456789-+x#", max_size=4))
    sep = st.sampled_from([b" ", b"\n", b"\t", b"  ", b"# c\n", b"#"])
    header = st.lists(st.tuples(sep, token), max_size=4).map(
        lambda parts: b"".join(s + t.encode() for s, t in parts))
    pgm = st.tuples(header, sep, st.binary(max_size=64)).map(lambda p: b"P5" + p[0] + p[1] + p[2])
    path = tmp_path / "fuzz.pgm"

    @hypothesis_settings(300)
    @hypothesis.given(st.one_of(pgm, st.binary(max_size=64)))
    def check(data):
        path.write_bytes(data)
        try:
            read_pgm(path)
        except ValueError as exc:  # every refusal names the file first
            assert str(exc).startswith(f"{path}: "), exc

    check()


def test_flow_fuzz_ends_typed(tmp_path, hypothesis_settings):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    dim = st.one_of(st.integers(0, 6), st.integers(0, 2**32 - 1))
    header = st.tuples(st.sampled_from([b"XFLW", b"XFLX"]), dim, dim, dim).map(
        lambda h: struct.pack("<4sIII", *h))
    flow = st.tuples(header, st.binary(max_size=400)).map(lambda p: p[0] + p[1])
    path = tmp_path / "fuzz.xflw"

    @hypothesis_settings(300)
    @hypothesis.given(st.one_of(flow, st.binary(max_size=40)))
    def check(data):
        path.write_bytes(data)
        _decodes_or_refuses_typed(read_flow, path)

    check()
