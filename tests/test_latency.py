"""Block-matched optical flow, region projection, standardization, and
lag estimation: constructed shifts with known answers, invariance
properties, and the degenerate inputs that must refuse loudly."""

import math
import re

import numpy as np
import pytest

from extremctl.errors import ExtremControlError
from extremctl.latency import (
    ConstantSignal,
    DimensionMismatch,
    FlowField,
    InsufficientOverlap,
    LagEstimate,
    MotionSignal,
    OutOfBounds,
    RegionSpec,
    analyze_pair,
    block_match_flow,
    estimate_lag,
    flow_signal,
    project_region,
    standardize,
)


def two_tone(t):
    # incommensurate tones keep the autocorrelation aperiodic inside
    # the search window, so there is one unambiguous peak
    return np.sin(2 * np.pi * 1.1 * t) + 0.5 * np.sin(2 * np.pi * 2.7 * t)


def render_bar(n_frames, fps, delay, size=32):
    """Reciprocating bright bar over seeded static clutter; 0.8 Hz keeps
    the period longer than the default lag search window."""
    yy, xx = np.mgrid[0:size, 0:size]
    rng = np.random.default_rng(3)
    bg = rng.uniform(20.0, 50.0, (size, size))
    frames = []
    for k in range(n_frames):
        t = k / fps - delay
        cx = size / 2.0 + size / 4.0 * math.sin(2 * math.pi * 0.8 * t)
        frames.append(bg + np.clip(160.0 - 4.0 * (xx - cx) ** 2, 0.0, None))
    return frames


# ------------------------------------------------------------------- flow


def test_identical_frames_give_zero_flow():
    rng = np.random.default_rng(0)
    frame = rng.uniform(0.0, 255.0, (32, 32))
    flow = block_match_flow(frame, frame)
    assert np.abs(flow.u).max() == 0.0
    assert np.abs(flow.v).max() == 0.0


def test_constructed_shift_recovered_on_interior_blocks():
    rng = np.random.default_rng(5)
    base = rng.uniform(0.0, 255.0, (64, 64))
    flow = block_match_flow(base, np.roll(base, 3, axis=1), block=8, radius=4)
    # content in the rightmost block column leaves the frame, so only
    # blocks whose displaced twin stays visible are checked
    assert np.all(flow.u[:, :-8] == 3.0)
    assert np.all(flow.v[:, :-8] == 0.0)


def test_vertical_shift_recovered():
    rng = np.random.default_rng(6)
    base = rng.uniform(0.0, 255.0, (64, 64))
    flow = block_match_flow(base, np.roll(base, -2, axis=0), block=8, radius=4)
    assert np.all(flow.v[8:-8, :] == -2.0)
    assert np.all(flow.u[8:-8, :] == 0.0)


def test_brightness_offset_is_not_motion():
    rng = np.random.default_rng(7)
    base = rng.uniform(0.0, 200.0, (32, 32))
    flow = block_match_flow(base, base + 10.0)
    assert np.abs(flow.u).max() == 0.0 and np.abs(flow.v).max() == 0.0


def test_textureless_blocks_report_zero():
    flat = np.full((32, 32), 100.0)
    flow = block_match_flow(flat, np.roll(flat, 2, axis=1))
    assert np.abs(flow.u).max() == 0.0


def test_flow_input_validation():
    with pytest.raises(DimensionMismatch):
        block_match_flow(np.zeros((16, 16)), np.zeros((16, 20)))
    with pytest.raises(ValueError):
        block_match_flow(np.zeros((16, 16)), np.zeros((16, 16)), block=2)


def test_flow_refuses_non_finite_pixels():
    frame = np.random.default_rng(8).uniform(0.0, 255.0, (32, 32))
    for bad in (np.nan, np.inf, -np.inf):
        spoiled = frame.copy()
        spoiled[20, 5] = bad
        with pytest.raises(ValueError, match="non-finite"):
            block_match_flow(spoiled, frame)
        with pytest.raises(ValueError, match="non-finite"):
            block_match_flow(frame, spoiled)


def _reference_flow(frame_a, frame_b, block, radius, texture_threshold):
    """The per-displacement loop block_match_flow must reproduce: for each
    displacement, re-centre every displaced frame-b tile and take the mean
    absolute difference, then the first minimum in (dv**2 + du**2, du, dv)
    order."""
    a = np.asarray(frame_a, dtype=float)
    b = np.asarray(frame_b, dtype=float)
    h, w = a.shape
    nby, nbx = h // block, w // block
    h2, w2 = nby * block, nbx * block

    def tiles(img_region, rows, cols):
        t = img_region.reshape(rows, block, cols, block).swapaxes(1, 2)
        return t - t.mean(axis=(2, 3), keepdims=True)

    a_tiles = tiles(a[:h2, :w2], nby, nbx)
    texture = np.abs(a_tiles).mean(axis=(2, 3))
    disps = sorted(
        ((dv, du) for dv in range(-radius, radius + 1) for du in range(-radius, radius + 1)),
        key=lambda d: (d[0] ** 2 + d[1] ** 2, d[1], d[0]),
    )
    cost = np.full((nby, nbx, len(disps)), np.inf)
    for i, (dv, du) in enumerate(disps):
        by0 = (-dv + block - 1) // block if dv < 0 else 0
        bx0 = (-du + block - 1) // block if du < 0 else 0
        by1 = min(nby, (h - dv) // block)
        bx1 = min(nbx, (w - du) // block)
        if by0 >= by1 or bx0 >= bx1:
            continue
        ys, xs = by0 * block, bx0 * block
        ye, xe = by1 * block, bx1 * block
        b_sub = tiles(b[ys + dv : ye + dv, xs + du : xe + du], by1 - by0, bx1 - bx0)
        cost[by0:by1, bx0:bx1, i] = np.abs(a_tiles[by0:by1, bx0:bx1] - b_sub).mean(axis=(2, 3))
    return _paint(np.asarray(disps)[np.argmin(cost, axis=2)], texture, texture_threshold, block, h, w)


def _exact_flow(frame_a, frame_b, block, radius, texture_threshold):
    """Brute force in exact integers: per tile, the first displacement in
    (dv**2 + du**2, du, dv) order minimizing block**2 times the
    mean-removed SAD; the texture test is the float64 one of the loop."""
    a = np.asarray(frame_a, dtype=np.int64)
    b = np.asarray(frame_b, dtype=np.int64)
    h, w = a.shape
    nby, nbx = h // block, w // block
    bb = block * block
    t = np.asarray(frame_a, dtype=float)[: nby * block, : nbx * block]
    t = t.reshape(nby, block, nbx, block).swapaxes(1, 2)
    texture = np.abs(t - t.mean(axis=(2, 3), keepdims=True)).mean(axis=(2, 3))
    disps = sorted(
        ((dv, du) for dv in range(-radius, radius + 1) for du in range(-radius, radius + 1)),
        key=lambda d: (d[0] ** 2 + d[1] ** 2, d[1], d[0]),
    )
    best = np.zeros((nby, nbx, 2), dtype=int)
    for ty in range(nby):
        for tx in range(nbx):
            y, x = ty * block, tx * block
            ta = a[y : y + block, x : x + block]
            best_cost = None
            for dv, du in disps:
                if not (0 <= y + dv <= h - block and 0 <= x + du <= w - block):
                    continue
                tb = b[y + dv : y + dv + block, x + du : x + du + block]
                c = int(np.abs(bb * (ta - tb) - (ta.sum() - tb.sum())).sum())
                if best_cost is None or c < best_cost:
                    best_cost, best[ty, tx] = c, (dv, du)
    return _paint(best, texture, texture_threshold, block, h, w)


def _paint(best, texture, texture_threshold, block, h, w):
    """(u, v) of per-tile (dv, du) winners, zero on flat tiles and borders."""
    best = np.where((texture <= texture_threshold)[..., None], 0, best).astype(float)
    nby, nbx = texture.shape
    u = np.zeros((h, w))
    v = np.zeros((h, w))
    u[: nby * block, : nbx * block] = np.kron(best[..., 1], np.ones((block, block)))
    v[: nby * block, : nbx * block] = np.kron(best[..., 0], np.ones((block, block)))
    return u, v


def _partly_static(rng, a, block, maxval):
    """Frame b from frame a tile by tile: each full tile is left identical,
    raised by one constant, or taken from a shifted and noisy copy of a;
    the border pixels past the last full tile come from that copy too."""
    h, w = a.shape
    moved = np.clip(np.roll(a, rng.integers(-4, 5, 2), axis=(0, 1)) + rng.integers(-2, 3, (h, w)),
                    0, maxval)
    role = np.kron(rng.integers(0, 3, (h // block, w // block)), np.ones((block, block), int))
    role = np.pad(role, ((0, h % block), (0, w % block)), constant_values=2)
    return np.choose(role, [a, a + rng.integers(-3, 4), moved])


def _frame_pair_cases(st, blocks):
    """Integer frame pairs with block, radius and texture threshold: shapes
    not a multiple of the block, radii 0-6 or beyond the frame, and scenes
    full of exact ties (constant, two-level, periodic, diagonal stripes)
    next to random and shifted ones, at 8-bit and 16-bit pixel ranges.
    Partly static pairs mix tiles that are searched with tiles whose a - b
    is constant, which block_match_flow settles without a search."""

    @st.composite
    def cases(draw):
        block = draw(st.sampled_from(blocks))
        h = block * draw(st.integers(1, 3)) + draw(st.integers(0, block - 1))
        w = block * draw(st.integers(1, 3)) + draw(st.integers(0, block - 1))
        radius = draw(st.one_of(st.integers(0, 6), st.just(max(h, w) + 2)))
        maxval = draw(st.sampled_from([255, 65535]))
        kinds = ["random", "shifted", "constant", "two-level", "periodic", "diagonal",
                 "partly static"]
        kind = draw(st.sampled_from(kinds))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        if kind == "constant":
            a = np.full((h, w), rng.integers(0, maxval + 1))
            b = np.full((h, w), rng.integers(0, maxval + 1))
        elif kind == "two-level":
            lo, hi = np.sort(rng.integers(0, maxval + 1, 2))
            a = np.where(rng.random((h, w)) < 0.5, lo, hi)
            b = np.where(rng.random((h, w)) < 0.5, lo, hi)
        elif kind in ("periodic", "diagonal"):  # displacements a period apart tie
            yy, xx = np.mgrid[0:h, 0:w]
            dy, dx = rng.integers(-3, 4, 2)
            if kind == "periodic":  # a patch repeating every few pixels
                patch = rng.integers(0, maxval + 1, rng.integers(1, 5, 2))
                a = patch[yy % patch.shape[0], xx % patch.shape[1]]
                b = patch[(yy - dy) % patch.shape[0], (xx - dx) % patch.shape[1]]
            else:  # stripes: (dv, du) ties with (dv + 1, du -+ 1)
                stripes = rng.integers(0, maxval + 1, rng.integers(2, 6))
                slope = rng.choice([-1, 1])
                a = stripes[(xx + slope * yy) % stripes.size]
                b = stripes[(xx - dx + slope * (yy - dy)) % stripes.size]
        elif kind == "partly static":
            a = rng.integers(3, maxval - 2, (h, w))
            b = _partly_static(rng, a, block, maxval)
        else:
            a = rng.integers(0, maxval + 1, (h, w))
            b = rng.integers(0, maxval + 1, (h, w))
            if kind == "shifted":
                b = np.clip(np.roll(a, rng.integers(-4, 5, 2), axis=(0, 1)) + rng.integers(-2, 3), 0, maxval)
        threshold = draw(st.sampled_from([0.0, 1.0, 0.2 * maxval]))
        return a, b, block, radius, threshold, maxval

    return cases()


def test_flow_equals_displacement_loop_on_power_of_two_blocks(hypothesis_settings):
    """For 4, 8 and 16 pixel blocks, every cost of the pixel-offset kernel
    is block**4 times the loop's float cost exactly, so the flows are
    equal: on uint8 and uint16 frames (integer kernel) and on the same
    pixels as float64 (float kernel)."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis_settings(300)
    @hypothesis.given(_frame_pair_cases(hypothesis.strategies, [4, 8, 16]))
    def check(case):
        a, b, block, radius, threshold, maxval = case
        want_u, want_v = _reference_flow(a, b, block, radius, threshold)
        dtypes = [np.uint16, np.float64] + ([np.uint8] if maxval <= 255 else [])
        for dtype in dtypes:
            flow = block_match_flow(a.astype(dtype), b.astype(dtype), block, radius, threshold)
            assert np.array_equal(flow.u, want_u) and np.array_equal(flow.v, want_v), dtype

    check()


def test_flow_equals_exact_integer_costs_on_other_blocks(hypothesis_settings):
    """For block sizes that are not powers of two, integer frames are
    matched on exact costs: the flows equal an integer brute force, also
    for int64 pixels far from zero whose span is small."""
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis_settings(300)
    @hypothesis.given(_frame_pair_cases(hypothesis.strategies, [5, 6, 7, 9, 12]))
    def check(case):
        a, b, block, radius, threshold, maxval = case
        want_u, want_v = _exact_flow(a, b, block, radius, threshold)
        dtypes = [np.uint16] + ([np.uint8] if maxval <= 255 else [])
        for dtype in dtypes:
            flow = block_match_flow(a.astype(dtype), b.astype(dtype), block, radius, threshold)
            assert np.array_equal(flow.u, want_u) and np.array_equal(flow.v, want_v), dtype
        a, b = a.astype(np.int64) - 2**40, b.astype(np.int64) - 2**40
        want_u, want_v = _exact_flow(a, b, block, radius, threshold)
        flow = block_match_flow(a, b, block, radius, threshold)
        assert np.array_equal(flow.u, want_u) and np.array_equal(flow.v, want_v), "offset int64"

    check()


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_all_static_pair_gives_zero_flow(dtype):
    """b == a and b == a + c: every tile's a - b is constant, so every
    tile keeps d = 0, as the displacement loop finds."""
    rng = np.random.default_rng(9)
    a = rng.integers(10, 240, (45, 70)).astype(dtype)
    want_u, want_v = _reference_flow(a, a, 8, 4, 1.0)
    assert not want_u.any() and not want_v.any()
    for b in (a, a + dtype(7)):
        flow = block_match_flow(a, b, 8, 4, 1.0)
        assert np.array_equal(flow.u, want_u) and np.array_equal(flow.v, want_v)


def test_float_pair_with_static_tiles_equals_displacement_loop():
    """Float frames search every tile, static ones too, and equal the loop."""
    rng = np.random.default_rng(10)
    a = rng.integers(3, 253, (44, 61))
    moving = 0
    for seed in range(5):
        b = _partly_static(np.random.default_rng(seed), a, 8, 255)
        want_u, want_v = _reference_flow(a, b, 8, 4, 1.0)
        flow = block_match_flow(a.astype(float), b.astype(float), 8, 4, 1.0)
        assert np.array_equal(flow.u, want_u) and np.array_equal(flow.v, want_v)
        moving += np.any(want_u) or np.any(want_v)
    assert moving >= 3


def _term_at_bound(block, span):
    """Frames where one term max(sa + sb, pb) of the kernel reaches its
    bound (2*block**2 - 1)*span: frame a holds one bright pixel in the
    dark centre tile, frame b a uniformly bright tile at displacement
    (r, r), r = block // 2. Dark frame-b tiles at (0, -r) and (-r, 0) match
    at the same exact cost, and (0, -r) wins the tie, so the bright tile
    wins only if that term is held wrongly."""
    r = block // 2
    a = np.zeros((3 * block, 3 * block), np.uint16)
    b = np.zeros_like(a)
    a[block + r, block + r] = span
    b[block + r : 2 * block + r, block + r : 2 * block + r] = span
    return a, b


@pytest.mark.parametrize("block, span", [(8, 258), (8, 259), (16, 255)])
def test_flow_exact_either_side_of_int16_terms(block, span):
    """Terms are int16 up to a span of 258 at block 8 (bound 32,766) and
    wider from 259 (32,893); block 16 on 8-bit frames (130,305) is wider
    too. On either side the flows equal the exact integer brute force,
    ties included: random textures, a periodic scene with displacements a
    period apart, and one term driven to its bound."""
    radius = block // 2
    rng = np.random.default_rng(span)
    yy, xx = np.mgrid[0 : 3 * block + 3, 0 : 3 * block + 5]
    patch = rng.integers(0, span + 1, (3, 2))
    periodic = patch[yy % 3, xx % 2], patch[(yy - 1) % 3, (xx - 1) % 2]
    noise = rng.integers(0, span + 1, yy.shape)
    shifted = noise, np.clip(np.roll(noise, (2, -3), axis=(0, 1)) + rng.integers(-2, 3, yy.shape), 0, span)
    for a, b in (periodic, shifted, _term_at_bound(block, span)):
        a, b = a.astype(np.uint16), b.astype(np.uint16)
        a.flat[0], b.flat[-1] = 0, span  # pin the span over both frames
        want_u, want_v = _exact_flow(a, b, block, radius, 1.0)
        flow = block_match_flow(a, b, block, radius, 1.0)
        assert np.array_equal(flow.u, want_u) and np.array_equal(flow.v, want_v)
    tile = (block + radius, block + radius)
    assert (want_v[tile], want_u[tile]) == (0.0, -radius)


# --------------------------------------------------------------- projection


def test_project_region_alignment_and_orthogonality():
    down = FlowField(u=np.zeros((8, 8)), v=np.full((8, 8), -2.0))
    assert project_region(down, RegionSpec(0, 0, 8, 8, (0.0, -1.0))) == 2.0
    right = FlowField(u=np.ones((8, 8)), v=np.zeros((8, 8)))
    assert project_region(right, RegionSpec(0, 0, 8, 8, (0.0, 1.0))) == 0.0


def test_project_region_averages():
    u = np.zeros((16, 16))
    u[:, :8] = 2.0
    flow = FlowField(u=u, v=np.zeros((16, 16)))
    assert project_region(flow, RegionSpec(0, 0, 16, 16, (1.0, 0.0))) == 1.0


def test_project_region_bounds():
    flow = FlowField(u=np.zeros((8, 8)), v=np.zeros((8, 8)))
    with pytest.raises(OutOfBounds):
        project_region(flow, RegionSpec(4, 4, 8, 8, (1.0, 0.0)))


def test_region_parse():
    region = RegionSpec.parse("2,3,16,8,3,4")
    assert (region.x, region.y, region.w, region.h) == (2, 3, 16, 8)
    assert np.allclose(region.direction, [0.6, 0.8])
    with pytest.raises(ValueError):
        RegionSpec.parse("2,3,16,8")
    with pytest.raises(ValueError):
        RegionSpec(0, 0, 4, 4, (0.0, 0.0))
    for text in ("0,0,4,4,nan,0", "0,0,4,4,inf,0", "0,0,4,4,1,-inf"):
        with pytest.raises(ValueError, match="must be finite"):
            RegionSpec.parse(text)
    # int() and float() read '_' as a digit separator: 1_6 would run as 16
    for text in ("0,0,1_6,12,1_0,0", "1_0,0,4,4,1,0", "0,0,4,4,1,0_5"):
        with pytest.raises(ValueError, match=re.escape(f"got '_' in {text!r}")):
            RegionSpec.parse(text)


def test_region_fields_are_integers():
    """A bool or a non-integer x, y, w or h is refused by name, before it
    can reach a slice or the tile overlaps; numpy integers are stored as
    int."""
    direction = (1.0, 0.0)
    for fields, name in (
        ((1.5, 0, 8, 8), "x"),
        ((True, 0, 8, 8), "x"),
        ((0, np.float64(2.0), 8, 8), "y"),
        ((0, 0, 8.0, 8), "w"),
        ((0, 0, 8, "8"), "h"),
        ((0, 0, 8, np.True_), "h"),
    ):
        with pytest.raises(ValueError, match=f"^{name} .* must be an integer"):
            RegionSpec(*fields, direction)
    region = RegionSpec(np.int64(1), np.uint8(2), np.int32(8), 8, direction)
    assert [(v, type(v)) for v in (region.x, region.y, region.w, region.h)] == [
        (1, int), (2, int), (8, int), (8, int)]
    flow = FlowField(u=np.ones((10, 9)), v=np.zeros((10, 9)))
    assert project_region(flow, region) == 1.0


def test_frame_samples_equal_projected_flow(hypothesis_settings):
    """Frame input is projected from the tile displacements, without a
    field: each sample equals project_region(block_match_flow(a, b),
    region) bit for bit. Frames that are not a multiple of the block (so
    border pixels hold 0), regions cutting tiles and reaching into the
    border, blocks 4-9, and uint8, uint16 and float64 frames."""
    hypothesis = pytest.importorskip("hypothesis")
    from extremctl import latency

    st = hypothesis.strategies

    @hypothesis_settings(200)
    @hypothesis.given(_frame_pair_cases(st, [4, 5, 6, 7, 8, 9]), st.data())
    def check(case, data):
        a, b, block, radius, _, maxval = case
        h, w = a.shape
        x, y = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
        rw, rh = data.draw(st.integers(1, w - x)), data.draw(st.integers(1, h - y))
        direction = data.draw(st.sampled_from([(1.0, 0.0), (0.0, -1.0), (0.6, -0.8), (-3.0, 7.0)]))
        region = RegionSpec(x, y, rw, rh, direction)
        dtypes = [np.uint16, np.float64] + ([np.uint8] if maxval <= 255 else [])
        for dtype in dtypes:
            frames = [a.astype(dtype), b.astype(dtype), a.astype(dtype)]
            got = list(latency._frame_samples(frames, region, block, radius))
            want = [project_region(block_match_flow(f, g, block, radius), region)
                    for f, g in zip(frames, frames[1:])]
            assert np.array(got).tobytes() == np.array(want).tobytes(), (dtype, got, want)

    check()


def test_frame_samples_equal_projected_flow_across_chunks(hypothesis_settings):
    """_frame_samples matches a chunk of consecutive pairs per kernel call;
    each sample still equals project_region(block_match_flow(a, b),
    region) bit for bit. Sequences of 2, C, C + 1, C + 2 and 2C + 3 frames
    (C = MATCH_CHUNK) of four kinds: uint16 frames whose pixel range
    drifts from frame to frame, so a chunk's shared shift and dtypes are
    wider than one pair's own; a static first chunk (every a - b one
    constant: no tile searched) before moving frames; float64 frames with
    fractional pixels; and uint8 frames mixed with float64 ones."""
    hypothesis = pytest.importorskip("hypothesis")
    from extremctl import latency

    st = hypothesis.strategies
    chunk = latency.MATCH_CHUNK
    wider = []

    @hypothesis_settings(150)
    @hypothesis.given(
        st.sampled_from([4, 5, 8]),
        st.sampled_from([2, chunk, chunk + 1, chunk + 2, 2 * chunk + 3]),
        st.sampled_from(["drifting uint16", "static first chunk", "float64", "uint8 and float64"]),
        st.data(),
    )
    def check(block, length, kind, data):
        h = block * data.draw(st.integers(1, 3)) + data.draw(st.integers(0, block - 1))
        w = block * data.draw(st.integers(1, 3)) + data.draw(st.integers(0, block - 1))
        radius = data.draw(st.one_of(st.integers(0, 5), st.just(max(h, w) + 2)))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scene = [rng.integers(0, 151, (h, w))]
        for _ in range(length - 1):  # shifted and noisy: some tiles are searched
            moved = np.roll(scene[-1], rng.integers(-2, 3, 2), axis=(0, 1))
            scene.append(np.clip(moved + rng.integers(-2, 3, (h, w)), 0, 150))
        if kind == "drifting uint16":
            # A pair spans at most 150 + step, which keeps its terms in
            # int16; four consecutive frames or more do not.
            pair_span = 32767 // (2 * block**2 - 1)
            step = data.draw(st.integers(pair_span // 3, pair_span - 150))
            frames = [(f + k * step).astype(np.uint16) for k, f in enumerate(scene)]

            def term_bound(fs):  # of the kernel's terms over these frames' span
                span = int(max(f.max() for f in fs)) - int(min(f.min() for f in fs))
                return (2 * block**2 - 1) * max(span, 1)

            first = frames[: chunk + 1]
            pair_bound = max(term_bound(first[k : k + 2]) for k in range(len(first) - 1))
            wider.append(term_bound(first) > 32767 >= pair_bound)
        elif kind == "static first chunk":
            frames = [(scene[0] + k).astype(np.uint8) for k in range(min(length, chunk + 1))]
            frames += [f.astype(np.uint8) for f in scene[len(frames):]]
        elif kind == "float64":
            frames = [f + rng.random((h, w)) for f in scene]
        else:
            floats = rng.random(length) < 0.5
            frames = [f + rng.random((h, w)) if is_float else f.astype(np.uint8)
                      for f, is_float in zip(scene, floats)]
        x, y = data.draw(st.integers(0, w - 1)), data.draw(st.integers(0, h - 1))
        rw, rh = data.draw(st.integers(1, w - x)), data.draw(st.integers(1, h - y))
        direction = data.draw(st.sampled_from([(1.0, 0.0), (0.0, -1.0), (0.6, -0.8), (-3.0, 7.0)]))
        region = RegionSpec(x, y, rw, rh, direction)
        got = list(latency._frame_samples(frames, region, block, radius))
        want = [project_region(block_match_flow(f, g, block, radius), region)
                for f, g in zip(frames, frames[1:])]
        assert np.array(got).tobytes() == np.array(want).tobytes(), (kind, got, want)

    check()
    # The drifting frames reach chunks whose terms are wider than int16
    # while each pair's own terms fit it.
    assert sum(wider) >= 10


def test_chunk_of_integer_pairs_too_wide_to_share_a_shift():
    """int64 frames drifting by 2**54 per frame: each pair's costs fit
    int64, but those of three consecutive frames do not, so the chunk
    matches each pair on its own shift. Every pair equals the exact
    integer brute force and block_match_flow."""
    from extremctl import latency

    block, radius = 4, 2
    scene = np.random.default_rng(12).integers(0, 200, (14, 14))
    frames = [np.roll(scene, (k % 3 - 1, k % 2), axis=(0, 1)) + k * 2**54 for k in range(5)]

    def cost_bound(span):  # of block_match_flow's integer kernel
        return block**2 * (2 * block**2 - 1) * span

    assert cost_bound(2**54 + 199) < 2**63 <= cost_bound(2**55)
    dv, du = latency._match_chunk(frames, block, radius)
    moved = 0
    for k, (a, b) in enumerate(zip(frames, frames[1:])):
        want_u, want_v = _exact_flow(a, b, block, radius, 1.0)
        flow = block_match_flow(a, b, block, radius)
        assert np.array_equal(flow.u, want_u) and np.array_equal(flow.v, want_v)
        assert np.array_equal(du[k], want_u[:12:block, :12:block])
        assert np.array_equal(dv[k], want_v[:12:block, :12:block])
        moved += bool(du[k].any() or dv[k].any())
    assert moved >= 3


# ----------------------------------------------------------- standardization


def test_standardize_worked_values():
    out = standardize(MotionSignal(np.array([2.0, 4.0]), 10.0))
    assert np.allclose(out.samples, [-1.0, 1.0])
    fixed = standardize(MotionSignal(np.array([1.0, -1.0, 1.0, -1.0]), 10.0))
    assert np.allclose(fixed.samples, [1.0, -1.0, 1.0, -1.0])


def test_standardize_kills_affine_transforms():
    t = np.arange(100) / 50.0
    raw = MotionSignal(two_tone(t), 50.0)
    warped = MotionSignal(3.5 * raw.samples + 11.0, 50.0)
    assert np.abs(standardize(raw).samples - standardize(warped).samples).max() < 1e-12


def test_standardize_rejects_constant():
    with pytest.raises(ConstantSignal):
        standardize(MotionSignal(np.full(10, 3.3), 10.0))


# ------------------------------------------------------------ lag estimation


def test_self_alignment():
    t = np.arange(300) / 60.0
    sig = MotionSignal(np.sin(2 * np.pi * 0.8 * t), 60.0)
    est = estimate_lag(sig, sig)
    assert est.lag_s == 0.0
    assert est.confidence == pytest.approx(1.0, abs=1e-12)
    assert not est.low_confidence


def test_fifty_sample_shift_at_1khz():
    rate = 1000.0
    t = np.arange(int(3.0 * rate)) / rate
    a = MotionSignal(two_tone(t), rate)
    b = MotionSignal(two_tone(t - 50.0 / rate), rate)
    est = estimate_lag(a, b)
    assert abs(est.lag_s - 0.050) < 1.0 / rate
    assert est.confidence > 0.99


def test_scaled_ten_frame_shift_at_60fps():
    rate = 60.0
    t = np.arange(int(5.0 * rate)) / rate
    wave = lambda tt: np.sin(2 * np.pi * 0.8 * tt)
    a = MotionSignal(wave(t), rate)
    b = MotionSignal(0.2 * wave(t - 10.0 / rate), rate)
    est = estimate_lag(a, b)
    assert abs(est.lag_s - 10.0 / rate) < 0.5 / rate
    assert est.confidence > 0.99


def test_subsample_refinement_on_fractional_shift():
    rate = 100.0
    t = np.arange(int(6.0 * rate)) / rate
    wave = lambda tt: np.sin(2 * np.pi * 2.0 * tt)
    a = MotionSignal(wave(t), rate)
    b = MotionSignal(wave(t - 0.073), rate)
    est = estimate_lag(a, b, max_lag_s=0.2)
    assert abs(est.lag_s - 0.073) * rate < 0.1


def test_shift_equivariance():
    rate = 100.0
    t = np.arange(int(6.0 * rate)) / rate
    wave = lambda tt: np.sin(2 * np.pi * 2.0 * tt)
    a = MotionSignal(wave(t), rate)
    base = estimate_lag(a, MotionSignal(wave(t - 0.073), rate), max_lag_s=0.2)
    extra = estimate_lag(a, MotionSignal(wave(t - 0.073 - 5.0 / rate), rate), max_lag_s=0.2)
    assert round((extra.lag_s - base.lag_s) * rate) == 5


def test_antisymmetry():
    rate = 100.0
    t = np.arange(int(6.0 * rate)) / rate
    wave = lambda tt: np.sin(2 * np.pi * 2.0 * tt)
    a = MotionSignal(wave(t), rate)
    b = MotionSignal(wave(t - 0.073), rate)
    fwd = estimate_lag(a, b, max_lag_s=0.2)
    rev = estimate_lag(b, a, max_lag_s=0.2)
    assert abs(fwd.lag_s + rev.lag_s) < 1.0 / rate


def test_start_time_offsets_are_absolute():
    rate = 100.0
    t = np.arange(int(6.0 * rate)) / rate
    wave = lambda tt: np.sin(2 * np.pi * 2.0 * tt)
    a = MotionSignal(wave(t), rate)
    b = MotionSignal(wave(t - 0.073), rate, t0=0.25)
    est = estimate_lag(a, b, max_lag_s=0.5)
    assert abs(est.lag_s - 0.323) < 0.002


def test_amplitude_and_sign_scale_invariance():
    rate = 60.0
    t = np.arange(int(5.0 * rate)) / rate
    a = MotionSignal(two_tone(t), rate)
    b = MotionSignal(two_tone(t - 0.1), rate)
    ref = estimate_lag(a, b).lag_s
    scaled = MotionSignal(7.3 * b.samples, rate)
    # integer peak is identical; sub-sample refinement rounds differently
    assert abs(estimate_lag(a, scaled).lag_s - ref) < 1e-9


def test_lag_error_paths():
    rate = 100.0
    t = np.arange(50) / rate
    short = MotionSignal(two_tone(t), rate)
    with pytest.raises(InsufficientOverlap):
        estimate_lag(short, short, max_lag_s=1.0)
    flatline = MotionSignal(np.zeros(200), rate)
    with pytest.raises(ConstantSignal):
        estimate_lag(flatline, flatline)
    with pytest.raises(ValueError):
        estimate_lag(MotionSignal(two_tone(t), 100.0), MotionSignal(two_tone(t), 60.0))
    signal = MotionSignal(two_tone(np.arange(300) / rate), rate)
    for max_lag_s in (math.inf, math.nan, 0.0, -1.0, 1e300):
        with pytest.raises(ValueError, match=re.escape(f"max_lag_s {max_lag_s} ")):
            estimate_lag(signal, signal, max_lag_s=max_lag_s)


def test_lag_range_beyond_the_signals_costs_nothing_extra():
    """Lags at which the signals cannot overlap are not searched, so a
    search range of 1e12 s (1e14 lags per side) answers at once, and as
    the range that just covers both signals does."""
    rate = 100.0
    t = np.arange(300) / rate
    a = MotionSignal(two_tone(t), rate)
    b = MotionSignal(two_tone(t[:250] - 0.37), rate)
    assert estimate_lag(a, b, max_lag_s=1e12) == estimate_lag(a, b, max_lag_s=3.0)


def test_unrelated_noise_is_flagged_not_fatal():
    rng = np.random.default_rng(11)
    a = MotionSignal(rng.normal(size=200), 100.0)
    b = MotionSignal(rng.normal(size=200), 100.0)
    est = estimate_lag(a, b)
    assert est.low_confidence
    assert est.confidence < 0.6


def _reference_lag(a, b, max_lag_s, min_overlap_s):
    """The per-lag definition estimate_lag must reproduce bit for bit: a
    fresh Pearson correlation over the overlap at every candidate lag, the
    first maximum, then the parabolic refinement."""
    if abs(a.rate_hz - b.rate_hz) > 1e-9 * max(a.rate_hz, b.rate_hz):
        raise ValueError("sample rates differ")
    rate = a.rate_hz
    sa, sb = a.samples, b.samples
    if float(np.std(sa)) <= 1e-12 or float(np.std(sb)) <= 1e-12:
        raise ConstantSignal("constant")
    if not (math.isfinite(max_lag_s) and max_lag_s > 0):
        raise ValueError("max_lag_s must be finite and positive")
    max_shift = int(round(max_lag_s * rate))
    min_overlap = max(2, int(round(min_overlap_s * rate)))
    na, nb = sa.size, sb.size
    shifts = np.arange(-max_shift, max_shift + 1)
    corr = np.full(shifts.size, -np.inf)
    counts = np.zeros(shifts.size, dtype=int)
    for idx, s in enumerate(shifts):
        i0 = max(0, -s)
        i1 = min(na, nb - s)
        m = i1 - i0
        counts[idx] = m
        if m < min_overlap:
            continue
        x = sa[i0:i1]
        y = sb[i0 + s : i1 + s]
        x = x - x.mean()
        y = y - y.mean()
        den = np.sqrt((x @ x) * (y @ y))
        if den <= 1e-30:
            continue
        corr[idx] = (x @ y) / den
    if not np.any(np.isfinite(corr)):
        raise InsufficientOverlap("no overlap")
    peak = int(np.argmax(corr))
    refined = float(shifts[peak])
    if 0 < peak < shifts.size - 1 and np.isfinite(corr[peak - 1]) and np.isfinite(corr[peak + 1]):
        c0, c1, c2 = corr[peak - 1], corr[peak], corr[peak + 1]
        denom = c0 - 2.0 * c1 + c2
        if abs(denom) > 1e-15:
            refined += float(np.clip(0.5 * (c0 - c2) / denom, -0.5, 0.5))
    confidence = float(np.clip(corr[peak], -1.0, 1.0))
    return LagEstimate(
        lag_s=refined / rate + (b.t0 - a.t0),
        confidence=confidence,
        low_confidence=confidence < 0.6,
        n_overlap=int(counts[peak]),
    )


def test_screened_search_equals_per_lag_definition(hypothesis_settings):
    """estimate_lag's FFT screen plus exact confirm returns the same
    LagEstimate (==, every field) or the same error type as the per-lag
    loop, over lengths, rates, start times and search settings, on signals
    built to stress the screen: square waves whose lags tie exactly,
    constant stretches, rounded and quantized samples, offsets and scales."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    def wave(kind, n, rate, delay, freq, period, rng):
        k = np.arange(n)
        t = k / rate - delay
        if kind == "tones":
            return np.sin(2 * np.pi * freq * t) + 0.5 * np.sin(2 * np.pi * 2.7 * freq * t)
        if kind == "square":  # period a whole number of samples: lags a period apart tie
            return np.where((k - round(delay * rate)) % period < period // 2, 1.0, -1.0)
        if kind == "periodic":  # a random pattern repeated: ties as for the square wave
            pattern = np.random.default_rng(period).uniform(-1.0, 1.0, period)
            return pattern[(k - round(delay * rate)) % period]
        if kind == "stretches":
            return np.where(np.sin(2 * np.pi * freq * t / 3.0) > 0.0, np.sin(2 * np.pi * freq * t), 0.0)
        if kind == "rounded":
            return np.round(3.0 * np.sin(2 * np.pi * freq * t) + 0.3 * rng.normal(size=n))
        if kind == "levels":
            return rng.integers(0, 3, n).astype(float)
        return rng.normal(size=n)

    @st.composite
    def cases(draw):
        rate = draw(st.sampled_from([60.0, 100.0, 1000.0]))
        kinds = ["tones", "square", "periodic", "stretches", "rounded", "levels", "noise"]
        kind = draw(st.sampled_from(kinds))
        na = draw(st.integers(2, 3000))
        nb = na if draw(st.booleans()) else draw(st.integers(2, 3000))
        delay = draw(st.floats(-0.5, 0.5))
        freq = draw(st.floats(0.2, 5.0))
        period = draw(st.integers(2, 200))
        seed = draw(st.integers(0, 2**32 - 1))
        scale = 10.0 ** draw(st.integers(-6, 6))
        offset = draw(st.sampled_from([0.0, -3.5, 1e6]))
        rng = np.random.default_rng(seed)
        xa = offset + scale * wave(kind, na, rate, 0.0, freq, period, rng)
        xb = offset + scale * wave(kind, nb, rate, delay, freq, period, rng)
        t0a, t0b = draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0))
        max_lag_s = draw(st.floats(-0.1, 3.0))
        min_overlap_s = draw(st.floats(0.0, 3.0))
        return MotionSignal(xa, rate, t0a), MotionSignal(xb, rate, t0b), max_lag_s, min_overlap_s

    def outcome(f, *args):
        try:
            return f(*args)
        except (ExtremControlError, ValueError) as exc:
            return type(exc)

    @hypothesis_settings(200)
    @hypothesis.given(cases())
    def check(case):
        assert outcome(estimate_lag, *case) == outcome(_reference_lag, *case)

    check()


# ------------------------------------------------------------- end to end


def test_analyze_pair_direct_signals():
    rate = 60.0
    t = np.arange(int(5.0 * rate)) / rate
    wave = lambda tt: np.sin(2 * np.pi * 0.8 * tt)
    a = MotionSignal(wave(t), rate)
    b = MotionSignal(0.2 * wave(t - 10.0 / rate), rate)
    report = analyze_pair(a, b)
    assert abs(report.estimate.lag_s - 10.0 / rate) < 0.5 / rate
    assert report.source == "signals"
    assert report.signal_a.samples.std() == pytest.approx(1.0, rel=1e-9)


def test_analyze_pair_rendered_frames():
    fps = 30.0
    frames_a = render_bar(90, fps, 0.0)
    frames_b = render_bar(90, fps, 4.0 / fps)
    region = RegionSpec(0, 0, 32, 32, (1.0, 0.0))
    report = analyze_pair(
        frames_a, frames_b, region_a=region, region_b=region, fps=fps, block=8, radius=6
    )
    assert abs(report.estimate.lag_s - 4.0 / fps) < 0.5 / fps
    assert report.estimate.confidence > 0.9
    assert report.source == "frames"


def test_flow_signal_shapes():
    frames = render_bar(10, 30.0, 0.0)
    flows = [block_match_flow(a, b, block=8, radius=6) for a, b in zip(frames, frames[1:])]
    region = RegionSpec(0, 0, 32, 32, (1.0, 0.0))
    sig = flow_signal(flows, region, 30.0)
    assert sig.samples.size == 9
    assert sig.rate_hz == 30.0
    with pytest.raises(ValueError):
        flow_signal(flows[:1], region, 30.0)


def _reference_report(frames_a, frames_b, region, fps, block, radius):
    """Per-pair reference: block_match_flow on each consecutive pair, then
    flow_signal over the list, estimate_lag and standardize."""
    def signal(frames):
        flows = [block_match_flow(frames[k], frames[k + 1], block, radius)
                 for k in range(len(frames) - 1)]
        return flow_signal(flows, region, fps), flows

    (sig_a, flows_a), (sig_b, flows_b) = signal(frames_a), signal(frames_b)
    estimate = estimate_lag(sig_a, sig_b)
    return standardize(sig_a), standardize(sig_b), estimate, flows_a, flows_b


def test_streamed_report_equals_per_pair_reference():
    fps, region = 30.0, RegionSpec(0, 0, 32, 32, (1.0, 0.0))
    frames_a = render_bar(60, fps, 0.0)
    frames_b = render_bar(60, fps, 3.0 / fps)
    std_a, std_b, estimate, flows_a, flows_b = _reference_report(
        frames_a, frames_b, region, fps, 8, 6)
    sources = {
        "frames": (frames_a, frames_b),
        "flows": (flows_a, flows_b),
        "frames+flows": (frames_a, flows_b),
    }
    for kind, (a, b) in sources.items():
        for wrap in (list, iter):
            report = analyze_pair(wrap(a), wrap(b), region_a=region, region_b=region,
                                  fps=fps, block=8, radius=6)
            assert report.source == kind
            assert report.estimate == estimate
            assert np.array_equal(report.signal_a.samples, std_a.samples)
            assert np.array_equal(report.signal_b.samples, std_b.samples)


def test_analyze_pair_memory_does_not_grow_with_frames():
    """The frames are built first; from then on the traced peak must not
    grow by a single flow field between 24 and 96 frames (holding every
    field would add 72 of them, about 3.5 MB)."""
    import tracemalloc

    fps, shape = 10.0, (48, 64)
    region = RegionSpec(0, 0, shape[1], shape[0], (1.0, 0.0))
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    bg = np.random.default_rng(5).integers(20, 60, shape)

    def frames(n, delay):
        out = []
        for k in range(n):
            cx = shape[1] / 2 + 12 * math.sin(2 * math.pi * 0.45 * (k - delay) / fps)
            out.append((bg + np.clip(160 - 3 * (xx - cx) ** 2, 0, None)).astype(np.uint8))
        return out

    peaks = []
    for n in (24, 96):
        fa, fb = frames(n, 0), frames(n, 2)
        analyze_pair(fa, fb, region, region, fps)  # warm every code path once
        tracemalloc.start()
        try:
            analyze_pair(fa, fb, region, region, fps)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    field_bytes = 2 * shape[0] * shape[1] * 8
    assert abs(peaks[1] - peaks[0]) < field_bytes, peaks


def test_analyze_pair_refuses_before_matching(monkeypatch):
    """Every refusal that needs no matching comes before the first pair of
    either side is matched, with the message the matcher would give."""
    from extremctl import latency

    fps, region = 30.0, RegionSpec(0, 0, 32, 32, (1.0, 0.0))
    good = render_bar(40, fps, 0.0)
    flows = [block_match_flow(a, b, 8, 4) for a, b in zip(good, good[1:3])]
    calls = []
    real = latency._match_chunk
    monkeypatch.setattr(latency, "_match_chunk", lambda frames, *args, **kwargs:
                        calls.append(list(frames)) or real(frames, *args, **kwargs))
    odd = good[:30] + [np.zeros((16, 32))] + good[31:]
    outside = RegionSpec(0, 0, 33, 32, (1.0, 0.0))
    cases = [
        (good, good, region, outside, OutOfBounds, "region (0, 0, 33, 32) outside 32x32 flow"),
        (good, odd, region, region, DimensionMismatch, "frame shapes (32, 32) vs (16, 32)"),
        (good, good[:1], region, region, ValueError, "need at least 2 frames"),
        (good, iter(good[:1]), region, region, ValueError, "need at least 2 frames"),
        (good, iter(odd), region, region, DimensionMismatch, "frame shapes (32, 32) vs (16, 32)"),
        (good, [np.zeros((2, 32, 32))] * 3, region, region, ValueError, "must be 2-d"),
        (good, [], region, region, ValueError, "empty source"),
        (good, good, region, None, ValueError, "frame input needs region and fps"),
    ]
    for a, b, ra, rb, error, text in cases:
        with pytest.raises(error, match=re.escape(text)):
            analyze_pair(a, b, region_a=ra, region_b=rb, fps=fps)
        assert calls == [], text
    for kwargs, text in (({"block": 2}, "block 2 must be at least 4 pixels"),
                         ({"radius": -1}, "radius must be non-negative"),
                         ({"block": 64}, "frames (32, 32) smaller than one 64px block")):
        # the matcher's own refusals win over the region check, as when it ran first
        with pytest.raises(ValueError, match=re.escape(text)):
            analyze_pair(good, good, region_a=region, region_b=outside, fps=fps, **kwargs)
        assert calls == [], text
    with pytest.raises(OutOfBounds, match=re.escape("outside 32x32 flow")):
        analyze_pair(good, iter(flows), region_a=region, region_b=outside, fps=fps)
    assert calls == []
    # The empty call lists above mean something only while analyze_pair
    # matches through this name, the kernel that block_match_flow paints
    # from: each side's calls pass its frames in order, every call after
    # the first starting at the frame the one before ended on, so every
    # consecutive pair of each side is matched exactly once.
    other = render_bar(36, fps, 3.0 / fps)
    analyze_pair(good, other, region_a=region, region_b=region, fps=fps)
    for frames in (good, other):
        ours = [c for c in calls if any(c[0] is f for f in frames)]
        assert all(len(c) >= 2 for c in ours)
        passed = ours[0] + [f for prev, c in zip(ours, ours[1:]) for f in c[1:] if c[0] is prev[-1]]
        assert len(passed) == len(frames) and all(p is f for p, f in zip(passed, frames))
    assert len(calls) == sum(-(-(len(f) - 1) // latency.MATCH_CHUNK) for f in (good, other))


def test_motion_signal_validation():
    with pytest.raises(ValueError):
        MotionSignal(np.array([1.0]), 10.0)
    with pytest.raises(ValueError):
        MotionSignal(np.array([1.0, 2.0]), 0.0)
    with pytest.raises(ValueError):
        MotionSignal(np.array([1.0, np.nan]), 10.0)


def test_motion_signal_refuses_non_finite_rate_and_start():
    samples = np.sin(np.arange(500) / 7.0)
    for rate in (float("nan"), float("inf"), -float("inf"), -1.0):
        with pytest.raises(ValueError, match=f"rate {rate} Hz"):
            MotionSignal(samples, rate)
    for t0 in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match=f"start time {t0} s"):
            MotionSignal(samples, 100.0, t0)
