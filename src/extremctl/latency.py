"""End-to-end latency estimation from paired motion observations.

Two observations of the same motion (video of the operator and video of the
robot, or directly tracked positions) are reduced to one-dimensional motion
signals, standardized, and aligned: the time offset maximizing their
normalized cross-correlation is the latency estimate. Sub-sample refinement
by parabolic interpolation of the correlation peak supports claims below
one frame period.

Video enters through a deliberately simple block-matching optical flow
(mean-removed SAD), region averaging, and projection onto a motion
direction; precomputed flow fields and raw signals are accepted as well.
A frame sequence is matched a chunk of MATCH_CHUNK consecutive pairs per
kernel call, so each frame is range-scanned and shifted once (twice at a
chunk boundary) and numpy's per-call overhead is paid once per chunk.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ExtremControlError, finite, finite_positive, integer


class DimensionMismatch(ExtremControlError):
    """Frame pair dimensions differ."""


class OutOfBounds(ExtremControlError):
    """Region extends outside the flow field."""


class ConstantSignal(ExtremControlError):
    """Signal standard deviation at or below 1e-12; nothing to align."""


class InsufficientOverlap(ExtremControlError):
    """No candidate lag leaves enough overlapping samples."""


@dataclass(frozen=True)
class MotionSignal:
    """Uniformly sampled 1-D signal: samples at rate_hz starting at t0."""

    samples: np.ndarray
    rate_hz: float
    t0: float = 0.0

    def __post_init__(self) -> None:
        samples = np.asarray(self.samples, dtype=float)
        if samples.ndim != 1 or samples.size < 2:
            raise ValueError("signal needs at least 2 samples in one dimension")
        if not np.all(np.isfinite(samples)):
            raise ValueError("signal contains non-finite samples")
        finite_positive(self.rate_hz, "rate", unit="Hz")
        finite(self.t0, "start time", unit="s")
        samples.flags.writeable = False
        object.__setattr__(self, "samples", samples)

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return (self.samples.size - 1) / self.rate_hz

    @property
    def t(self) -> np.ndarray:
        return self.t0 + np.arange(self.samples.size) / self.rate_hz


@dataclass(frozen=True)
class RegionSpec:
    """Axis-aligned pixel rectangle plus the motion direction to project on.

    A bool or a non-integer x, y, w or h is refused, naming the field;
    other integer types (numpy's) are stored as int."""

    x: int
    y: int
    w: int
    h: int
    direction: np.ndarray

    def __post_init__(self) -> None:
        for name in ("x", "y", "w", "h"):
            value = getattr(self, name)
            if type(value) is not int:
                object.__setattr__(self, name, integer(value, name))
        if self.w < 1 or self.h < 1:
            raise ValueError("region must be at least 1x1 pixels")
        d = np.asarray(self.direction, dtype=float)
        if d.shape != (2,):
            raise ValueError("direction must be a 2-vector")
        if not np.all(np.isfinite(d)):
            raise ValueError(f"direction {d.tolist()} must be finite")
        norm = float(np.linalg.norm(d))
        if norm <= 1e-12:
            raise ValueError("direction must be non-zero")
        d = d / norm
        d.flags.writeable = False
        object.__setattr__(self, "direction", d)

    @staticmethod
    def parse(text: str) -> "RegionSpec":
        """Build from 'x,y,w,h,dx,dy' (the CLI flag format). The digit
        separator '_', which int() and float() accept, is refused, as in
        PGM headers."""
        parts = text.split(",")
        if len(parts) != 6:
            raise ValueError(f"expected x,y,w,h,dx,dy, got {text!r}")
        if "_" in text:
            raise ValueError(f"expected x,y,w,h,dx,dy as plain numbers, got '_' in {text!r}")
        x, y, w, h = (int(p) for p in parts[:4])
        return RegionSpec(x, y, w, h, np.array([float(parts[4]), float(parts[5])]))


@dataclass(frozen=True)
class FlowField:
    """Per-pixel displacement field in pixels/frame, components u (x) and v (y)."""

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self) -> None:
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != v.shape or u.ndim != 2:
            raise ValueError("u and v must be equal-shape 2-d arrays")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ValueError("flow contains non-finite entries")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    @property
    def shape(self) -> tuple[int, int]:
        return self.u.shape


def _check_match(shape_a: tuple, shape_b: tuple, block: int, radius: int) -> None:
    """The refusals of block_match_flow for frames of these shapes."""
    if shape_a != shape_b:
        raise DimensionMismatch(f"frame shapes {shape_a} vs {shape_b}")
    if len(shape_a) != 2:
        raise ValueError("frames must be 2-d grayscale arrays")
    if block < 4:
        raise ValueError(f"block {block} must be at least 4 pixels")
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if shape_a[0] < block or shape_a[1] < block:
        raise ValueError(f"frames {shape_a} smaller than one {block}px block")


@functools.lru_cache(maxsize=32)
def _search_tables(h: int, w: int, block: int, radius: int):
    """Shape-only tables of block_match_flow for (h, w) frames: the clamped
    radii (rv, ru), the mask of (displacement, tile) pairs whose displaced
    tile leaves the frame, and the displacements in tie-break order as
    (D, 2) rows (dv, du) with their flat indices into the (nv, nu) grid."""
    nby, nbx = h // block, w // block
    # Displacements beyond the frame have no valid tile: clamp each axis.
    rv, ru = min(radius, h - block), min(radius, w - block)
    tile_y = np.arange(nby) * block + np.arange(-rv, rv + 1)[:, None]
    tile_x = np.arange(nbx) * block + np.arange(-ru, ru + 1)[:, None]
    row_ok = (tile_y >= 0) & (tile_y + block <= h)
    col_ok = (tile_x >= 0) & (tile_x + block <= w)
    invalid = ~(row_ok[:, None, :, None] & col_ok[None, :, None, :])
    # Displacements sorted so np.argmin's first-wins rule breaks ties
    # toward the smallest motion.
    disps = sorted(
        ((dv, du) for dv in range(-rv, rv + 1) for du in range(-ru, ru + 1)),
        key=lambda d: (d[0] ** 2 + d[1] ** 2, d[1], d[0]),
    )
    darr = np.asarray(disps)
    order = (darr[:, 0] + rv) * (2 * ru + 1) + darr[:, 1] + ru
    for table in (invalid, darr, order):
        table.flags.writeable = False
    return rv, ru, invalid, darr, order


_INT_MAX = {t: int(np.iinfo(t).max) for t in (np.int16, np.int32, np.int64)}


def _fits(bound: int, dtype) -> bool:
    return bound <= _INT_MAX[dtype]


def _window_sums(x: np.ndarray, k: int) -> np.ndarray:
    """out[i] = x[i] + ... + x[i + k - 1] along axis 0, by doubling: sums of
    1, 2, 4, ... consecutive rows, combined along the bits of k."""
    n = x.shape[0] - k + 1
    out, off, width = None, 0, 1
    while True:
        if k & width:
            part = x[off : off + n]
            out = part if out is None else out + part
            off += width
        if 2 * width > k:
            return out
        x = x[:-width] + x[width:]
        width *= 2


# Consecutive frame pairs that _frame_samples matches per kernel call. A
# call pays numpy's per-call overhead once for all its pairs, and holds
# MATCH_CHUNK + 1 shifted frames.
MATCH_CHUNK = 8


def _match_chunk(frames, block: int, radius: int,
                 texture_threshold: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """(dv, du): the (P, nby, nbx) integer tile displacements that
    block_match_flow paints, for each of the P consecutive pairs of the
    P + 1 frames, whose pairs pass _check_match. See block_match_flow for
    the method.

    Each frame's range is read once. Consecutive pairs of integer frames
    are matched in one run (_match_run) on a shift and dtypes shared by
    all their frames; a float pair is a run of its own, shifted by its own
    smallest pixel, as its costs may round."""
    frames = [np.asarray(f) for f in frames]
    h, w = frames[0].shape
    bb = block * block
    npairs = len(frames) - 1
    ranges = [(int(f.min()), int(f.max())) if np.can_cast(f.dtype, np.int64) else None
              for f in frames]

    def integer_run(first: int, last: int):
        """(lo, term, acc) of frames first..last, acc None if their costs
        may overflow int64."""
        lo = min(r[0] for r in ranges[first : last + 1])
        span = max(r[1] for r in ranges[first : last + 1]) - lo
        # Every value in _match_run is at most the bound of one term; a
        # span of at least 1 keeps bb itself inside it.
        term_bound = (2 * bb - 1) * max(span, 1)
        acc = next((t for t in (np.int32, np.int64) if _fits(bb * term_bound, t)), None)
        return lo, (np.int16 if _fits(term_bound, np.int16) else acc), acc

    def exact_texture(k: int) -> bool:
        # Every step of the float64 texture test is exact on this pair's pixels.
        (a_lo, a_hi), (b_lo, b_hi) = ranges[k], ranges[k + 1]
        span = max(a_hi, b_hi) - min(a_lo, b_lo)
        return block & (block - 1) == 0 and bb * bb * max(-a_lo, a_hi, span) < 2**53

    integer = [None not in ranges[k : k + 2] and integer_run(k, k + 1)[2] is not None
               for k in range(npairs)]
    winner = np.zeros((npairs, (h // block) * (w // block)), dtype=np.intp)
    for is_integer, group in itertools.groupby(range(npairs), integer.__getitem__):
        group = list(group)
        if is_integer and integer_run(group[0], group[-1] + 1)[2] is not None:
            runs = [(group[0], group[-1] + 1)]
        else:  # float pairs, and integer pairs too wide to share a shift
            runs = [(k, k + 1) for k in group]
        for first, last in runs:
            run = frames[first : last + 1]
            if is_integer:
                lo, term, acc = integer_run(first, last)
                exact = [exact_texture(k) for k in range(first, last)]
            else:
                run = [np.asarray(f, dtype=float) for f in run]
                if not all(np.isfinite(f).all() for f in run):
                    raise ValueError("frames contain non-finite pixels")
                lo = min(float(f.min()) for f in run)
                term = acc = np.float64
                exact = [False]
            winner[first:last] = _match_run(run, lo, term, acc, exact, block, radius,
                                            texture_threshold)
    darr = _search_tables(h, w, block, radius)[3]
    shape = (npairs, h // block, w // block)
    return darr[winner, 0].reshape(shape), darr[winner, 1].reshape(shape)


def _match_run(frames, lo, term, acc, exact_texture, block: int, radius: int,
               texture_threshold: float) -> np.ndarray:
    """(P, nby*nbx) tie-order indices of the winning displacements of the P
    consecutive pairs of frames, matched on pixels minus lo in the term
    dtype with costs in acc (float64: the float kernel). exact_texture[k]
    says whether pair k's texture test may be read from integer sums."""
    h, w = frames[0].shape
    nby, nbx = h // block, w // block
    h2, w2 = nby * block, nbx * block
    bb = block * block
    rv, ru, invalid, _, order = _search_tables(h, w, block, radius)
    nv, nu = 2 * rv + 1, 2 * ru + 1
    npairs = len(frames) - 1
    winner = np.zeros((npairs, nby * nbx), dtype=np.intp)

    # lo in the term dtype. On integer frames it and the pixels are cast
    # with wrap-around, which leaves every difference, in [0, span], exact.
    lo_term = np.array(lo).astype(term)
    # Every frame minus lo, once, zero-padded by the radius, so that padded
    # row i is frame row i - rv; the pad only feeds displacements masked
    # below. Plane k is the frame b of pair k - 1 and, inside the pad, the
    # frame a of pair k.
    planes = np.zeros((npairs + 1, h2 + 2 * rv, w2 + 2 * ru), dtype=term)
    rows, cols = min(h, h2 + rv), min(w, w2 + ru)
    np.subtract(np.stack([img[:rows, :cols] for img in frames]), lo_term,
                out=planes[:, rv : rv + rows, ru : ru + cols], dtype=term, casting="unsafe")

    # The searched tiles, as (pair, ty, tx) triples (see "Searched tiles" in
    # block_match_flow).
    if acc is np.float64:
        pair, ty, tx = np.unravel_index(np.arange(npairs * nby * nbx), (npairs, nby, nbx))
    else:
        inner = planes[:, rv : rv + h2, ru : ru + w2]
        diff = (inner[:-1] - inner[1:]).reshape(npairs, nby, block, w2)
        # A tile's a - b is one constant if every row equals the tile's
        # first row and that row is constant.
        moving = (diff != diff[:, :, :1]).any(axis=2).reshape(npairs, nby, nbx, block)
        first = diff[:, :, 0].reshape(npairs, nby, nbx, block)
        pair, ty, tx = np.nonzero((moving | (first != first[..., :1])).any(axis=3))

    # The float64 texture test of frame a's tiles, for pairs whose test
    # cannot be read from exact integer sums.
    mads = {}
    for k in (k for k, exact in enumerate(exact_texture) if not exact):
        a_tiles = np.asarray(frames[k], dtype=float)[:h2, :w2].reshape(nby, block, nbx, block)
        a_tiles = a_tiles.swapaxes(1, 2)
        mads[k] = np.abs(a_tiles - a_tiles.mean(axis=(2, 3), keepdims=True)).mean(axis=(2, 3))

    def search(pair, ty, tx):
        """Tie-order index of the winning displacement of each of these
        searched tiles."""
        n = pair.size

        def gathered(offset, planes_y, planes_x, plane):
            # out[qy, qx, i] = planes[plane[i], y + ty[i]*block + qy,
            # x + tx[i]*block + qx], with (y, x) the element at offset in plane 0
            s = planes.strides
            view = np.ndarray((planes_y, planes_x, npairs + 1, nby, nbx), term, planes,
                              offset * planes.itemsize,
                              (s[1], s[2], s[0], block * s[1], block * s[2]))
            return np.ascontiguousarray(view[..., plane, ty, tx])

        # sa[py, px, i] = bb * (a - lo)[ty*block + py, tx*block + px] - (tile sum)
        sa = gathered(rv * planes.shape[2] + ru, block, block, pair)
        tile_sums = sa.sum(axis=(0, 1), dtype=term)
        sa *= bb
        sa -= tile_sums
        pb = gathered(0, block + 2 * rv, block + 2 * ru, pair + 1)
        # Frame-b tile sums at every displacement: sb[dv, du, i] is the sum
        # of pb[dv : dv + block, du : du + block, i], taken before pb is
        # scaled.
        sb = _window_sums(_window_sums(pb, block).swapaxes(0, 1), block).swapaxes(0, 1)
        pb *= bb

        # cost[dv, du, i] = sum over the tile of max(sa + sb, pb) - bb*sb
        cost = np.multiply(sb, -bb, dtype=acc)
        slab = np.empty((block, nv, nu, n), dtype=term)
        rows_sum = np.empty_like(cost)
        # pb_px[px][py, dv, du, i] = pb[py + dv, px + du, i]
        s = pb.strides
        pb_px = np.ndarray((block,) + slab.shape, term, pb, 0, (s[1], s[0], s[0], s[1], s[2]))
        # sa_du[py, 0, du, i] = sa[py, px, i], one column at a time: with
        # every operand of the add contiguous over (du, i), its inner loops
        # run over nu*n elements rather than n.
        sa_du = np.empty((block, 1, nu, n), dtype=term)
        for px in range(block):
            # slab[py, dv, du, i] =
            #     max(sa[py, px, i] + sb[dv, du, i], pb[py + dv, px + du, i])
            sa_du[...] = sa[:, px, None, None]
            np.add(sa_du, sb, out=slab)
            np.maximum(slab, pb_px[px], out=slab)
            cost += np.add.reduce(slab, axis=0, dtype=acc, out=rows_sum)

        # A displacement counts for a tile only if the displaced tile lies
        # inside the frame. Every cost is below bb*term_bound, so the
        # dtype's maximum loses to every valid displacement.
        cost[invalid[..., ty, tx]] = np.inf if acc is np.float64 else np.iinfo(acc).max
        best = np.argmin(cost.reshape(nv * nu, n)[order], axis=0)

        # The texture test: the float64 mean absolute deviation of each
        # tile of frame a, read from the exact integer sums of |sa| where
        # every step of it is exact.
        if acc is np.float64:
            texture = np.empty(n)
        else:
            texture = np.abs(sa).sum(axis=(0, 1), dtype=np.int64) / bb**2
        for k, mad in mads.items():
            ours = pair == k
            texture[ours] = mad[ty[ours], tx[ours]]
        # Index 0 of the tie order is d = 0: flat and unsearched tiles keep it.
        best[texture <= texture_threshold] = 0
        return best

    # A search holds a (block, nv, nu, n) slab and polyphase copies of its
    # n tiles. At most one frame's tiles per search keep that within the
    # working set of one pair with every tile searched.
    step = nby * nbx
    for part in (slice(i, i + step) for i in range(0, pair.size, step)):
        winner[pair[part], ty[part] * nbx + tx[part]] = search(pair[part], ty[part], tx[part])
    return winner


def block_match_flow(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    block: int = 8,
    radius: int = 4,
    texture_threshold: float = 1.0,
) -> FlowField:
    """Block displacement field from frame_a to frame_b.

    Each block x block tile of frame_a is matched against frame_b over
    displacements within +-radius by mean-removed sum of absolute
    differences, so uniform brightness changes do not register as motion.
    Ties prefer the smallest displacement (then smallest du, dv); tiles
    whose mean absolute deviation falls at or below texture_threshold are
    reported as zero flow. The winning displacement is painted across the
    tile; border pixels not covered by a full tile stay zero. A
    displacement is only tried where the displaced tile lies inside the
    frame.

    Kernel (_match_chunk, which returns the per-tile displacements of a
    chunk of consecutive pairs; this function runs it on a chunk of one
    pair and paints them): with bb = block**2, the cost of displacement
    d = (dv, du) is bb**2 times the mean absolute difference of the
    mean-removed tiles: the sum over the tile pixels p of |x[p]|,
    x[p] = sa[p] + sb - pb[p + d], where sa[p] = bb*a[p] - (tile sum of
    a), pb = bb*b and sb is the sum of the frame-b tile at d. The x[p] of
    a tile sum to zero, so that cost is 2*(sum of max(sa[p] + sb,
    pb[p + d]) - bb*sb), and the kernel minimizes half of it: an add, a
    maximum and an accumulate per pixel offset. It loops over the block's
    pixel columns; each step fills a (block, nv, nu, n) slab with one
    column's terms for every pixel row, displacement and searched tile,
    reading a polyphase copy of frame b (one plane per pixel offset, the n
    searched tiles on the last axis), and sums it over its rows into the
    costs. The frame-b tile sums at every displacement are window sums of
    those planes before they are scaled by bb, built by doubling (windows
    of 1, 2, 4, ... rows, then columns), so they cover the searched tiles
    only. On a chunk, the searched tiles are those of all its pairs, as
    (pair, ty, tx) triples, and every step above, from the prejudgment
    below to the texture test, runs once for them all, up to nby*nbx
    tiles at a time (the working set of one pair with every tile
    searched).

    Searched tiles: on integer frames, a tile whose a - b is one constant
    is not searched and keeps d = 0 (zero-motion prejudgment with a
    threshold of 0). That is exact: such a tile's mean-removed difference
    at d = 0 is zero, so its cost there is 0; every exact integer cost is
    at least 0, and d = 0 is first in the tie order, so the search would
    pick d = 0 too. Only the remaining tiles get the polyphase copy, the
    tile sums, the column loop, the validity mask and the argmin, so the
    cost of a pair grows with the number of tiles that changed. Float
    frames search every tile, since their costs may round.

    Exactness and dtype: frames of integer dtype (what read_pgm returns)
    are matched in exact integer arithmetic on pixels shifted by the
    smallest pixel of either frame; on a chunk, consecutive integer pairs
    share the smallest pixel and the span of all their frames, which
    leaves every cost the same exact integer (the costs are
    shift-invariant). With span the largest minus the smallest pixel (at
    least 1), every term lies in [0, (2*bb - 1)*span], and every set-up
    value within that bound in magnitude. Terms are int16 when the bound
    fits (8-bit frames up to block 8) and otherwise in the accumulation
    dtype. Costs accumulate in int32 when bb*(2*bb - 1)*span
    fits and in int64 otherwise. Every cost is then exact, and for
    power-of-two blocks it equals bb**2 / 2 times the float64
    per-displacement mean-removed SAD, so the same displacement wins.
    Float frames, uint64 frames and integer frames whose bound overflows
    int64 are matched in float64 by the same kernel, where near-equal
    costs may round either way; such a pair is matched on its own, shifted
    by its own smallest pixel, whatever chunk it is in, so its costs round
    as when it is matched alone. The texture test is the float64 mean
    absolute deviation of each tile; for integer frames and power-of-two
    blocks every step of it is exact (all values below 2**53), so it is
    read from the integer sum of |sa| instead. Frames holding NaN or inf
    raise ValueError.
    """
    a = np.asarray(frame_a)
    b = np.asarray(frame_b)
    _check_match(a.shape, b.shape, block, radius)
    dv, du = _match_chunk([a, b], block, radius, texture_threshold)
    dv, du = dv[0], du[0]

    h, w = a.shape
    nby, nbx = dv.shape
    h2, w2 = nby * block, nbx * block
    u = np.zeros((h, w))
    v = np.zeros((h, w))
    u[:h2, :w2].reshape(nby, block, nbx, block)[...] = du[:, None, :, None]
    v[:h2, :w2].reshape(nby, block, nbx, block)[...] = dv[:, None, :, None]
    return FlowField(u=u, v=v)


def _check_region(region: RegionSpec, shape: tuple[int, int]) -> None:
    """OutOfBounds unless the region lies inside a (h, w) field."""
    h, w = shape
    if region.x < 0 or region.y < 0 or region.x + region.w > w or region.y + region.h > h:
        raise OutOfBounds(
            f"region {(region.x, region.y, region.w, region.h)} outside {w}x{h} flow"
        )


def project_region(flow: FlowField, region: RegionSpec) -> float:
    """Mean flow vector inside the region, projected on its direction."""
    _check_region(region, flow.shape)
    sl = (slice(region.y, region.y + region.h), slice(region.x, region.x + region.w))
    mean_u = float(np.mean(flow.u[sl]))
    mean_v = float(np.mean(flow.v[sl]))
    return mean_u * region.direction[0] + mean_v * region.direction[1]


def standardize(signal: MotionSignal) -> MotionSignal:
    """Zero-mean, unit-variance copy (population std)."""
    s = signal.samples
    std = float(np.std(s))
    if std <= 1e-12:
        raise ConstantSignal(f"std {std:.3g} at or below 1e-12")
    return MotionSignal((s - np.mean(s)) / std, signal.rate_hz, signal.t0)


@dataclass(frozen=True)
class LagEstimate:
    """Time offset of b behind a (positive = b trails), with peak correlation."""

    lag_s: float
    confidence: float
    low_confidence: bool
    n_overlap: int


# Screened correlations within this band of the screened maximum are
# recomputed exactly. The screen's rounding error on a trusted shift is held
# below an eighth of the band (see _lag_screen); measured, it stays under
# 6e-15 on the pipeline's 10k-sample signals.
LAG_SCREEN_BAND = 1e-7

# Lags per side of zero that max_lag_s may ask for: the 2 * n + 1
# candidate lags must be countable in an int64 index.
MAX_LAG_SHIFTS = 2**62


def _pearson(sa: np.ndarray, sb: np.ndarray, i0, i1, s) -> float:
    """Pearson correlation of a[i0:i1] with b[i0+s:i1+s]; -inf when either
    window is numerically constant. The definition estimate_lag maximizes."""
    x = sa[i0:i1]
    y = sb[i0 + s : i1 + s]
    x = x - x.mean()
    y = y - y.mean()
    den = np.sqrt((x @ x) * (y @ y))
    if den <= 1e-30:
        return -np.inf
    return (x @ y) / den


def _lag_screen(sa, sb, shifts, i0, i1) -> np.ndarray:
    """Mask of the shifts whose exact correlation may be the maximum.

    Approximate Pearson values for all shifts at once: standardized copies,
    window sums from prefix sums, and every cross sum from one FFT
    correlation, long enough that no shift wraps around. A shift is trusted
    when a worst-case rounding bound on its screened value (prefix sums
    of n terms: 2 n^2 eps per sum; the FFT: ~log2(size) eps per unit norm)
    stays below LAG_SCREEN_BAND / 8, its exact denominator is clear of the
    1e-30 rule, and no window product can overflow. The mask holds every
    untrusted shift and every trusted one within the band of the trusted
    maximum, so it holds every shift the exact maximum can sit at.
    """
    na, nb = sa.size, sb.size
    n = max(na, nb)
    sd_a, sd_b = float(np.std(sa)), float(np.std(sb))
    xs = (sa - np.mean(sa)) / sd_a
    ys = (sb - np.mean(sb)) / sd_b
    size = 1 << (n + int(np.abs(shifts).max()) - 1).bit_length()
    fft = np.fft
    sxy = fft.irfft(np.conj(fft.rfft(xs, size)) * fft.rfft(ys, size), size)[shifts % size]
    cx = np.concatenate(([0.0], np.cumsum(xs)))
    cy = np.concatenate(([0.0], np.cumsum(ys)))
    cxx = np.concatenate(([0.0], np.cumsum(xs * xs)))
    cyy = np.concatenate(([0.0], np.cumsum(ys * ys)))
    j0, j1 = i0 + shifts, i1 + shifts
    m = i1 - i0
    sx, sy = cx[i1] - cx[i0], cy[j1] - cy[j0]
    vx = cxx[i1] - cxx[i0] - sx * sx / m
    vy = cyy[j1] - cyy[j0] - sy * sy / m
    amp = max(float(np.abs(xs).max()), float(np.abs(ys).max()))
    eps = float(np.finfo(float).eps)
    err = eps * (2.0 * n * n * (1.0 + 4.0 * amp) + 8.0 * math.log2(size) * math.sqrt(na * nb))
    qa, qb = sd_a * sd_a * na, sd_b * sd_b * nb  # bound every window's x @ x, y @ y
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        screen = (sxy - sx * sy / m) / np.sqrt(vx * vy)
        trusted = (
            (np.minimum(vx, vy) * LAG_SCREEN_BAND > 8.0 * err)
            & (sd_a * sd_b * np.sqrt(vx * vy) > 1e-28)
            & (max(qa, qb, qa * qb) < 1e300)
        )
    top = np.max(screen, where=trusted, initial=-np.inf)
    return ~trusted | (screen >= top - LAG_SCREEN_BAND)


def estimate_lag(
    a: MotionSignal,
    b: MotionSignal,
    max_lag_s: float = 1.0,
    min_overlap_s: float = 1.0,
) -> LagEstimate:
    """Lag maximizing normalized cross-correlation between two signals.

    Pearson correlation is evaluated per candidate integer lag over the
    overlapping samples (standardization is therefore implicit and
    amplitude drops out), then the peak is refined sub-sample by a 3-point
    parabolic fit. Differing t0 values are honored: the returned lag is in
    absolute time. Estimates whose peak correlation falls below 0.6 are
    flagged low_confidence, not rejected. max_lag_s must be finite and
    positive, and max_lag_s * rate below MAX_LAG_SHIFTS; lags at which the
    signals cannot overlap are not searched, so a range wider than the
    signals costs no more than one that just covers them.

    The search runs in two stages. A screen computes an approximate
    correlation for every lag in one pass (window sums from prefix sums,
    cross sums from one FFT correlation). A confirm then computes the
    exact per-lag value (_pearson) for every lag the screen cannot rule
    out: those within LAG_SCREEN_BAND of the screened maximum, those whose
    window variance is too small for the screen's rounding bound, and the
    peak's two neighbours. The peak is the first maximum of the exact
    values in lag order, and the refinement, confidence, n_overlap and
    every error come from exact values, so the result is identical to
    evaluating _pearson at every lag. That is also the worst case, reached
    when all lags correlate within the band of each other.
    """
    if abs(a.rate_hz - b.rate_hz) > 1e-9 * max(a.rate_hz, b.rate_hz):
        raise ValueError(f"sample rates differ: {a.rate_hz} vs {b.rate_hz} Hz")
    rate = a.rate_hz
    sa, sb = a.samples, b.samples
    if float(np.std(sa)) <= 1e-12 or float(np.std(sb)) <= 1e-12:
        raise ConstantSignal("cannot align a constant signal")

    finite_positive(max_lag_s, "max_lag_s")
    lags = max_lag_s * rate
    if not lags < MAX_LAG_SHIFTS:
        raise ValueError(
            f"max_lag_s {max_lag_s} at {rate} Hz gives {lags:g} lags per side, "
            f"beyond the int64 index range"
        )
    min_overlap = max(2, int(round(min_overlap_s * rate)))
    na, nb = sa.size, sb.size
    # No shift beyond either length leaves any overlap, so none is searched.
    max_shift = min(int(round(lags)), max(na, nb))

    shifts = np.arange(-max_shift, max_shift + 1)
    i0 = np.maximum(0, -shifts)
    i1 = np.minimum(na, nb - shifts)
    counts = i1 - i0
    valid = counts >= min_overlap
    corr = np.full(shifts.size, -np.inf)

    def confirm(idx) -> None:
        for k in idx:
            corr[k] = _pearson(sa, sb, i0[k], i1[k], shifts[k])

    keep = np.flatnonzero(valid)
    if keep.size:
        confirm(keep[_lag_screen(sa, sb, shifts[keep], i0[keep], i1[keep])])
    if not np.any(np.isfinite(corr)):
        raise InsufficientOverlap(
            f"no lag within +-{max_lag_s} s leaves {min_overlap} overlapping samples"
        )

    peak = int(np.argmax(corr))
    confirm([k for k in (peak - 1, peak + 1) if 0 <= k < shifts.size and valid[k]])
    refined = float(shifts[peak])
    if 0 < peak < shifts.size - 1 and np.isfinite(corr[peak - 1]) and np.isfinite(corr[peak + 1]):
        c0, c1, c2 = corr[peak - 1], corr[peak], corr[peak + 1]
        denom = c0 - 2.0 * c1 + c2
        if abs(denom) > 1e-15:
            delta = 0.5 * (c0 - c2) / denom
            refined += float(np.clip(delta, -0.5, 0.5))

    confidence = float(np.clip(corr[peak], -1.0, 1.0))
    return LagEstimate(
        lag_s=refined / rate + (b.t0 - a.t0),
        confidence=confidence,
        low_confidence=confidence < 0.6,
        n_overlap=int(counts[peak]),
    )


@dataclass
class LatencyReport:
    """analyze_pair output: standardized signals plus the lag estimate."""

    signal_a: MotionSignal
    signal_b: MotionSignal
    estimate: LagEstimate
    source: str  # "frames" | "flows" | "signals"

    def to_dict(self) -> dict:
        return {
            "lag_ms": self.estimate.lag_s * 1e3,
            "confidence": self.estimate.confidence,
            "low_confidence": self.estimate.low_confidence,
            "source": self.source,
            "rate_hz": self.signal_a.rate_hz,
            "signal_a": {"t0_s": self.signal_a.t0, "values": self.signal_a.samples.tolist()},
            "signal_b": {"t0_s": self.signal_b.t0, "values": self.signal_b.samples.tolist()},
        }


def flow_signal(flows, region: RegionSpec, fps: float, t0: float = 0.0) -> MotionSignal:
    """Project a sequence of flow fields through one region into a signal.

    Fields are projected as they arrive: from a lazy source, at most two
    are alive at once."""
    values = [project_region(f, region) for f in flows]
    return MotionSignal(np.asarray(values), fps, t0)


def _frame_samples(frames, region: RegionSpec, block: int, radius: int):
    """Lazy region samples of a frame sequence, one per consecutive pair.

    Every refusal of block_match_flow, fewer than 2 frames, and then a
    region outside the frames, is raised here, before any pair is matched.
    The pairs are matched MATCH_CHUNK at a time, by one _match_chunk call
    on MATCH_CHUNK + 1 consecutive frames (fewer at the end), each chunk
    starting at the frame the one before ended on. Each sample is
    project_region(block_match_flow(a, b, block, radius), region) bit for
    bit, taken from the tile displacements without painting a field.
    Every painted value is a small integer and border pixels are 0, so
    the sum over the region is the sum over tiles of d times the tile's
    pixel overlap with the region: an integer below 2**53, which np.mean
    also sums exactly, and both divide it once by the region's pixel
    count. A chunk's sums are taken in one pass, one exact integer per
    pair."""
    frames = list(frames)
    if len(frames) < 2:
        raise ValueError("need at least 2 frames")
    for a, b in zip(frames, frames[1:]):
        _check_match(np.shape(a), np.shape(b), block, radius)
    h, w = np.shape(frames[0])
    _check_region(region, (h, w))

    def overlap(start: int, size: int, tiles: int) -> np.ndarray:
        # pixels of [start, start + size) inside each tile along one axis
        edge = np.arange(tiles) * block
        return np.clip(np.minimum(edge + block, start + size) - np.maximum(edge, start), 0, None)

    weights = np.outer(overlap(region.y, region.h, h // block),
                       overlap(region.x, region.w, w // block))
    area = region.w * region.h
    dir_x, dir_y = region.direction

    def samples():
        for start in range(0, len(frames) - 1, MATCH_CHUNK):
            dv, du = _match_chunk(frames[start : start + MATCH_CHUNK + 1], block, radius)
            su, sv = (du * weights).sum(axis=(1, 2)), (dv * weights).sum(axis=(1, 2))
            yield from su / area * dir_x + sv / area * dir_y

    return samples()


def analyze_pair(
    source_a,
    source_b,
    region_a: RegionSpec | None = None,
    region_b: RegionSpec | None = None,
    fps: float | None = None,
    max_lag_s: float = 1.0,
    block: int = 8,
    radius: int = 4,
) -> LatencyReport:
    """Full latency analysis between two observations of one motion.

    Each source is a MotionSignal, a sequence or iterator of FlowField, or
    a sequence or iterator of grayscale frames; frame/flow sources need
    their RegionSpec and a shared fps. Reciprocating or otherwise
    quasi-periodic motion gives the correlation a clear phase structure to
    lock onto.

    Frame and flow sources stream. Frame pairs are matched a chunk of
    MATCH_CHUNK consecutive pairs at a time, each frame range-scanned and
    shifted once per chunk, and projected through the region straight
    from their tile displacements (see _frame_samples), so no flow field
    is built for frame input; flow fields are projected as they arrive, as
    in flow_signal. Memory does not grow with the number of frames beyond
    the frames themselves, which are held as read, and one chunk's working
    arrays. Both sides are checked before either is matched: a
    missing region or fps, an empty source, fewer than 2 frames, every
    refusal block_match_flow would give for the frames, and a region
    outside the first frame or flow.
    """

    def checked(source, region: RegionSpec | None):
        """(kind, signal or lazy samples), every refusal above raised here."""
        if isinstance(source, MotionSignal):
            return "signals", source
        items = iter(source)
        try:
            first = next(items)
        except StopIteration:
            raise ValueError("empty source") from None
        source = itertools.chain([first], items)
        if isinstance(first, FlowField):
            if region is None or fps is None:
                raise ValueError("flow input needs region and fps")
            _check_region(region, first.shape)
            return "flows", (project_region(f, region) for f in source)
        if region is None or fps is None:
            raise ValueError("frame input needs region and fps")
        return "frames", _frame_samples(source, region, block, radius)

    def signal(kind: str, samples) -> MotionSignal:
        return samples if kind == "signals" else MotionSignal(np.fromiter(samples, float), fps)

    (kind_a, a), (kind_b, b) = checked(source_a, region_a), checked(source_b, region_b)
    sig_a, sig_b = signal(kind_a, a), signal(kind_b, b)
    estimate = estimate_lag(sig_a, sig_b, max_lag_s=max_lag_s)
    return LatencyReport(
        signal_a=standardize(sig_a),
        signal_b=standardize(sig_b),
        estimate=estimate,
        source=kind_a if kind_a == kind_b else f"{kind_a}+{kind_b}",
    )
