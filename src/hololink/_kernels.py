"""Hot pairwise kernels: linking integrands on node grids, distance scans,
and the projected segment-crossing count.

Each kernel is one numpy function with a fixed evaluation order, so it is
deterministic, which is what the repeatability contract needs.

The linking kernels take det3 as one (n, 6) @ (6, m) matrix product of
per-node Plucker rows. In line geometry det3(x-y, dx, dy) is the reciprocal
product of the lines through x along dx and through y along dy; with the
moment m = (p-o) x dp of a node p about an origin o shared by both clouds,

    det3(x-y, dx, dy) = dx . m_y + m_x . dy

so the rows are [dx_i, m_x_i] on the left and [m_y_j, dy_j] on the right
(up to the order of the two 3-column halves). Each moment is of size
|p-o| |dp|, so det3 carries an absolute rounding error of about
eps (|x-o| + |y-o|) |dx| |dy|: against the kernel's scale
|dx| |dy| / ||x-y||^2 that is eps |x-o| / ||x-y||. One builder,
plucker_rows, forms the rows of every kernel. The complex kernels call it
about c (the mean of the two clouds' means), which keeps that ratio near
panel extent / gap. gauss_grid takes the rows themselves, built about any
origin shared by both clouds, so the Gauss route forms every node's row
once per chunk of a refinement round, on its curve side, and each kernel
call only slices them. On a pair chart the second cloud is per row, one
(m, 3) cloud for each node of the first (gauss_grid), and det3 is one
stacked row-times-rows product.

||x-y||^2 is summed from direct coordinate differences. The expansion
||x||^2 + ||y||^2 - 2 Re<x, y> is never used: it loses
(panel extent / gap)^2 of the relative accuracy to cancellation.
gauss_grid takes the differences one coordinate at a time, from x.T and
y.T: on clouds whose .T is C-contiguous, as the Gauss route hands it,
each is a contiguous (n, m) plane, every entry rounded once and summed in
coordinate order. It writes its grid into a caller's buffer when given
one, so a round's grids need no copy.

Given node weights wz and ww, bm_grid returns the weighted sum
wz @ K @ ww of its grid K without forming K. It folds wz into the left
rows and ww into the right rows, turns ||z-w||^6 into its reciprocal D in
place, and returns sum_k left_k . (D @ right_k), taking D @ right as one
real (n, m) @ (m, 12) product with the real and imaginary parts of the
right rows side by side. D is real because the distance is: the only
O(n m) work is that real product and the distance grid, and no complex
n x m array exists. The sum is the grid form's sum reassociated (each
det3 is cancelled after the weighting rather than before), so it agrees
with wz @ K @ ww to about eps R / gap of sum |wz| |K| |ww|, the grid's own
rounding.

The complex kernels also take clouds stacked over a leading panel axis,
(P, n, 3) and (P, m, 3), and return one grid or weighted sum per panel.
They work in blocks of whole panels of at most _BLOCK_PAIRS pairs (one
panel when a panel has more), so a stacked call holds no more pairs at
once than one 256 x 256 grid. Every step is elementwise, a reduction along
one panel's own axes or a matrix product per panel, so each panel's result
has the bits of the 2-D call on that panel alone.

crossing_sum finds the segment pairs whose grown bounding boxes overlap by
a sorted sweep on x rather than an n x m test. It keeps exactly the pairs
the four exact comparisons pass, in row-major order, so the signed sum and
the degenerate flag do not depend on how the pairs are found. polyline_dist
runs the same sweep on 3-D boxes grown by its reach, and measures only the
segment pairs it keeps.
"""

import numpy as np

# No compiled kernels ship: numpy is the one path. perfbench/run.py reads
# this flag to record the kernel backend of each run.
HAS_NUMBA = False

FOUR_PI = 4.0 * np.pi

_BLOCK_PAIRS = 65536   # the pairs of one 256 x 256 grid: a kernel block


def gauss_grid(x, rows_x, y, rows_y, out=None):
    """Gauss linking integrand det3(y-x, dx, dy) / (4 pi |x-y|^3) on the
    grid of all (i, j) pairs. The y-x ordering is the library's linking
    orientation (standard skew lines -> +1/2, standard Hopf pair -> +1).

    rows_x (n, 6) and rows_y (m, 6) are the Plucker rows of the clouds,
    [dx | mx] and [my | dy], from plucker_rows about one origin shared by
    both clouds. The clouds x (n, 3) and y (m, 3) are read one coordinate
    at a time, as x.T and y.T: clouds whose .T is C-contiguous (a
    transposed (3, n) array) give contiguous (n, m) difference planes.
    The second cloud may also be per row, y (n, m, 3) and rows_y
    (n, m, 6), pair (i, j) taking y[i, j]: a pair chart's nodes. It is
    then read as y.transpose(2, 0, 1), contiguous when y is a transposed
    (3, n, m) array. The grid is written into out, an (n, m) float array,
    when one is given, and returned."""
    if y.ndim == 3:
        det = np.matmul(rows_y, rows_x[:, :, None],
                        out=None if out is None else out[:, :, None])[..., 0]
        d = x.T[:, :, None] - y.transpose(2, 0, 1)
    else:
        det = np.matmul(rows_x, rows_y.T, out=out)
        d = x.T[:, :, None] - y.T[:, None, :]
    d *= d
    n2 = d[0] + d[1]
    n2 += d[2]
    den = np.sqrt(n2)
    den *= n2
    den *= -FOUR_PI
    det /= den
    return det


def plucker_rows(p, dp, origin, first):
    """Plucker rows of nodes p (n, 3) with velocities dp: the moment
    m = (p - origin) x dp beside dp, as [dp | m] for the first cloud and
    [m | dp] for the second (module docstring)."""
    m = _cross(p - origin, dp)
    return np.concatenate([dp, m] if first else [m, dp], axis=-1)


def _cross(a, b):
    """Row-wise cross product of two (..., 3) arrays from explicit
    component products: the bits of np.cross, without its axis handling."""
    out = np.empty(a.shape, dtype=np.result_type(a, b))
    out[..., 0] = a[..., 1] * b[..., 2] - a[..., 2] * b[..., 1]
    out[..., 1] = a[..., 2] * b[..., 0] - a[..., 0] * b[..., 2]
    out[..., 2] = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
    return out


def _plucker_rows(z, dz, w, dw):
    """Rows [(z-c) x dz, dz] (P, n, 6) and [dw, (w-c) x dw] (P, m, 6)
    about each panel's centre c of complex clouds (P, n, 3) and (P, m, 3):
    left @ right.T is det3(z-w, dz, dw) on each panel's pair grid."""
    c = 0.5 * (z.mean(axis=1, keepdims=True) + w.mean(axis=1, keepdims=True))
    return plucker_rows(z, dz, c, False), plucker_rows(w, dw, c, True)


def _squared_distances(x, y):
    """||x_i - y_j||^2 on the pair grid of real clouds x (..., n, k) and
    y (..., m, k), as (..., n, m), summed one coordinate at a time in
    coordinate order."""
    # Each difference x_i - y_j comes from the rank-2 product
    # [x, 1] @ [1, -y]: both products are exact, so every entry is the
    # difference rounded once, as np.subtract.outer gives it, but without
    # a ufunc call per row.
    xs = np.ones(x.shape[:-1] + (2,))
    ys = np.ones(y.shape[:-2] + (2, y.shape[-2]))
    n2 = diff = None
    for c in range(x.shape[-1]):
        xs[..., 0] = x[..., c]
        ys[..., 1, :] = -y[..., c]
        diff = np.matmul(xs, ys, out=diff)
        diff *= diff
        if n2 is None:
            n2, diff = diff, None
        else:
            n2 += diff
    return n2


def _dist6(z, w):
    """||z-w||^6 on the pair grids of complex clouds (P, n, 3) and
    (P, m, 3)."""
    n2 = _squared_distances(np.concatenate([z.real, z.imag], axis=-1),
                            np.concatenate([w.real, w.imag], axis=-1))
    dist6 = n2 * n2
    dist6 *= n2
    return dist6


def _in_blocks(block, z, dz, w, dw, wz, ww):
    """block(z, dz, w, dw, wz, ww) on clouds stacked over panels, a run of
    whole panels of at most _BLOCK_PAIRS pairs (or one panel) at a time;
    2-D clouds are one panel and give its result unstacked. Unless both
    weights are given, block gets neither and returns grids (module
    docstring)."""
    if wz is None or ww is None:
        wz = ww = None
    args = (z, dz, w, dw, wz, ww)
    if z.ndim == 2:
        return block(*(None if a is None else a[None] for a in args))[0]
    step = max(1, _BLOCK_PAIRS // max(z.shape[1] * w.shape[1], 1))
    return np.concatenate([block(*(None if a is None else a[p:p + step]
                                   for a in args))
                           for p in range(0, len(z), step)])


def bm_grid(z, dz, w, dw, wz=None, ww=None):
    """conj(det3(z-w, dz, dw)) / ||z-w||^6 on the pair grid (no C3 factor).

    Given node weights wz (n,) and ww (m,), returns the weighted sum
    wz @ grid @ ww instead, computed without the grid (module docstring).
    Clouds (P, n, 3) and (P, m, 3), with weights (P, n) and (P, m), give
    one grid or sum per panel."""
    return _in_blocks(_bm_block, z, dz, w, dw, wz, ww)


def _bm_block(z, dz, w, dw, wz, ww):
    left, right = _plucker_rows(z, dz, w, dw)
    left, right = left.conj(), right.conj()
    dist6 = _dist6(z, w)
    if wz is None:
        det = left @ right.swapaxes(1, 2)
        det /= dist6
        return det
    left *= wz[..., None]
    right *= ww[..., None]
    recip = np.reciprocal(dist6, out=dist6)
    part = recip @ np.concatenate([right.real, right.imag], axis=-1)
    terms = left * (part[..., :6] + 1j * part[..., 6:])
    return terms.reshape(len(terms), -1).sum(axis=1)


def clink_grid(z, dz, w, dw, wz=None, ww=None):
    """|det3(z-w, dz, dw)|^2 / ||z-w||^6 on the pair grid (no C3 factor).

    Given node weights wz (n,) and ww (m,), returns the weighted sum
    wz @ grid @ ww instead. Clouds (P, n, 3) and (P, m, 3), with weights
    (P, n) and (P, m), give one grid or sum per panel."""
    return _in_blocks(_clink_block, z, dz, w, dw, wz, ww)


def _clink_block(z, dz, w, dw, wz, ww):
    left, right = _plucker_rows(z, dz, w, dw)
    det = left @ right.swapaxes(1, 2)
    out = np.square(det.real)
    out += np.square(det.imag)
    out /= _dist6(z, w)
    if wz is None:
        return out
    return np.matmul(np.matmul(wz[:, None, :], out), ww[:, :, None])[:, 0, 0]


def min_dist(a, b):
    """Per panel, the minimum pairwise euclidean distance between stacked
    point clouds a (P, n, k) and b (P, m, k), as a (P,) array.

    Works in blocks of about 32k point pairs, not P*n*m: whole panels
    while one panel's pairs fit, else blocks of one panel's rows of a (one
    row when b is larger). The squared distances come from
    _squared_distances, each difference rounded once and summed one
    coordinate at a time, in coordinate order: each panel's minimum has
    the bits of the broadcast form and does not depend on the blocks or on
    the other panels."""
    count, n, _ = a.shape
    rows = max(1, 32768 // max(b.shape[1], 1))
    panels = max(1, rows // max(n, 1))
    best = np.full(count, np.inf)
    for p in range(0, count, panels):
        for i in range(0, n, rows):
            n2 = _squared_distances(a[p:p + panels, i:i + rows],
                                    b[p:p + panels])
            np.minimum(best[p:p + panels], n2.min(axis=(1, 2)),
                       out=best[p:p + panels])
    return np.sqrt(best)


def polyline_dist(v1, v2, reach):
    """The minimum distance between two closed polylines, vertices (n, 3)
    and (m, 3) (segment i runs v[i] -> v[(i+1) % n]), when it is at most
    reach; otherwise some value above reach (inf when no pair of segments
    comes within reach).

    Only segment pairs whose bounding boxes come within reach of each other
    on every axis are measured, found by the sorted sweep of
    _overlapping_boxes on the first polyline's boxes grown by reach: two
    segments within reach of each other pass it. Each measured pair's
    distance is that of its closest points (Ericson, Real-Time Collision
    Detection, 2005, sec. 5.1.9): the first line's closest parameter s,
    clamped to [0, 1] (s = 0 for nearly parallel segments), the second
    segment's t closest to that point, and where t leaves [0, 1], t
    clamped and s solved again for it."""
    a, b, c, d = v1, np.roll(v1, -1, axis=0), v2, np.roll(v2, -1, axis=0)
    i, j = _overlapping_boxes(np.minimum(a, b) - reach,
                              np.maximum(a, b) + reach,
                              np.minimum(c, d), np.maximum(c, d))
    if not len(i):
        return np.inf
    a, u, c, w = a[i], b[i] - a[i], c[j], d[j] - c[j]
    r = a - c
    uu, ww, uw = (np.sum(x * y, axis=1) for x, y in ((u, u), (w, w), (u, w)))
    ur, wr = np.sum(u * r, axis=1), np.sum(w * r, axis=1)
    denom = uu * ww - uw * uw
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.where(denom > 1e-12 * uu * ww,
                     np.clip((uw * wr - ur * ww) / denom, 0.0, 1.0), 0.0)
    t = (uw * s + wr) / ww
    s = np.where(t < 0.0, np.clip(-ur / uu, 0.0, 1.0),
                 np.where(t > 1.0, np.clip((uw - ur) / uu, 0.0, 1.0), s))
    t = np.clip(t, 0.0, 1.0)
    gap = r + s[:, None] * u - t[:, None] * w
    return float(np.sqrt(np.min(np.sum(gap * gap, axis=1))))


def crossing_sum(p1, d1, p2, d2):
    """Signed sum over projected segment crossings.

    p1: (n, 2) projected vertices of the first closed polyline (segment i
    runs p1[i] -> p1[(i+1) % n]); d1: (n,) depths along the projection
    direction; likewise p2, d2. Returns (signed_sum, degenerate) where
    degenerate=1 flags a parallel overlap or a near-boundary crossing that
    makes the projection non-generic.

    Each crossing contributes sign(cross(r1, r2)) when the first curve
    passes over (larger depth) and the opposite sign when it passes under;
    the total over all inter-component crossings is twice the linking
    number up to one global sign, which crossing_linking fixes to match the
    library's Gauss orientation (standard Hopf pair -> +1).

    Only segment pairs that can touch are examined: a broad phase keeps the
    pairs whose bounding boxes overlap once each box is grown by twice the
    parameter tolerance times its segment's length, found by a sorted sweep
    on x (_overlapping_boxes) rather than by testing all n x m pairs. A
    point within that tolerance of both segments lies in both grown boxes,
    so no crossing and no near-boundary touch is lost, and pairs whose
    lines merely pass near each other's endpoints raise no flag: one
    segment's endpoint counts as a touch only within the tolerance of the
    other segment.
    """
    eps = 1e-9
    a, b = p1, np.roll(p1, -1, axis=0)
    c, d = p2, np.roll(p2, -1, axis=0)
    r = b - a            # (n, 2)
    s = d - c            # (m, 2)
    len_r = np.linalg.norm(r, axis=1)
    len_s = np.linalg.norm(s, axis=1)

    grow1 = (2 * eps * len_r)[:, None]
    grow2 = (2 * eps * len_s)[:, None]
    lo1, hi1 = np.minimum(a, b) - grow1, np.maximum(a, b) + grow1
    lo2, hi2 = np.minimum(c, d) - grow2, np.maximum(c, d) + grow2
    i, j = _overlapping_boxes(lo1, hi1, lo2, hi2)

    a, r, c, s = a[i], r[i], c[j], s[j]
    denom = r[:, 0] * s[:, 1] - r[:, 1] * s[:, 0]
    ca = c - a
    t_num = ca[:, 0] * s[:, 1] - ca[:, 1] * s[:, 0]
    u_num = ca[:, 0] * r[:, 1] - ca[:, 1] * r[:, 0]

    scale = len_r[i] * len_s[j]
    parallel = np.abs(denom) <= 1e-12 * scale
    # parallel pairs get the finite out-of-range parameter 2, which is
    # neither inside nor on a boundary and keeps the depth arithmetic finite
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(parallel, 2.0, t_num / denom)
        u = np.where(parallel, 2.0, u_num / denom)

    inside = (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)
    # an endpoint of one segment within the tolerance of the other segment
    near_end_t = (np.abs(t) <= eps) | (np.abs(t - 1) <= eps)
    near_end_u = (np.abs(u) <= eps) | (np.abs(u - 1) <= eps)
    boundary = ((near_end_t & (u >= -eps) & (u <= 1 + eps))
                | (near_end_u & (t >= -eps) & (t <= 1 + eps)))

    # parallel segments with overlapping boxes are only a problem if their
    # lines nearly coincide: the distance of c to the line through a, b
    par_risk = parallel & (np.abs(t_num) <= 1e-9 * scale)

    degenerate = int(np.any(boundary) or np.any(par_risk))

    depth1 = d1[i] + t * (np.roll(d1, -1)[i] - d1[i])
    depth2 = d2[j] + u * (np.roll(d2, -1)[j] - d2[j])
    near_depth = inside & (np.abs(depth1 - depth2) <= 1e-12)
    if np.any(near_depth):
        degenerate = 1
    counted = inside & ~near_depth

    over = np.where(depth1 > depth2, 1.0, -1.0)
    total = float(np.sum(np.where(counted, np.sign(denom) * over, 0.0)))
    return total, degenerate


def _overlapping_boxes(lo1, hi1, lo2, hi2):
    """Index pairs (i, j), in row-major order, of the boxes [lo1_i, hi1_i]
    and [lo2_j, hi2_j] (rows of (n, k) and (m, k) arrays) that overlap:
    the pairs that pass the comparisons lo1 <= hi2 and lo2 <= hi1 on each
    axis.

    A sorted sweep on x finds them without the n x m test: the second
    boxes are sorted by their low x edge, and each first box takes the run
    of them whose low edge lies between its own low edge less twice the
    widest second box and its own high edge. Every second box that meets
    it in x is in that run: a computed width is at least half the exact
    one, and rounding is monotone. Only the run's pairs go through the
    exact comparisons."""
    order = np.argsort(lo2[:, 0], kind="stable")
    edges = lo2[order, 0]
    reach = 2.0 * np.fmax.reduce(hi2[:, 0] - lo2[:, 0])
    start = np.searchsorted(edges, lo1[:, 0] - reach, side="left")
    stop = np.searchsorted(edges, hi1[:, 0], side="right")
    counts = np.maximum(stop - start, 0)
    i = np.repeat(np.arange(len(lo1)), counts)
    first = np.repeat(start - (np.cumsum(counts) - counts), counts)
    j = order[first + np.arange(len(i))]
    keep = (lo1[i, 0] <= hi2[j, 0]) & (lo2[j, 0] <= hi1[i, 0])
    for a in range(1, lo1.shape[1]):
        keep &= (lo1[i, a] <= hi2[j, a]) & (lo2[j, a] <= hi1[i, a])
    pairs = i[keep] * len(lo2) + j[keep]
    # a stable argsort is the sort the library already runs; the first call
    # of any other numpy sort maps its code, about 0.3 MB more resident
    return np.divmod(pairs[np.argsort(pairs, kind="stable")], len(lo2))
