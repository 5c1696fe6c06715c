"""Hot pairwise kernels: linking integrands on node grids, distance scans,
and the projected segment-crossing count.

Each kernel is one numpy function with a fixed evaluation order, so it is
deterministic, which is what the repeatability contract needs.

The complex kernels take det3(z-w, dz, dw) as one (n, 6) @ (6, m) matrix
product. With both clouds centred at c (the mean of their two means),

    det3(z-w, dz, dw) = ((z-c) x dz) . dw - dz . (dw x (w-c))

so row i of the left factor is [(z_i-c) x dz_i, dz_i] and row j of the
right one is [dw_j, -dw_j x (w_j-c)]. Centring keeps the products near the
size of the pair distance. ||z-w||^2 is summed from direct coordinate
differences. The expansion ||z||^2 + ||w||^2 - 2 Re<z, w> is never used:
it loses (panel extent / gap)^2 of the relative accuracy to cancellation.
"""

import numpy as np

# No compiled kernels ship: numpy is the one path. perfbench/run.py reads
# this flag to record the kernel backend of each run.
HAS_NUMBA = False

FOUR_PI = 4.0 * np.pi


def _det3_cols(a0, a1, a2, b0, b1, b2, c0, c1, c2):
    return (a0 * (b1 * c2 - b2 * c1)
            - a1 * (b0 * c2 - b2 * c0)
            + a2 * (b0 * c1 - b1 * c0))


def gauss_grid(x, dx, y, dy):
    """Gauss linking integrand det3(y-x, dx, dy) / (4 pi |x-y|^3) on the
    grid of all (i, j) pairs. The y-x ordering is the library's linking
    orientation (standard skew lines -> +1/2, standard Hopf pair -> +1)."""
    r = y[None, :, :] - x[:, None, :]
    d = _det3_cols(r[..., 0], r[..., 1], r[..., 2],
                   dx[:, None, 0], dx[:, None, 1], dx[:, None, 2],
                   dy[None, :, 0], dy[None, :, 1], dy[None, :, 2])
    n2 = np.sum(r * r, axis=-1)
    return d / (FOUR_PI * n2 * np.sqrt(n2))


def _det3_and_dist6(z, dz, w, dw, conj):
    """det3(z-w, dz, dw), conjugated when conj, and ||z-w||^6 on the pair
    grid of complex clouds (n, 3) and (m, 3)."""
    c = 0.5 * (z.mean(axis=0) + w.mean(axis=0))
    left = np.concatenate([np.cross(z - c, dz), dz], axis=1)
    right = np.concatenate([dw, np.cross(w - c, dw)], axis=1)
    if conj:
        left, right = left.conj(), right.conj()
    det = left @ right.T
    # Each difference x_i - y_j comes from the rank-2 product
    # [x, 1] @ [1, -y]: both products are exact, so every entry is the
    # difference rounded once, as np.subtract.outer gives it, but without
    # a ufunc call per row.
    zr = np.concatenate([z.real, z.imag], axis=1)
    wr = np.concatenate([w.real, w.imag], axis=1)
    xs = np.ones((zr.shape[0], 2))
    ys = np.ones((2, wr.shape[0]))
    diff = np.empty(det.shape)
    n2 = np.zeros(det.shape)
    for k in range(6):
        xs[:, 0] = zr[:, k]
        ys[1] = -wr[:, k]
        np.matmul(xs, ys, out=diff)
        diff *= diff
        n2 += diff
    dist6 = np.multiply(n2, n2, out=diff)
    dist6 *= n2
    return det, dist6


def bm_grid(z, dz, w, dw):
    """conj(det3(z-w, dz, dw)) / ||z-w||^6 on the pair grid (no C3 factor)."""
    det, dist6 = _det3_and_dist6(z, dz, w, dw, conj=True)
    det /= dist6
    return det


def clink_grid(z, dz, w, dw):
    """|det3(z-w, dz, dw)|^2 / ||z-w||^6 on the pair grid (no C3 factor)."""
    det, dist6 = _det3_and_dist6(z, dz, w, dw, conj=False)
    out = np.square(det.real)
    out += np.square(det.imag)
    out /= dist6
    return out


def min_dist(a, b):
    """Minimum pairwise euclidean distance between point clouds (n,k), (m,k),
    over blocks of rows of a: each difference array holds about 32k point
    pairs (one row of a when b is larger), not n*m."""
    step = max(1, 32768 // max(len(b), 1))
    best = np.inf
    for i in range(0, len(a), step):
        d = a[i:i + step, None, :] - b[None, :, :]
        best = min(best, np.min(np.sum(d * d, axis=-1)))
    return float(np.sqrt(best))


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
    """
    n, m = p1.shape[0], p2.shape[0]
    a = p1
    b = np.roll(p1, -1, axis=0)
    c = p2
    d = np.roll(p2, -1, axis=0)
    da1 = d1
    db1 = np.roll(d1, -1)
    dc2 = d2
    dd2 = np.roll(d2, -1)

    r = b - a            # (n, 2)
    s = d - c            # (m, 2)
    denom = r[:, None, 0] * s[None, :, 1] - r[:, None, 1] * s[None, :, 0]
    ca = c[None, :, :] - a[:, None, :]   # (n, m, 2)
    t_num = ca[..., 0] * s[None, :, 1] - ca[..., 1] * s[None, :, 0]
    u_num = ca[..., 0] * r[:, None, 1] - ca[..., 1] * r[:, None, 0]

    scale = (np.linalg.norm(r, axis=1)[:, None] * np.linalg.norm(s, axis=1)[None, :])
    parallel = np.abs(denom) <= 1e-12 * scale
    # parallel pairs get the finite out-of-range parameter 2, which is
    # neither inside nor on a boundary and keeps the depth arithmetic finite
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(parallel, 2.0, t_num / denom)
        u = np.where(parallel, 2.0, u_num / denom)

    eps = 1e-9
    inside = (t > eps) & (t < 1 - eps) & (u > eps) & (u < 1 - eps)
    boundary = ((np.abs(t) <= eps) | (np.abs(t - 1) <= eps)
                | (np.abs(u) <= eps) | (np.abs(u - 1) <= eps))

    # parallel segments are only a problem if their lines nearly coincide
    # and the parameter ranges overlap; detect via the distance of c to
    # the line through a,b when denom vanished.
    par_risk = parallel & (np.abs(t_num) <= 1e-9 * scale)

    degenerate = int(np.any(boundary) or np.any(par_risk))

    depth1 = da1[:, None] + t * (db1 - da1)[:, None]
    depth2 = dc2[None, :] + u * (dd2 - dc2)[None, :]
    near_depth = inside & (np.abs(depth1 - depth2) <= 1e-12)
    if np.any(near_depth):
        degenerate = 1
    counted = inside & ~near_depth

    over = np.where(depth1 > depth2, 1.0, -1.0)
    total = float(np.sum(np.where(counted, np.sign(denom) * over, 0.0)))
    return total, degenerate
