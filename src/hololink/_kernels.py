"""Hot pairwise kernels: linking integrands on node grids, distance scans,
and the projected segment-crossing count.

Every kernel has a numpy broadcast implementation (suffix _np) and, when
numba is importable and HOLOLINK_NO_NUMBA is unset, an njit-compiled loop
version bound to the public name. Each path is individually deterministic
(fixed evaluation order, fastmath off), which is what the repeatability
contract needs. Across the two paths, real-arithmetic kernels agree bit for
bit; the complex kernels agree to a few ulps because numpy's SIMD complex
multiply may fuse multiply-adds while the compiled loop does not.
"""

import os

import numpy as np

_DISABLED = os.environ.get("HOLOLINK_NO_NUMBA", "").lower() in ("1", "true", "yes")
HAS_NUMBA = False
if not _DISABLED:
    try:
        from numba import njit
        HAS_NUMBA = True
    except ImportError:
        pass

FOUR_PI = 4.0 * np.pi


# ---------------------------------------------------------------------------
# numpy implementations

def _det3_cols(a0, a1, a2, b0, b1, b2, c0, c1, c2):
    return (a0 * (b1 * c2 - b2 * c1)
            - a1 * (b0 * c2 - b2 * c0)
            + a2 * (b0 * c1 - b1 * c0))


def gauss_grid_np(x, dx, y, dy):
    """Gauss linking integrand det3(y-x, dx, dy) / (4 pi |x-y|^3) on the
    grid of all (i, j) pairs. The y-x ordering is the library's linking
    orientation (standard skew lines -> +1/2, standard Hopf pair -> +1)."""
    r = y[None, :, :] - x[:, None, :]
    d = _det3_cols(r[..., 0], r[..., 1], r[..., 2],
                   dx[:, None, 0], dx[:, None, 1], dx[:, None, 2],
                   dy[None, :, 0], dy[None, :, 1], dy[None, :, 2])
    n2 = np.sum(r * r, axis=-1)
    return d / (FOUR_PI * n2 * np.sqrt(n2))


def bm_grid_np(z, dz, w, dw):
    """conj(det3(z-w, dz, dw)) / ||z-w||^6 on the pair grid (no C3 factor)."""
    r = z[:, None, :] - w[None, :, :]
    d = _det3_cols(r[..., 0], r[..., 1], r[..., 2],
                   dz[:, None, 0], dz[:, None, 1], dz[:, None, 2],
                   dw[None, :, 0], dw[None, :, 1], dw[None, :, 2])
    n2 = np.sum(r.real ** 2 + r.imag ** 2, axis=-1)
    return np.conj(d) / (n2 * n2 * n2)


def clink_grid_np(z, dz, w, dw):
    """|det3(z-w, dz, dw)|^2 / ||z-w||^6 on the pair grid (no C3 factor)."""
    r = z[:, None, :] - w[None, :, :]
    d = _det3_cols(r[..., 0], r[..., 1], r[..., 2],
                   dz[:, None, 0], dz[:, None, 1], dz[:, None, 2],
                   dw[None, :, 0], dw[None, :, 1], dw[None, :, 2])
    n2 = np.sum(r.real ** 2 + r.imag ** 2, axis=-1)
    return (d.real ** 2 + d.imag ** 2) / (n2 * n2 * n2)


def min_dist_np(a, b):
    """Minimum pairwise euclidean distance between point clouds (n,k), (m,k)."""
    d = a[:, None, :] - b[None, :, :]
    return float(np.sqrt(np.min(np.sum(d * d, axis=-1))))


def crossing_sum_np(p1, d1, p2, d2):
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


# public names default to the numpy path
gauss_grid = gauss_grid_np
bm_grid = bm_grid_np
clink_grid = clink_grid_np
min_dist = min_dist_np
crossing_sum = crossing_sum_np


# ---------------------------------------------------------------------------
# numba implementations

if HAS_NUMBA:

    @njit(cache=True, nogil=True)
    def _gauss_grid_nb(x, dx, y, dy):
        n = x.shape[0]
        m = y.shape[0]
        out = np.empty((n, m), dtype=np.float64)
        for i in range(n):
            for j in range(m):
                r0 = y[j, 0] - x[i, 0]
                r1 = y[j, 1] - x[i, 1]
                r2 = y[j, 2] - x[i, 2]
                det = (r0 * (dx[i, 1] * dy[j, 2] - dx[i, 2] * dy[j, 1])
                       - r1 * (dx[i, 0] * dy[j, 2] - dx[i, 2] * dy[j, 0])
                       + r2 * (dx[i, 0] * dy[j, 1] - dx[i, 1] * dy[j, 0]))
                n2 = r0 * r0 + r1 * r1 + r2 * r2
                out[i, j] = det / (FOUR_PI * n2 * np.sqrt(n2))
        return out

    @njit(cache=True, nogil=True)
    def _bm_grid_nb(z, dz, w, dw):
        n = z.shape[0]
        m = w.shape[0]
        out = np.empty((n, m), dtype=np.complex128)
        for i in range(n):
            for j in range(m):
                r0 = z[i, 0] - w[j, 0]
                r1 = z[i, 1] - w[j, 1]
                r2 = z[i, 2] - w[j, 2]
                det = (r0 * (dz[i, 1] * dw[j, 2] - dz[i, 2] * dw[j, 1])
                       - r1 * (dz[i, 0] * dw[j, 2] - dz[i, 2] * dw[j, 0])
                       + r2 * (dz[i, 0] * dw[j, 1] - dz[i, 1] * dw[j, 0]))
                # per-component grouping and reciprocal multiply mirror the
                # numpy path; residual diffs are its fused complex multiplies
                n2 = ((r0.real * r0.real + r0.imag * r0.imag)
                      + (r1.real * r1.real + r1.imag * r1.imag)
                      + (r2.real * r2.real + r2.imag * r2.imag))
                scl = 1.0 / (n2 * n2 * n2)
                out[i, j] = complex(det.real * scl, -det.imag * scl)
        return out

    @njit(cache=True, nogil=True)
    def _clink_grid_nb(z, dz, w, dw):
        n = z.shape[0]
        m = w.shape[0]
        out = np.empty((n, m), dtype=np.float64)
        for i in range(n):
            for j in range(m):
                r0 = z[i, 0] - w[j, 0]
                r1 = z[i, 1] - w[j, 1]
                r2 = z[i, 2] - w[j, 2]
                det = (r0 * (dz[i, 1] * dw[j, 2] - dz[i, 2] * dw[j, 1])
                       - r1 * (dz[i, 0] * dw[j, 2] - dz[i, 2] * dw[j, 0])
                       + r2 * (dz[i, 0] * dw[j, 1] - dz[i, 1] * dw[j, 0]))
                n2 = ((r0.real * r0.real + r0.imag * r0.imag)
                      + (r1.real * r1.real + r1.imag * r1.imag)
                      + (r2.real * r2.real + r2.imag * r2.imag))
                out[i, j] = (det.real * det.real + det.imag * det.imag) / (n2 * n2 * n2)
        return out

    @njit(cache=True, nogil=True)
    def _min_dist_nb(a, b):
        best = np.inf
        for i in range(a.shape[0]):
            for j in range(b.shape[0]):
                acc = 0.0
                for k in range(a.shape[1]):
                    diff = a[i, k] - b[j, k]
                    acc += diff * diff
                if acc < best:
                    best = acc
        return np.sqrt(best)

    @njit(cache=True, nogil=True)
    def _crossing_sum_nb(p1, d1, p2, d2):
        n = p1.shape[0]
        m = p2.shape[0]
        total = 0.0
        degenerate = 0
        eps = 1e-9
        for i in range(n):
            ax, ay = p1[i, 0], p1[i, 1]
            bx, by = p1[(i + 1) % n, 0], p1[(i + 1) % n, 1]
            da = d1[i]
            db = d1[(i + 1) % n]
            rx, ry = bx - ax, by - ay
            rlen = np.sqrt(rx * rx + ry * ry)
            for j in range(m):
                cx, cy = p2[j, 0], p2[j, 1]
                dx_, dy_ = p2[(j + 1) % m, 0], p2[(j + 1) % m, 1]
                dc = d2[j]
                dd = d2[(j + 1) % m]
                sx, sy = dx_ - cx, dy_ - cy
                denom = rx * sy - ry * sx
                cax, cay = cx - ax, cy - ay
                t_num = cax * sy - cay * sx
                u_num = cax * ry - cay * rx
                scale = rlen * np.sqrt(sx * sx + sy * sy)
                if abs(denom) <= 1e-12 * scale:
                    if abs(t_num) <= 1e-9 * scale:
                        degenerate = 1
                    continue
                t = t_num / denom
                u = u_num / denom
                on_boundary = (abs(t) <= eps or abs(t - 1.0) <= eps
                               or abs(u) <= eps or abs(u - 1.0) <= eps)
                if on_boundary:
                    degenerate = 1
                    continue
                if eps < t < 1.0 - eps and eps < u < 1.0 - eps:
                    depth1 = da + t * (db - da)
                    depth2 = dc + u * (dd - dc)
                    if abs(depth1 - depth2) <= 1e-12:
                        degenerate = 1
                        continue
                    sgn = 1.0 if denom > 0 else -1.0
                    if depth1 <= depth2:
                        sgn = -sgn
                    total += sgn
        return total, degenerate

    gauss_grid = _gauss_grid_nb
    bm_grid = _bm_grid_nb
    clink_grid = _clink_grid_nb
    min_dist = _min_dist_nb
    crossing_sum = _crossing_sum_nb
