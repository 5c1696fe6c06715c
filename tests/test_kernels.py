import numpy as np
import pytest

from hololink import _kernels
from hololink.geometry import ParamCurve


def _random_cloud(rng, n, complex_pts=False):
    pts = rng.normal(size=(n, 3))
    vel = rng.normal(size=(n, 3))
    if complex_pts:
        pts = pts + 1j * rng.normal(size=(n, 3))
        vel = vel + 1j * rng.normal(size=(n, 3))
    return pts, vel


def _gauss_oracle(x, dx, y, dy):
    """Direct formula: det3(y - x, dx, dy) / (4 pi |y - x|^3) on the grid."""
    d = y[None, :, :] - x[:, None, :]
    dxg = np.broadcast_to(dx[:, None, :], d.shape)
    dyg = np.broadcast_to(dy[None, :, :], d.shape)
    det = np.linalg.det(np.stack([d, dxg, dyg], axis=-2))
    n = np.linalg.norm(d, axis=-1)
    return det / (4 * np.pi * n ** 3)


def test_gauss_grid_matches_direct_formula(rng):
    x, dx = _random_cloud(rng, 7)
    y, dy = _random_cloud(rng, 9)
    y += 5.0
    got = _kernels.gauss_grid(x, dx, y, dy)
    assert np.max(np.abs(got - _gauss_oracle(x, dx, y, dy))) < 1e-13


def _det3_and_n2_oracle(z, dz, w, dw):
    d = z[:, None, :] - w[None, :, :]
    dzg = np.broadcast_to(dz[:, None, :], d.shape)
    dwg = np.broadcast_to(dw[None, :, :], d.shape)
    det = np.linalg.det(np.stack([d, dzg, dwg], axis=-2))
    return det, np.sum(d.real ** 2 + d.imag ** 2, axis=-1)


def _bm_oracle(z, dz, w, dw):
    det, n2 = _det3_and_n2_oracle(z, dz, w, dw)
    return np.conj(det) / n2 ** 3


def _clink_oracle(z, dz, w, dw):
    det, n2 = _det3_and_n2_oracle(z, dz, w, dw)
    return np.abs(det) ** 2 / n2 ** 3


def test_bm_grid_matches_direct_formula(rng):
    z, dz = _random_cloud(rng, 6, complex_pts=True)
    w, dw = _random_cloud(rng, 8, complex_pts=True)
    w += 4.0
    got = _kernels.bm_grid(z, dz, w, dw)
    assert np.max(np.abs(got - _bm_oracle(z, dz, w, dw))) < 1e-13


def test_clink_grid_matches_direct_formula(rng):
    z, dz = _random_cloud(rng, 6, complex_pts=True)
    w, dw = _random_cloud(rng, 8, complex_pts=True)
    w += 4.0
    got = _kernels.clink_grid(z, dz, w, dw)
    assert np.max(np.abs(got - _clink_oracle(z, dz, w, dw))) < 1e-12


def test_min_dist_matches_broadcast(rng):
    a = rng.normal(size=(40, 3))
    b = rng.normal(size=(30, 3)) + 2.0
    oracle = float(np.min(np.linalg.norm(a[:, None] - b[None, :], axis=-1)))
    assert _kernels.min_dist(a, b) == pytest.approx(oracle, rel=1e-14)


def _l0_disk_nodes(radius, gap, offset):
    """The L0 lines (s, 0, 0) and (0, t, gap), both moved by offset along
    (1, 1, 1), at the 16 x 16 Gauss-Legendre nodes of the polar chart of
    the radius-R parameter disk: one fine panel side of the engine."""
    g, _ = np.polynomial.legendre.leggauss(16)
    r = 0.5 * radius * (g + 1.0)
    phi = np.pi * (g + 1.0)
    params = (r[:, None] * np.exp(1j * phi)[None, :]).ravel()
    base = np.full(3, float(offset))
    c1 = ParamCurve.line(base, (1, 0, 0), radius=radius)
    c2 = ParamCurve.line(base + (0.0, 0.0, gap), (0, 1, 0), radius=radius)
    return c1.eval_batch(params) + c2.eval_batch(params)


# bound on max|kernel - oracle| / max|oracle| per line gap. It grows as the
# gap shrinks: the centred det3 sums terms as large as the node spread into
# a value as small as the gap. Taking ||z-w||^2 by the expansion
# ||z||^2 + ||w||^2 - 2 Re<z, w> already breaks the gap-1 bound.
_GAP_TOL = {1.0: 1e-14, 1e-3: 1e-12, 1e-6: 1e-9}


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("gap", sorted(_GAP_TOL, reverse=True))
@pytest.mark.parametrize("radius", [40.0, 80.0])
@pytest.mark.parametrize("name, oracle", [("bm_grid", _bm_oracle),
                                          ("clink_grid", _clink_oracle)])
def test_complex_kernels_accurate_on_l0_panel_side(name, oracle, radius, gap,
                                                   offset):
    z, dz, w, dw = _l0_disk_nodes(radius, gap, offset)
    want = oracle(z, dz, w, dw)
    got = getattr(_kernels, name)(z, dz, w, dw)
    assert got.shape == (256, 256)
    assert np.max(np.abs(got - want)) <= _GAP_TOL[gap] * np.max(np.abs(want))


@pytest.mark.parametrize("name, oracle", [("bm_grid", _bm_oracle),
                                          ("clink_grid", _clink_oracle)])
def test_complex_kernel_error_bounded_by_spread_over_gap(name, oracle):
    # Turned off the coordinate axes, the L0 lines put every term of the
    # centred det3 to work: each is as large as the node spread (about R),
    # and they cancel down to the gap. So the error relative to max|kernel|
    # may grow like eps * R / gap, and an uncentred det3 (terms as large as
    # the offset) breaks that bound at offset 1e3.
    eps = np.finfo(float).eps
    for seed in range(4):
        q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
        for radius in (40.0, 80.0):
            for gap in (1.0, 1e-3, 1e-6):
                for offset in (0.0, 1e3):
                    nodes = _l0_disk_nodes(radius, gap, 0.0)
                    z, dz, w, dw = (a @ q.T for a in nodes)
                    z, w = z + offset, w + offset
                    want = oracle(z, dz, w, dw)
                    got = getattr(_kernels, name)(z, dz, w, dw)
                    err = np.max(np.abs(got - want)) / np.max(np.abs(want))
                    assert err <= eps * radius / gap, (seed, radius, gap, offset)
