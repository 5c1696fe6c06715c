import numpy as np
import pytest

import hololink as hl
from hololink import _kernels, report, scenes
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


def _gauss_grid(x, dx, y, dy, origin=None):
    """gauss_grid on the Plucker rows of both clouds about origin, by
    default the centre (mean x + mean y) / 2."""
    if origin is None:
        origin = 0.5 * (x.mean(axis=0) + y.mean(axis=0))
    return _kernels.gauss_grid(x, _kernels.plucker_rows(x, dx, origin, True),
                               y, _kernels.plucker_rows(y, dy, origin, False))


def test_gauss_grid_matches_direct_formula(rng):
    x, dx = _random_cloud(rng, 7)
    y, dy = _random_cloud(rng, 9)
    y += 5.0
    got = _gauss_grid(x, dx, y, dy)
    assert np.max(np.abs(got - _gauss_oracle(x, dx, y, dy))) < 1e-13


def _near_parallel_clouds(gap, seed):
    """The 16 Gauss-Legendre nodes on a unit piece of a line and the same
    nodes moved by gap across it, with velocities 1e-3 apart in direction,
    turned by a random rotation: the closest pairs are gap apart."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    g, _ = np.polynomial.legendre.leggauss(16)
    s = 0.5 * (g + 1.0)
    x = np.stack([s, np.zeros(16), np.zeros(16)], axis=1)
    y = x + [0.0, 0.0, gap]
    dx = np.tile([1.0, 0.0, 0.0], (16, 1))
    dy = np.tile([1.0, 1e-3, 0.0], (16, 1))
    return x @ q.T, dx @ q.T, y @ q.T, dy @ q.T


def _moment_bound(x, dx, y, dy, *origins):
    """eps (|x-o| + |y-o|) |dx| |dy| / (4 pi |y-x|^3) on the pair grid,
    summed over the origins the moments were taken about."""
    eps = np.finfo(float).eps
    lever = sum(np.linalg.norm(x - o, axis=1)[:, None]
                + np.linalg.norm(y - o, axis=1)[None, :] for o in origins)
    speeds = (np.linalg.norm(dx, axis=1)[:, None]
              * np.linalg.norm(dy, axis=1)[None, :])
    n = np.linalg.norm(y[None, :, :] - x[:, None, :], axis=-1)
    return eps * lever * speeds / (4 * np.pi * n ** 3)


# The moment form sums products as large as |p - o| |dp| into a det3 as
# small as the gap times the tilt: its error must stay within a few units
# of eps (|x-o| + |y-o|) |dx| |dy| / (4 pi |y-x|^3), pair by pair.
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("gap", [1.0, 1e-3, 1e-6])
@pytest.mark.parametrize("offset", [0.0, 1.0, 1e3])
def test_gauss_grid_moment_error_bounded_by_lever_over_gap(seed, gap, offset):
    x, dx, y, dy = _near_parallel_clouds(gap, seed)
    direction = np.random.default_rng(seed + 100).normal(size=3)
    origin = 0.5 * (x.mean(axis=0) + y.mean(axis=0))
    origin = origin + offset * direction / np.linalg.norm(direction)
    got = _gauss_grid(x, dx, y, dy, origin)
    err = np.abs(got - _gauss_oracle(x, dx, y, dy))
    assert np.all(err <= 8 * _moment_bound(x, dx, y, dy, origin))


def test_gauss_grid_moments_about_any_origin_match_centred_call(rng):
    x, dx = _random_cloud(rng, 9)
    y, dy = _random_cloud(rng, 11)
    y += 3.0
    centred = _gauss_grid(x, dx, y, dy)
    centre = 0.5 * (x.mean(axis=0) + y.mean(axis=0))
    for origin in (np.zeros(3), centre, rng.normal(size=3) * 50.0):
        got = _gauss_grid(x, dx, y, dy, origin)
        bound = _moment_bound(x, dx, y, dy, origin, centre)
        assert np.all(np.abs(got - centred) <= 8 * bound)


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


def _min_dist_oracle(a, b):
    """Per panel minimum of the pairwise distances, (P,)."""
    return np.linalg.norm(a[:, :, None] - b[:, None, :], axis=-1).min(
        axis=(1, 2))


def test_min_dist_matches_broadcast(rng):
    a = rng.normal(size=(1, 40, 3))
    b = rng.normal(size=(1, 30, 3)) + 2.0
    got = _kernels.min_dist(a, b)
    assert got.shape == (1,)
    assert got == pytest.approx(_min_dist_oracle(a, b), rel=1e-14)
    # 400 x 300 pairs span four row blocks of a; the closest pair is in
    # the last one
    a = rng.normal(size=(3, 400, 6)) + 3.0
    b = rng.normal(size=(3, 300, 6)) - 3.0
    a[:, -1] = b[:, 7] + 1e-3
    got = _kernels.min_dist(a, b)
    assert got == pytest.approx(_min_dist_oracle(a, b), rel=1e-14)
    for p in range(3):
        assert got[p] == _kernels.min_dist(a[p:p + 1], b[p:p + 1])[0]
    # 70 panels of 40 x 30 pairs span three blocks of 27 panels; the
    # closest pair of all is in the last panel of the last block
    a = rng.normal(size=(70, 40, 3)) + 2.0
    b = rng.normal(size=(70, 30, 3)) - 2.0
    a[-1, -1] = b[-1, 5] + 1e-6
    got = _kernels.min_dist(a, b)
    assert np.argmin(got) == 69
    assert got == pytest.approx(_min_dist_oracle(a, b), rel=1e-14)
    for p in range(70):
        assert got[p] == _kernels.min_dist(a[p:p + 1], b[p:p + 1])[0]


def _min_dist_broadcast(a, b):
    """min_dist's broadcast form: the squared coordinate differences of
    every pair, summed one coordinate at a time in coordinate order."""
    diff = a[:, :, None, :] - b[:, None, :, :]
    n2 = diff[..., 0] * diff[..., 0]
    for c in range(1, a.shape[-1]):
        n2 = n2 + diff[..., c] * diff[..., c]
    return np.sqrt(n2.min(axis=(1, 2)))


@pytest.mark.parametrize("shape", [(8, 81, 6), (1500, 9, 3), (3, 400, 6)],
                         ids=["holo_pass", "gauss_pass", "row_blocks"])
def test_min_dist_has_the_bits_of_the_broadcast_form(rng, shape):
    # the shapes of a holo and a Gauss proximity pass, and clouds that span
    # several row blocks; the clouds overlap, so minima come from
    # differences of every size
    for _ in range(3):
        a = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
        b = rng.normal(size=shape) + rng.uniform(-1, 1, size=shape[-1])
        assert np.array_equal(_kernels.min_dist(a, b),
                              _min_dist_broadcast(a, b))


def _l0_disk_nodes(radius, gap, offset):
    """The L0 lines (s, 0, 0) and (0, t, gap), both moved by offset along
    (1, 1, 1), at the 16 x 16 Gauss-Legendre nodes of the polar chart of
    the radius-R parameter disk: one fine panel side of the engine."""
    g, _ = np.polynomial.legendre.leggauss(16)
    r = 0.5 * radius * (g + 1.0)
    phi = np.pi * (g + 1.0)
    params = (r[:, None] * np.exp(1j * phi)[None, :]).ravel()
    base = np.full(3, float(offset))
    c1 = ParamCurve.line(base, (1, 0, 0))
    c2 = ParamCurve.line(base + (0.0, 0.0, gap), (0, 1, 0))
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


def _l0_disk_weights(radius):
    """Jacobian-folded weights of _l0_disk_nodes' 16 x 16 polar rule."""
    g, wg = np.polynomial.legendre.leggauss(16)
    r = 0.5 * radius * (g + 1.0)
    return ((0.5 * radius * wg * r)[:, None] * (np.pi * wg)[None, :]).ravel()


@pytest.mark.parametrize("offset", [0.0, 1e3])
@pytest.mark.parametrize("gap", sorted(_GAP_TOL, reverse=True))
@pytest.mark.parametrize("radius", [40.0, 80.0])
def test_weighted_bm_grid_matches_contracted_grid(radius, gap, offset):
    # The in-kernel sum cancels each det3 after the weighting instead of
    # before, so it may differ from wa @ K @ wb by the grid's own rounding,
    # eps R / gap of each |K|, summed with the weights. Random complex
    # factors, like the form coefficients, break the disk's symmetry, under
    # which a wrong sign on an imaginary part would cancel out.
    z, dz, w, dw = _l0_disk_nodes(radius, gap, offset)
    rng = np.random.default_rng(7)
    wa, wb = (_l0_disk_weights(radius) * rng.uniform(0.5, 1.5, 256)
              * np.exp(2j * np.pi * rng.random(256)) for _ in range(2))
    grid = _kernels.bm_grid(z, dz, w, dw)
    got = _kernels.bm_grid(z, dz, w, dw, wa, wb)
    assert np.shape(got) == ()
    eps = np.finfo(float).eps
    bound = eps * radius / gap * (np.abs(wa) @ np.abs(grid) @ np.abs(wb))
    assert abs(got - wa @ grid @ wb) <= bound


# Values of the engine when it contracted the kernel's pair grid with the
# weights (wa @ K @ wb per panel); the in-kernel sum reassociates that
# contraction and must keep the values to 1e-14 and the panels exactly.
@pytest.mark.parametrize("scene, route, tol, value, panels", [
    ("l0", "holo_integral", 1e-6, -612.0393699980799 + 0j, 322),
    ("pv_lines", "holo_pv", 1e-4, 90.093243581991 + 81.90294871351642j, 66),
    ("pv_lines", "holo_pv", 1e-6, 90.09324355853023 + 81.90294868957304j,
     314),
])
def test_holo_values_keep_the_grid_contraction(scene, route, tol, value,
                                               panels):
    rep = report.compute(getattr(scenes, scene)(), route,
                         hl.QuadConfig(tol=tol))
    assert rep.panels_evaluated == panels
    assert abs(rep.value - value) <= 1e-14 * abs(value)
