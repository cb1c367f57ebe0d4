import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomarray.errors import DegenerateConfigurationError
from atomarray.geometry import (LAMBDA, Geometry, Lattice, LatticeTrapSpec,
                                build_bilayer, build_ring,
                                build_square_lattice, build_stack,
                                coordinate_mirrors, min_pair_distance,
                                sample_positions, wannier_width)


def test_single_site_lattice():
    geo = build_square_lattice(1, 1, 1.0)
    assert geo.natoms == 1
    assert np.allclose(geo.positions, 0.0)


def test_two_site_lattice_centered_along_y():
    geo = build_square_lattice(2, 1, np.pi)
    want = np.array([[0.0, -np.pi / 2, 0.0], [0.0, np.pi / 2, 0.0]])
    assert np.allclose(geo.positions, want)


def test_large_lattice_max_distance():
    a = 0.55 * LAMBDA
    geo = build_square_lattice(32, 32, a)
    assert geo.natoms == 1024
    # direct geometric oracle: brute-force max pairwise distance
    d = geo.positions[:, None, :] - geo.positions[None, :, :]
    dmax = np.sqrt((d**2).sum(-1)).max()
    assert np.isclose(dmax, a * 31 * np.sqrt(2), rtol=1e-12)


def test_row_major_site_order():
    a = 1.3
    geo = build_square_lattice(3, 2, a)
    # site (m, n) at (0, m a, n a) up to the centering offset, row-major
    offs = geo.positions[0]
    for m in range(3):
        for n in range(2):
            want = offs + [0.0, m * a, n * a]
            assert np.allclose(geo.positions[2 * m + n], want)


def test_lattice_invalid_args():
    with pytest.raises(ValueError):
        build_square_lattice(0, 3, 1.0)
    with pytest.raises(ValueError):
        build_square_lattice(3, 3, -1.0)


def test_bilayer_minimal():
    geo = build_bilayer(1, 1, 1.0, 0.8)
    assert np.allclose(sorted(geo.positions[:, 0]), [-0.4, 0.4])
    assert set(geo.site_labels) == {0, 1}


def test_stack_counts():
    geo = build_stack(2, 2, 1.0, [0.7, 0.7])
    assert geo.natoms == 12
    assert set(geo.site_labels) == {0, 1, 2}
    xs = np.unique(geo.positions[:, 0])
    assert len(xs) == 3
    assert np.allclose(np.diff(xs), 0.7)


def test_bilayer_storage_configuration():
    # the 20x20x2 storage geometry
    geo = build_bilayer(20, 20, 0.91 * LAMBDA, 0.25 * LAMBDA)
    assert geo.natoms == 800
    assert np.isclose(geo.positions[:, 0].max()
                      - geo.positions[:, 0].min(), 0.25 * LAMBDA)


def test_ring_square():
    geo = build_ring(4, 2.0)
    r = np.linalg.norm(geo.positions[:, 1:], axis=1)
    assert np.allclose(r, 2.0)
    # nearest-neighbor distance of an inscribed square
    d01 = np.linalg.norm(geo.positions[0] - geo.positions[1])
    assert np.isclose(d01, 2.0 * np.sqrt(2))


def test_ring_triangle():
    geo = build_ring(3, 1.7)
    d = np.linalg.norm(geo.positions[0] - geo.positions[1])
    assert np.isclose(d, 1.7 * np.sqrt(3))


def test_ring_invalid():
    with pytest.raises(ValueError):
        build_ring(1, 1.0)


def test_wannier_width_deep_lattice_limit():
    a = 1.0
    w1 = wannier_width(LatticeTrapSpec(a, 1e4))
    w2 = wannier_width(LatticeTrapSpec(a, 1e8))
    assert w2 < w1 < 0.1 * a


def test_wannier_width_fig_value():
    # ell ~ 0.12 a in a ~50 E_R lattice
    assert abs(wannier_width(LatticeTrapSpec(1.0, 50.0)) - 0.12) < 3e-3


def test_wannier_width_s300():
    a = 1.0
    got = wannier_width(LatticeTrapSpec(a, 300.0))
    assert np.isclose(got, 0.076479, atol=1e-5)
    # independent oracle: harmonic expansion of the sinusoidal lattice well.
    # V(y) = s E_R sin^2(pi y / a) with E_R = pi^2/(2 a^2) (m = hbar = 1);
    # ground-state density exp(-y^2 m omega) has 1/e half-width 1/sqrt(omega).
    s = 300.0
    E_R = np.pi**2 / (2 * a**2)
    h = 1e-5
    V = lambda y: s * E_R * np.sin(np.pi * y / a) ** 2
    curvature = (V(h) - 2 * V(0.0) + V(-h)) / h**2
    omega = np.sqrt(curvature)
    assert np.isclose(got, 1.0 / np.sqrt(omega), rtol=1e-6)


def test_sample_zero_widths_is_identity():
    geo = build_square_lattice(3, 3, 1.0)
    rng = np.random.default_rng(0)
    out = sample_positions(geo, rng)
    assert out is geo


def test_sample_variance_matches_half_width():
    geo = build_square_lattice(1, 1, 1.0).with_fluctuation(0.3, 0.1)
    rng = np.random.default_rng(42)
    n = 100_000
    ys = np.array([sample_positions(geo, rng).positions[0, 1]
                   for _ in range(n)])
    # 1/e half-width ell means variance ell^2/2
    var = ys.var()
    want = 0.3**2 / 2
    assert abs(var - want) / want < 0.02


def test_sample_marginal_is_gaussian():
    # KS at 1e5 samples, alpha = 0.01: in-plane marginal matches the
    # Gaussian with 1/e half-width ell (std = ell/sqrt(2))
    from scipy import stats
    ell = 0.25
    geo = build_square_lattice(1, 1, 1.0).with_fluctuation(ell, 0.0)
    rng = np.random.default_rng(7)
    n = 100_000
    ys = np.array([sample_positions(geo, rng).positions[0, 1]
                   for _ in range(n)])
    assert stats.kstest(ys / (ell / np.sqrt(2)), "norm").pvalue > 0.01


def test_sample_determinism():
    geo = build_square_lattice(4, 4, 1.2).with_fluctuation(0.2, 0.05)
    a = sample_positions(geo, np.random.default_rng(123)).positions
    b = sample_positions(geo, np.random.default_rng(123)).positions
    assert np.array_equal(a, b)


def test_sample_degenerate_configuration_error():
    geo = build_square_lattice(2, 1, 1.0).with_fluctuation(0.01, 0.0)
    with pytest.raises(DegenerateConfigurationError):
        sample_positions(geo, np.random.default_rng(0), min_separation=5.0)


def test_resampling_guard_keeps_minimum_distance():
    geo = build_square_lattice(2, 1, 0.5).with_fluctuation(0.45, 0.0)
    rng = np.random.default_rng(5)
    for _ in range(200):
        out = sample_positions(geo, rng, min_separation=0.3)
        assert min_pair_distance(out.positions) >= 0.3


class CountedDraws:
    """A generator that counts its draws."""

    def __init__(self, normal):
        self.draw, self.n = normal, 0

    def normal(self, *args, **kwargs):
        self.n += 1
        return self.draw(*args, **kwargs)


def test_sampling_computes_one_pair_distance_per_draw(monkeypatch):
    # a draw's pair distance is computed once, where its Geometry checks
    # for coincident sites, and read again against min_separation
    import atomarray.geometry as geometry
    disorder = build_square_lattice(10, 10, 0.3 * LAMBDA).with_fluctuation(
        0.1, 0.1)
    guarded = build_square_lattice(2, 1, 0.5).with_fluctuation(0.45, 0.0)
    calls = []

    def counted(pos):
        calls.append(len(pos))
        return min_pair_distance(pos)
    monkeypatch.setattr(geometry, "min_pair_distance", counted)
    draws = CountedDraws(np.random.default_rng(0).normal)
    sample_positions(disorder, draws)
    assert calls == [100] and draws.n == 1
    for _ in range(50):
        sample_positions(guarded, draws, min_separation=0.3)
    assert draws.n > 51
    assert len(calls) == draws.n


def test_sampling_redraws_coincident_sites():
    # the first draw moves atom 0 exactly onto atom 1 (sigma = 1): the
    # sample's Geometry rejects it and the second draw is taken
    geo = Geometry([[0.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    jitter = iter([np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]),
                   np.zeros((2, 3))])
    draws = CountedDraws(lambda *args, **kwargs: next(jitter))
    out = sample_positions(geo, draws, np.sqrt(2.0))
    assert draws.n == 2
    assert np.array_equal(out.positions, geo.positions)


def test_geometry_rejects_coincident_sites():
    with pytest.raises(ValueError):
        Geometry(np.zeros((2, 3)))


def test_json_round_trip():
    geo = build_bilayer(2, 3, 1.1, 0.9).with_fluctuation(0.1, 0.02)
    doc = geo.to_json()
    data = json.loads(doc)
    assert data["units"] == "wavelengths"
    back = Geometry.from_json(doc)
    assert np.allclose(back.positions, geo.positions)
    assert np.array_equal(back.site_labels, geo.site_labels)
    assert np.allclose(back.fluctuation, geo.fluctuation)


@settings(max_examples=25, deadline=None)
@given(nx=st.integers(1, 6), ny=st.integers(1, 6),
       a=st.floats(0.1, 10.0, allow_nan=False))
def test_builders_are_pure(nx, ny, a):
    g1 = build_square_lattice(nx, ny, a)
    g2 = build_square_lattice(nx, ny, a)
    assert np.array_equal(g1.positions, g2.positions)
    assert g1.natoms == nx * ny


@pytest.mark.parametrize("geo, axes", [
    (build_square_lattice(3, 4, 1.0), {0, 1, 2}),
    (build_stack(2, 3, 1.0, [0.4, 0.7]), {1, 2}),
    # an odd ring has no y -> -y image of its atom at phi = 0
    (build_ring(5, 1.0), {0, 2}),
    (build_ring(6, 1.0), {0, 1, 2}),
    (Geometry([[0.1, 0.0, 0.0], [0.0, 0.2, 0.3]]), set()),
    # arrays that are not centred: mirrors through the centroid
    (Geometry(build_square_lattice(3, 4, 1.0).positions + [0.3, 1.0, -2.0]),
     {0, 1, 2}),
    (Geometry(build_ring(5, 1.0).positions + [0.0, 7.5, 0.2]), {0, 2}),
    (Geometry([[0.0, 0.0, 0.0], [0.0, 0.0, 3.1]]), {0, 1, 2}),
])
def test_coordinate_mirrors_permute_the_positions(geo, axes):
    mirrors = coordinate_mirrors(geo.positions)
    assert set(mirrors) == axes
    centroid = geo.positions.mean(axis=0)
    for axis, perm in mirrors.items():
        image = geo.positions.copy()
        image[:, axis] = 2 * centroid[axis] - image[:, axis]
        assert np.allclose(geo.positions[perm], image, rtol=0, atol=1e-12)


def brute_min_pair_distance(pos):
    """The (N, N, 3) reference that the slab loop replaced."""
    diff = pos[:, None, :] - pos[None, :, :]
    d = np.sqrt(np.sum(diff * diff, axis=-1))
    d[np.diag_indices(len(pos))] = np.inf
    return float(d.min())


@pytest.mark.parametrize("n", [2, 5, 127, 128, 129, 300])
def test_min_pair_distance_equals_brute_force(n):
    pos = np.random.default_rng(n).normal(size=(n, 3))
    assert min_pair_distance(pos) == brute_min_pair_distance(pos)


def test_min_pair_distance_memory_is_a_slab():
    import tracemalloc
    pos = np.random.default_rng(0).uniform(0, 100, size=(3000, 3))
    tracemalloc.start()
    try:
        min_pair_distance(pos)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_builders_record_their_lattice():
    sq = build_square_lattice(3, 4, 1.5)
    assert sq.lattice == Lattice(3, 4, 1.5)
    bi = build_bilayer(2, 3, 1.1, 0.9)
    assert bi.lattice == Lattice(2, 3, 1.1, (-0.45, 0.45))
    st_ = build_stack(2, 2, 1.0, [0.4, 0.7])
    assert st_.lattice.layers == tuple(np.array([0.0, 0.4, 1.1]) - 0.5)
    for geo in (sq, bi, st_):
        assert np.array_equal(geo.positions, geo.lattice.sites())
    assert build_ring(5, 1.0).lattice is None
    assert Geometry(sq.positions).lattice is None


def test_lattice_survives_json_and_fluctuation_not_sampling():
    geo = build_stack(2, 3, 1.1, [0.9, 0.4]).with_fluctuation(0.1, 0.02)
    assert geo.lattice == build_stack(2, 3, 1.1, [0.9, 0.4]).lattice
    back = Geometry.from_json(geo.to_json())
    assert back.lattice.nx == 2 and back.lattice.ny == 3
    assert np.allclose(back.lattice.spacing, 1.1, rtol=1e-15)
    assert np.allclose(back.lattice.layers, geo.lattice.layers, rtol=1e-15)
    rng = np.random.default_rng(0)
    assert sample_positions(geo, rng, 0.0) is geo
    assert sample_positions(geo, rng).lattice is None


@pytest.mark.parametrize("positions", [
    build_square_lattice(3, 4, 1.0).positions + [0.0, 1e-6, 0.0],
    build_square_lattice(4, 3, 1.0).positions,
    build_square_lattice(3, 4, 1.0).positions[:-1],
])
def test_positions_contradicting_their_lattice_are_rejected(positions):
    with pytest.raises(ValueError, match="contradict"):
        Geometry(positions, lattice=Lattice(3, 4, 1.0))


def test_lattice_rejects_coincident_layers():
    with pytest.raises(ValueError, match="coincident"):
        Lattice(2, 2, 1.0, (0.3, 0.3))
