"""Spatial sampling and association contracts."""

import numpy as np
import pytest
from scipy.spatial import ConvexHull, Voronoi, cKDTree
from scipy.stats import chisquare

from hetnoma import geometry
from hetnoma.geometry import (
    DELAUNAY_OPTIONS,
    Window,
    associate,
    clipped_voronoi,
    default_window,
    sample_ppp,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestWindow:
    def test_geometry(self):
        w = Window(half_width=100.0, margin=20.0)
        assert w.area == 200.0**2
        assert w.inner_half_width == 80.0
        inside = w.contains(np.array([[99.0, 0.0], [0.0, -99.0], [101.0, 0.0]]))
        assert inside.tolist() == [True, True, False]
        inner = w.contains(np.array([[79.0, 0.0], [81.0, 0.0]]), inner=True)
        assert inner.tolist() == [True, False]

    def test_margin_must_fit(self):
        with pytest.raises(ValueError):
            Window(half_width=10.0, margin=10.0)

    def test_default_window_sizing(self):
        from hetnoma.sweeps import table1_params

        p = table1_params()
        w = default_window(p)
        lam = p.total_intensity
        assert w.area * lam >= 2000.0 * (1 - 1e-9)
        assert w.margin == pytest.approx(5.0 / np.sqrt(np.pi * lam))
        assert w.margin < w.half_width


class TestSamplePpp:
    def test_zero_intensity(self):
        w = Window(10.0, 1.0)
        assert len(sample_ppp(0.0, w, rng())) == 0

    def test_determinism(self):
        w = Window(100.0, 10.0)
        a = sample_ppp(0.01, w, rng(42))
        b = sample_ppp(0.01, w, rng(42))
        assert np.array_equal(a, b)

    def test_points_inside_window(self):
        w = Window(25.0, 5.0)
        pts = sample_ppp(0.1, w, rng(7))
        assert w.contains(pts).all()

    def test_poisson_moments(self):
        # area 1e6 m^2 at 5e-4 /m^2: count has mean 500 and variance 500
        w = Window(half_width=500.0, margin=50.0)
        g = rng(123)
        counts = np.array([len(sample_ppp(5e-4, w, g)) for _ in range(10_000)])
        mean_tol = 3.0 * np.sqrt(500.0 / counts.size)
        assert abs(counts.mean() - 500.0) <= mean_tol
        # var of the sample variance of Poisson(lam): (2*lam^2 + lam)/n
        var_tol = 3.0 * np.sqrt((2 * 500.0**2 + 500.0) / counts.size)
        assert abs(counts.var(ddof=1) - 500.0) <= var_tol

    def test_rejects_negative_intensity(self):
        with pytest.raises(ValueError):
            sample_ppp(-1.0, Window(10.0, 1.0), rng())


def users_of(assoc, b):
    """BS b's users in index order, read rank by rank through user_at."""
    return assoc.user_at(b, np.arange(assoc.counts[b]))


class TestAssociate:
    def test_single_bs_takes_all(self):
        bs = np.array([[0.0, 0.0]])
        users = rng(1).uniform(-5, 5, size=(40, 2))
        assoc = associate(bs, users)
        assert (assoc.serving == 0).all()
        assert assoc.counts[0] == 40
        assert len(users_of(assoc, 0)) == 40

    def test_nearest_across_tiers(self):
        bs = np.array([[-10.0, 0.0], [10.0, 0.0]])  # one BS per tier, tiers in order
        users = np.array([[-9.0, 1.0], [8.0, -2.0], [11.0, 0.0]])
        assoc = associate(bs, users)
        assert assoc.serving.tolist() == [0, 1, 1]
        assert assoc.counts.tolist() == [1, 2]
        assert sorted(users_of(assoc, 1).tolist()) == [1, 2]

    def test_equidistant_tie_goes_to_a_nearest_bs(self):
        # all four BSs are at distance 1: any of them may serve, the same
        # one on every call
        bs = np.array([[-1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        users = np.array([[0.0, 0.0]])
        assoc = associate(bs, users)
        assert np.hypot(*(bs[assoc.serving[0]] - users[0])) == 1.0
        assert assoc.counts[assoc.serving[0]] == 1
        assert np.array_equal(associate(bs, users).serving, assoc.serving)

    def test_no_bs_fails(self):
        users = np.zeros((3, 2))
        with pytest.raises(ValueError):
            associate(np.zeros((0, 2)), users)

    @pytest.mark.parametrize("n_bs", [1, 256, 257, 65536, 65537])
    def test_user_lists_match_serving(self, n_bs):
        # the user lists sort uint8 serving keys up to 256 BSs, uint16 up
        # to 65536 and uint32 above; a cluster of users at the last BS puts
        # the widest key in use
        g = rng(n_bs)
        bs_xy = g.uniform(0.0, 1000.0, size=(n_bs, 2))
        user_xy = np.concatenate([g.uniform(0.0, 1000.0, size=(3000, 2)),
                                  bs_xy[-1] + g.uniform(-1e-6, 1e-6, size=(5, 2))])
        g.shuffle(user_xy)
        assoc = associate(bs_xy, user_xy)
        assert assoc.serving.max() == n_bs - 1
        for b in range(n_bs):
            assert np.array_equal(users_of(assoc, b), np.flatnonzero(assoc.serving == b))

    def test_user_lists_with_an_exact_tie(self):
        # user 1 is exactly as far from BS 256 as from BS 3 and joins one
        # of them; user 2 is strictly nearest BS 256
        bs_xy = rng(7).uniform(0.0, 100.0, size=(257, 2))
        bs_xy[3], bs_xy[256] = [999.0, 1000.0], [1001.0, 1000.0]
        user_xy = np.array([[50.0, 50.0], [1000.0, 1000.0], [1000.5, 1000.0], [20.0, 70.0]])
        assoc = associate(bs_xy, user_xy)
        assert assoc.serving[1] in (3, 256)
        assert assoc.serving[2] == 256
        assert np.array_equal(associate(bs_xy, user_xy).serving, assoc.serving)
        for b in range(257):
            assert np.array_equal(users_of(assoc, b), np.flatnonzero(assoc.serving == b))

    def test_matches_brute_force(self):
        g = rng(99)
        for _ in range(50):
            bs_xy = g.uniform(-50, 50, size=(g.integers(2, 60), 2))
            user_xy = g.uniform(-50, 50, size=(30, 2))
            assoc = associate(bs_xy, user_xy)
            d2 = ((user_xy[:, None, :] - bs_xy[None, :, :]) ** 2).sum(-1)
            assert np.array_equal(assoc.serving, d2.argmin(axis=1))

    def test_exact_ties_on_a_grid(self):
        # integer coordinates with duplicate BS positions make exact ties
        # common: every user still joins one of its nearest BSs, the user
        # lists match, and a repeat call gives the same arrays
        g = rng(5)
        bs_xy = g.integers(0, 40, size=(300, 2)).astype(float)
        bs_xy[150:] = bs_xy[:150]
        user_xy = g.integers(0, 40, size=(8000, 2)).astype(float)
        assoc = associate(bs_xy, user_xy)
        d2 = ((user_xy[:, None, :] - bs_xy[None, :, :]) ** 2).sum(-1)
        assert ((d2 == d2.min(axis=1, keepdims=True)).sum(axis=1) > 1).all()
        users = np.arange(len(user_xy))
        assert np.array_equal(d2[users, assoc.serving], d2.min(axis=1))
        assert np.array_equal(assoc.counts, np.bincount(assoc.serving, minlength=len(bs_xy)))
        for b in range(len(bs_xy)):
            assert np.array_equal(users_of(assoc, b), np.flatnonzero(assoc.serving == b))
        again = associate(bs_xy, user_xy)
        assert np.array_equal(again.serving, assoc.serving)
        assert np.array_equal(again.counts, assoc.counts)


def full_mirror_areas(xy, window):
    """Clipped cell areas from a Voronoi diagram of xy and its 8 mirror images.

    The mirrors across both edges at a corner are included too, so that
    every cell of xy is bounded by its own mirrors.  Points on an edge
    coincide with their mirrors there, which this reference cannot take.
    """
    hw = window.half_width
    images = [xy]
    for sx in (-1, 0, 1):
        for sy in (-1, 0, 1):
            if sx or sy:
                image = xy.copy()
                if sx:
                    image[:, 0] = 2.0 * sx * hw - image[:, 0]
                if sy:
                    image[:, 1] = 2.0 * sy * hw - image[:, 1]
                images.append(image)
    vor = Voronoi(np.concatenate(images))
    return np.array([ConvexHull(vor.vertices[vor.regions[vor.point_region[b]]]).volume
                     for b in range(len(xy))])


def record_delaunay(monkeypatch):
    """Record every triangulation asked of scipy.spatial.Delaunay, as
    (qhull_options, the triangulation or the QhullError it raised)."""
    import scipy.spatial

    calls = []
    delaunay = scipy.spatial.Delaunay

    def recording(points, qhull_options=None):
        try:
            tri = delaunay(points, qhull_options=qhull_options)
        except scipy.spatial.QhullError as error:
            calls.append((qhull_options, error))
            raise
        calls.append((qhull_options, tri))
        return tri

    monkeypatch.setattr(scipy.spatial, "Delaunay", recording)
    return calls


class TestClippedVoronoi:
    WINDOW = Window(half_width=1000.0, margin=100.0)

    def points(self, seed, n=300):
        return rng(seed).uniform(-1000.0, 1000.0, size=(n, 2))

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_areas_match_full_mirror_voronoi(self, seed):
        xy = self.points(seed)
        cells = clipped_voronoi(xy, self.WINDOW)
        reference = full_mirror_areas(xy, self.WINDOW)
        assert np.allclose(cells.areas, reference, rtol=1e-9, atol=0.0)
        assert cells.areas.sum() == pytest.approx(self.WINDOW.area, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_few_points_match_full_mirror_voronoi(self, n):
        for seed in range(5):
            xy = self.points(seed, n)
            cells = clipped_voronoi(xy, self.WINDOW)
            reference = full_mirror_areas(xy, self.WINDOW)
            assert np.allclose(cells.areas, reference, rtol=1e-9, atol=0.0)

    def test_stock_density_matches_full_mirror_voronoi(self):
        # 2,000 points, as the default window holds: about 160 edge cells
        # have fans that reach past the window and are clipped
        xy = self.points(9, 2000)
        cells = clipped_voronoi(xy, self.WINDOW)
        reference = full_mirror_areas(xy, self.WINDOW)
        assert np.allclose(cells.areas, reference, rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("inset", [0.0, 1e-9])
    @pytest.mark.parametrize("corner", [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)])
    def test_point_at_a_corner_owns_the_window(self, corner, inset):
        # on a corner, or 1e-9 half widths inside it: no guard's cell
        # reaches the window, and the clipped fans still cover all of it
        xy = np.array([corner]) * self.WINDOW.half_width * (1.0 - inset)
        cells = clipped_voronoi(xy, self.WINDOW)
        assert cells.areas[0] == pytest.approx(self.WINDOW.area, rel=1e-12)

    def test_fan_areas_are_nonnegative(self):
        # points on the corners and edges give clipped pieces that are
        # single points or segments
        xy = self.points(11)
        xy[:8] = self.WINDOW.half_width * np.array(
            [[1, 1], [-1, 1], [-1, -1], [1, -1], [1, 0.3], [-0.2, 1], [-1, -0.7], [0.5, -1]])
        cells = clipped_voronoi(xy, self.WINDOW)
        fans = cells._fans
        assert (cells._area[fans] >= 0.0).all()
        site = xy.view(complex)[np.repeat(np.arange(len(xy)), np.diff(cells._start)), 0]
        u, v = cells._first[fans] - site, cells._second[fans] - site
        assert ((np.conj(u) * v).imag >= 0.0).all()
        assert cells.areas.sum() == pytest.approx(self.WINDOW.area, rel=1e-12)

    @pytest.mark.parametrize("seed", [21, 22, 23])
    def test_unmerged_triangulation_matches_the_defaults(self, monkeypatch, seed):
        # 2,000 points, as the default window holds: without pre-merging,
        # qhull gives the same triangles, every one counterclockwise, and
        # the same areas
        xy = self.points(seed, 2000)
        calls = record_delaunay(monkeypatch)
        cells = clipped_voronoi(xy, self.WINDOW)
        monkeypatch.setattr(geometry, "DELAUNAY_OPTIONS", None)
        defaults = clipped_voronoi(xy, self.WINDOW)
        [(options, tri), (_, tri_defaults)] = calls
        assert options == DELAUNAY_OPTIONS
        assert ({frozenset(t) for t in tri.simplices.tolist()}
                == {frozenset(t) for t in tri_defaults.simplices.tolist()})
        p0, p1, p2 = tri.points[tri.simplices.T]
        e1, e2 = p1 - p0, p2 - p0
        assert (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0] > 0.0).all()
        assert np.allclose(cells.areas, defaults.areas, rtol=1e-12, atol=0.0)

    def test_layout_qhull_cannot_triangulate_unmerged(self, monkeypatch):
        # 50 points within 1e-3 m of each other: without pre-merging qhull
        # raises (QH6115), and the retry with scipy's defaults gives their
        # areas exactly
        g = rng(0)
        xy = g.uniform(-900.0, 900.0, size=2) + g.uniform(-1e-3, 1e-3, size=(50, 2))
        calls = record_delaunay(monkeypatch)
        cells = clipped_voronoi(xy, self.WINDOW)
        assert [(options, type(tri).__name__) for options, tri in calls] == [
            (DELAUNAY_OPTIONS, "QhullError"), (None, "Delaunay")]
        monkeypatch.setattr(geometry, "DELAUNAY_OPTIONS", None)
        assert np.array_equal(clipped_voronoi(xy, self.WINDOW).areas, cells.areas)
        assert cells.areas.sum() == pytest.approx(self.WINDOW.area, rel=1e-9)

    def test_cell_without_a_fan_samples_nan(self):
        # the cluster of the test above: qhull leaves 36 of the 50 points
        # out of the triangulation, so they own no fan and no area; their
        # points are NaN, not points of another cell's fan
        g = rng(0)
        xy = g.uniform(-900.0, 900.0, size=2) + g.uniform(-1e-3, 1e-3, size=(50, 2))
        cells = clipped_voronoi(xy, self.WINDOW)
        fanless = np.diff(cells._start) == 0
        assert fanless.sum() == 36
        assert (cells.areas[fanless] == 0.0).all()
        u = rng(1).random((50, 2, 3))
        points = cells.sample(np.arange(50)[:, None], u)
        assert np.isnan(points[fanless]).all()
        assert self.WINDOW.contains(points[~fanless].reshape(-1, 2)).all()
        owning = np.flatnonzero(~fanless)
        assert np.array_equal(cells.sample(owning[:, None], u[owning]), points[owning])

    def test_single_point_owns_the_window(self):
        cells = clipped_voronoi(np.array([[300.0, -200.0]]), self.WINDOW)
        assert cells.areas[0] == pytest.approx(self.WINDOW.area, rel=1e-12)

    def test_cell_at_the_edge_with_every_point_mirrored(self):
        # 4 mm from the left edge, the corner vertices of the point's cell
        # round to about 2e-10 m outside the window; with every point
        # mirrored the cell is exact anyway and must be accepted
        window = Window(half_width=100.0, margin=100.0 / 3.0)
        cells = clipped_voronoi(np.array([[-99.99595248049636, 53.58249748971292]]), window)
        assert cells.areas[0] == pytest.approx(window.area, rel=1e-12)

    def test_no_points_fails(self):
        with pytest.raises(ValueError):
            clipped_voronoi(np.zeros((0, 2)), self.WINDOW)

    def test_sampled_points_lie_in_their_cells(self):
        xy = self.points(5)
        cells = clipped_voronoi(xy, self.WINDOW)
        owners = np.repeat(np.arange(len(xy)), 20)
        points = cells.sample(owners, rng(6).random((len(owners), 3)))
        assert self.WINDOW.contains(points).all()
        assert np.array_equal(cKDTree(xy).query(points)[1], owners)

    def test_sampling_some_cells_gives_the_rows_of_all(self):
        # a cell's points depend only on its fans and its uniforms: any
        # subset, in any order, gets the same bits as sampling every cell
        xy = self.points(12, 2000)
        cells = clipped_voronoi(xy, self.WINDOW)
        u = rng(13).random((len(xy), 2, 3))
        every = cells.sample(np.arange(len(xy))[:, None], u)
        widest = np.argmax(np.diff(cells._start))
        for subset in (np.arange(0, 2000, 7), np.array([widest]), np.array([1999, 3, 500]),
                       rng(14).choice(2000, 40, replace=False)):
            assert np.array_equal(cells.sample(subset[:, None], u[subset]), every[subset])

    def test_samples_uniform_over_a_cell(self):
        # one point owns the whole window: 40,000 samples over a 4 x 4
        # grid of equal squares, chi-square against uniform
        cells = clipped_voronoi(np.array([[300.0, -200.0]]), self.WINDOW)
        points = cells.sample(np.zeros(40_000, dtype=np.intp), rng(8).random((40_000, 3)))
        square = np.floor((points + 1000.0) / 500.0).astype(int)
        counts = np.bincount(square[:, 0] * 4 + square[:, 1], minlength=16)
        assert chisquare(counts).pvalue > 0.001
