"""Spatial model: PPP deployment on a periodic window, nearest-BS
association and the periodic Voronoi cells of the BSs.

The analysis lives on the infinite plane.  Simulations approximate it by
a square window whose opposite edges are identified, a torus of side L =
2 half_width with no edge (the toroidal edge correction of Baddeley,
Rubak and Turner, Spatial Point Patterns, 2015): every BS's cell is
evaluated, at minimum-image distances.  qhull triangulates without
pre-merging facets (DELAUNAY_OPTIONS), which is faster and gives the same
triangles on general-position input; on the rare near-degenerate layouts
where that fails, it triangulates again with scipy's default options,
which merge.

scipy.spatial is imported inside the functions that call it, so code
that never simulates (the closed forms) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import number

# default_window: expected base stations on the torus
DEFAULT_EXPECTED_BS = 1527.0

# periodic_voronoi: width of the strip of copies, in mean cell radii (at 6,
# 10 of 400 stock layouts failed its test and took the 7x dearer tiling)
VORONOI_STRIP_CELL_RADII = 8.0

# qhull options of the triangulation: scipy's defaults for 2-D Delaunay
# plus Q0, which skips the pre-merging of nearly coplanar facets (about an
# eighth of a stock triangulation's time).  qhull then raises (QH6115,
# QH6136) on some near-degenerate layouts (tight clusters, jittered
# lattices), and those are triangulated again with the defaults.
DELAUNAY_OPTIONS = "Qbb Qc Qz Q12 Q0"


@dataclass(frozen=True)
class Window:
    """Square window [-half_width, half_width]^2 in meters, its opposite
    edges identified: a torus of side `period` = 2 half_width."""

    half_width: float

    def __post_init__(self):
        object.__setattr__(self, "half_width",
                           number(self.half_width, "half_width", 0.0, strict=True))

    @property
    def period(self):
        return 2.0 * self.half_width

    @property
    def area(self):
        return self.period ** 2


def default_window(params):
    """Window sized to hold DEFAULT_EXPECTED_BS base stations in expectation."""
    return Window(half_width=math.sqrt(DEFAULT_EXPECTED_BS / (4.0 * params.total_intensity)))


def sample_ppp(intensity, window, rng):
    """Homogeneous PPP on the window: Poisson count, i.i.d. uniform positions.

    Returns an (n, 2) array.  Deterministic given the generator state;
    intensity 0 gives an empty array.
    """
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    n = int(rng.poisson(intensity * window.area))
    return rng.uniform(-window.half_width, window.half_width, size=(n, 2))


@dataclass
class Association:
    """Nearest-BS association of every user, and each BS's user count.

    serving[u] is the global BS index (tiers concatenated in order) of
    user u's nearest BS.  An exact distance tie (probability zero, but
    possible with constructed inputs) goes to one of the equidistant BSs:
    the one the KD-tree query returns, which is the same for identical
    inputs but not necessarily the lowest index.
    """

    serving: np.ndarray
    counts: np.ndarray


def associate(bs_xy, user_xy):
    """Attach each user to its nearest BS; bs_xy holds every tier's BSs in global order."""
    n_bs = len(bs_xy)
    if n_bs == 0:
        raise ValueError("association requires at least one base station")
    from scipy.spatial import cKDTree

    serving = cKDTree(bs_xy).query(user_xy)[1]
    return Association(serving=serving, counts=np.bincount(serving, minlength=n_bs))


@dataclass(frozen=True)
class PeriodicVoronoi:
    """The Voronoi cells of points on a window's torus.

    Cell b is the fan of triangles (sites[b], _first[k], _second[k]) of
    area _area[k], for k in _fans[_start[b]:_start[b + 1]], the pieces of
    its boundary; each runs counterclockwise from the complex point
    _first[k] to _second[k], which may lie outside the window.  areas[b]
    sums them.  The fans of a cell come in no particular order: sample
    orders those of the cells it is asked for.
    """

    sites: np.ndarray
    areas: np.ndarray
    window: Window
    _start: np.ndarray = field(repr=False)
    _fans: np.ndarray = field(repr=False)
    _first: np.ndarray = field(repr=False)
    _second: np.ndarray = field(repr=False)
    _area: np.ndarray = field(repr=False)

    def sample(self, cells, u):
        """Uniform points in cells, one per entry of the index array `cells`.

        u has a shape that cells broadcasts to, plus a last axis of three
        uniforms in [0, 1): the first picks a fan triangle with probability
        proportional to its area, the other two place the point in it by
        the square-root rule.  Returns an array of shape u.shape[:-1] + (2,)
        of points in the window: a coordinate past an edge is moved by one
        period, exactly.  Each cell's fans are ordered counterclockwise from
        the angle -pi and summed from zero, so a point depends only on its
        cell and its uniforms, not on the other cells asked for.  A cell
        without a fan (a point that qhull left out of the triangulation, as
        it can in a tight cluster; its area is 0) gets NaN points.
        """
        cells = np.asarray(cells)
        row = np.broadcast_to(np.arange(cells.size).reshape(cells.shape), u.shape[:-1])
        cells = cells.ravel()
        # one row per entry of cells: its fans, then padding up to the
        # longest, which gets the angle inf (so it sorts last) and no area
        start = self._start[cells]
        count = self._start[cells + 1] - start
        column = np.arange(max(count.max(initial=0), 1))
        pad = column >= count[:, None]
        fans = self._fans[np.where(pad, 0, start[:, None] + column)]
        site = self.sites.view(complex)[:, 0][cells]
        angle = np.angle(self._first[fans] - site[:, None])
        angle[pad] = np.inf
        fans = np.take_along_axis(fans, np.argsort(angle, axis=1, kind="stable"), axis=1)
        cum = np.cumsum(np.where(pad, 0.0, self._area[fans]), axis=1)
        # the fan whose share of the cell's area holds the target
        target = u[..., 0] * cum[row, -1]
        k = np.minimum(np.count_nonzero(cum[row] <= target[..., None], axis=-1), count[row] - 1)
        fan = fans[row, k]
        s, t = np.sqrt(u[..., 1]), u[..., 2]
        # as complex numbers x + iy, each point is one sum over 1-D arrays
        point = ((1.0 - s) * site[row] + s * (1.0 - t) * self._first[fan]
                 + s * t * self._second[fan])
        # a cell without a fan took k = -1, a fan of another cell
        point = np.where(count[row] > 0, point, complex(np.nan, np.nan))
        # a cell lies within half a period of its site: the shift is exact
        xy = point[..., None].view(float)
        hw = self.window.half_width
        return np.subtract(xy, np.copysign(2.0 * hw, xy), out=xy, where=np.abs(xy) > hw)


def periodic_voronoi(xy, window):
    """Exact Voronoi cells of the points xy (all in the window) on the
    window's torus of side L.

    Points on the right or top edge are taken as those on the left or
    bottom one (sites holds them so moved).  The points are triangulated
    with their copies, shifted by +-L in x, y or both, that lie in a strip
    VORONOI_STRIP_CELL_RADII mean cell radii wide around the window.  A
    triangle whose circumcircle lies in the covered square holds no copy
    of any point, so it is a Delaunay triangle of the periodic points;
    where every triangle that touches a point passes that test and has a
    neighbour across each edge, the cells are exact.  Otherwise all eight
    copies are triangulated (as with a strip L wide), the 3 x 3 tiling,
    exact with no test: a cell lies within L/2 of its point in each
    coordinate, so in [-L, L]^2, where every point's nearest copy is among
    the nine.  RuntimeError if the areas miss the window area.
    """
    xy = np.ascontiguousarray(xy, dtype=float).reshape(-1, 2)
    n = len(xy)
    if n == 0:
        raise ValueError("a tessellation requires at least one point")
    hw, period = window.half_width, window.period
    xy = np.where(xy >= hw, xy - period, xy)
    # points as complex numbers x + iy from here on
    z = xy.view(complex)[:, 0]
    strip = min(VORONOI_STRIP_CELL_RADII * period / math.sqrt(math.pi * n), period)
    owner, first, second = _voronoi_fans(z, window, strip)
    site = z[owner]
    u, v = first - site, np.subtract(second, site, out=site)
    # a zero-length Voronoi edge (four cocircular points) may round below 0
    area = np.maximum(0.5 * (u.real * v.imag - u.imag * v.real), 0.0)
    areas = np.bincount(owner, weights=area, minlength=n)
    if not abs(areas.sum() - window.area) <= 1e-9 * window.area:
        raise RuntimeError(
            f"periodic Voronoi areas sum to {areas.sum()!r}, not the window area {window.area!r}")
    # the fans grouped by cell; the narrowest unsigned key lets numpy radix-sort
    fans = np.argsort(owner.astype(np.min_scalar_type(n - 1)), kind="stable")
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    return PeriodicVoronoi(sites=xy, areas=areas, window=window, _start=start, _fans=fans,
                           _first=first, _second=second, _area=area)


def _voronoi_fans(site, window, strip):
    """(owner, first, second) of the (complex) points site on the window's
    torus, from a Delaunay triangulation of them and their copies within
    strip of the window (with DELAUNAY_OPTIONS, or scipy's defaults where
    qhull cannot triangulate without merging), or from the 3 x 3 tiling
    where that strip fails periodic_voronoi's test: Voronoi edge k of site
    owner[k] runs counterclockwise from first[k] to second[k].
    """
    from scipy.spatial import Delaunay, QhullError

    n, period = len(site), window.period
    reach = window.half_width + strip
    # the sites first, in order (all of them lie in the window), then copies
    shifts = np.array([0, 1, -1, 1j, -1j, 1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j])
    copies = site + period * shifts[:, None]
    z = copies[(np.abs(copies.real) <= reach) & (np.abs(copies.imag) <= reach)]
    points = z.view(float).reshape(-1, 2)
    try:
        tri = Delaunay(points, qhull_options=DELAUNAY_OPTIONS)
    except QhullError:
        tri = Delaunay(points)
    # scipy orders the corners of 2-D triangles counterclockwise
    corners = tri.simplices.astype(np.intp)
    p0, p1, p2 = z[corners.T]
    e1, e2 = p1 - p0, p2 - p0
    cross = 2.0 * (e1.real * e2.imag - e1.imag * e2.real)
    n1, n2 = e1.real * e1.real + e1.imag * e1.imag, e2.real * e2.real + e2.imag * e2.imag
    centre = np.empty_like(p0)
    centre.real = p0.real + (e2.imag * n1 - e1.imag * n2) / cross
    centre.imag = p0.imag + (e1.real * n2 - e2.real * n1) / cross
    # corner i of triangle t owns the Delaunay edge to the next corner; the
    # triangle across it faces corner i + 2, and the dual Voronoi edge runs
    # counterclockwise (seen from the owner) from that triangle's centre to
    # t's.  Only the sites' edges are kept.
    owner = corners.ravel()
    edge = np.flatnonzero(owner < n)
    across = tri.neighbors[:, [2, 0, 1]].ravel()[edge].astype(np.intp)
    triangle = edge // 3
    if strip < period:
        # the circles of the triangles touching a site (each triangle across
        # a site's edge touches it too), with a slack of 2^-30 periods for
        # the rounding of centres, radii and copies; -1 marks the hull
        extent = (np.maximum(np.abs(centre.real), np.abs(centre.imag))
                  + np.abs(centre - p0))[triangle]
        if not ((across >= 0).all() and (extent <= reach - 2.0**-30 * period).all()):
            return _voronoi_fans(site, window, period)
    return owner[edge], centre[across], centre[triangle]
