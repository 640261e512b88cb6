"""Spatial model: PPP deployment on a finite window, nearest-BS association
and the window-clipped Voronoi cells of the BSs.

The analysis lives on the infinite plane; simulations truncate it to a
square window and collect statistics only for cells whose base station
lies in an inner region inset by `margin`, so that the interference and
cooperation fields seen by evaluated cells are effectively edge-free.

The clipped cells come from one Delaunay triangulation of the BSs and
three far guard points, which close every BS's cell without owning any
of the window; only the fans of the cells at the window's edge are then
clipped to it.  qhull triangulates without pre-merging facets
(DELAUNAY_OPTIONS), which is faster and gives the same triangles on
general-position input; on the rare near-degenerate layouts where that
fails, it triangulates again with scipy's default options, which merge.

scipy.spatial is imported inside the functions that call it, so code
that never simulates (the closed forms) never loads it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .checks import ConfigError, number

# default_window: expected base stations in the window, inset in mean cell radii
DEFAULT_EXPECTED_BS = 2000.0
DEFAULT_MARGIN_CELL_RADII = 5.0

# clipped_voronoi: circumradius of the three guard points around the
# window's centre, in window half widths
VORONOI_GUARD_HALF_WIDTHS = 8.0

# qhull options of the triangulation: scipy's defaults for 2-D Delaunay
# plus Q0, which skips the pre-merging of nearly coplanar facets (about an
# eighth of a stock triangulation's time).  qhull then raises (QH6115,
# QH6136) on some near-degenerate layouts (tight clusters, jittered
# lattices), and those are triangulated again with the defaults.
DELAUNAY_OPTIONS = "Qbb Qc Qz Q12 Q0"


@dataclass(frozen=True)
class Window:
    """Square observation window [-half_width, half_width]^2 in meters.

    margin is the inset of the inner evaluation region; it must be
    smaller than half_width.
    """

    half_width: float
    margin: float

    def __post_init__(self):
        object.__setattr__(self, "half_width",
                           number(self.half_width, "half_width", 0.0, strict=True))
        object.__setattr__(self, "margin", number(self.margin, "margin", 0.0, strict=True))
        if not self.margin < self.half_width:
            raise ConfigError("margin", "must be less than half_width")

    @property
    def area(self):
        return (2.0 * self.half_width) ** 2

    @property
    def inner_half_width(self):
        return self.half_width - self.margin

    def contains(self, xy, inner=False):
        """Vectorized membership test; xy has shape (n, 2)."""
        bound = self.inner_half_width if inner else self.half_width
        xy = np.asarray(xy)
        return (np.abs(xy[:, 0]) <= bound) & (np.abs(xy[:, 1]) <= bound)


def default_window(params):
    """Window sized to hold DEFAULT_EXPECTED_BS base stations in expectation,
    with an inner-region inset of DEFAULT_MARGIN_CELL_RADII mean cell radii."""
    lam = params.total_intensity
    margin = DEFAULT_MARGIN_CELL_RADII / math.sqrt(math.pi * lam)
    half_width = math.sqrt(DEFAULT_EXPECTED_BS / (4.0 * lam))
    return Window(half_width=half_width, margin=margin)


def sample_ppp(intensity, window, rng):
    """Homogeneous PPP on the window: Poisson count, i.i.d. uniform positions.

    Returns an (n, 2) array.  Deterministic given the generator state;
    intensity 0 gives an empty array.
    """
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    n = int(rng.poisson(intensity * window.area))
    hw = window.half_width
    return rng.uniform(-hw, hw, size=(n, 2))


@dataclass
class Association:
    """Nearest-BS association of every user, plus per-BS user lists.

    serving[u] is the global BS index (tiers concatenated in order) of
    user u's nearest BS.  An exact distance tie (probability zero, but
    possible with constructed inputs) goes to one of the equidistant BSs:
    the one the KD-tree query returns, which is the same for identical
    inputs but not necessarily the lowest index.
    """

    serving: np.ndarray
    counts: np.ndarray
    _order: np.ndarray = field(repr=False)
    _starts: np.ndarray = field(repr=False)

    def user_at(self, bs_index, rank):
        """The user of rank `rank` (in index order) among those of BS bs_index,
        elementwise over arrays of BSs and ranks below their counts (a larger
        rank reads past the BS's user list)."""
        return self._order[self._starts[bs_index] + rank]


def associate(bs_xy, user_xy):
    """Attach each user to its nearest BS; bs_xy holds every tier's BSs in global order."""
    n_bs = len(bs_xy)
    if n_bs == 0:
        raise ValueError("association requires at least one base station")
    from scipy.spatial import cKDTree

    serving = cKDTree(bs_xy).query(user_xy)[1]
    counts = np.bincount(serving, minlength=n_bs)
    # the narrowest unsigned key lets numpy radix-sort; same stable order
    order = np.argsort(serving.astype(np.min_scalar_type(n_bs - 1)), kind="stable")
    starts = np.zeros(n_bs + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    return Association(serving=serving, counts=counts, _order=order, _starts=starts)


@dataclass(frozen=True)
class ClippedVoronoi:
    """The Voronoi cells of points in a window, clipped to the window.

    Cell b is the fan of triangles (sites[b], _first[k], _second[k]) of
    area _area[k], for k in _fans[_start[b]:_start[b + 1]], the pieces of
    its clipped boundary; each runs counterclockwise from the complex
    point _first[k] to _second[k].  areas[b] sums them.  The fans of a
    cell come in no particular order: sample orders those of the cells it
    is asked for.
    """

    sites: np.ndarray
    areas: np.ndarray
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
        the square-root rule.  Returns an array of shape u.shape[:-1] + (2,).
        Each cell's fans are ordered counterclockwise from the angle -pi
        and summed from zero, so a point depends only on its cell and its
        uniforms, not on the other cells asked for.  A cell without a fan
        (a point that qhull left out of the triangulation, as it can in a
        tight cluster; its area is 0) gets NaN points.
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
        return point[..., None].view(float)


def clipped_voronoi(xy, window):
    """Exact window-clipped Voronoi cells of the points xy (all inside the window).

    One Delaunay triangulation of the points and three guard points gives
    every cell's vertices as triangle circumcentres.  The guards sit at
    the corners of an equilateral triangle of circumradius
    VORONOI_GUARD_HALF_WIDTHS half widths around the window's centre.
    Every window point is within 2*sqrt(2) half widths of its nearest
    point but at least 8 - sqrt(2) from each guard, so no guard's cell
    reaches into the window, and each point's cell meets the window in
    exactly its clipped cell.  The guards' triangle has inradius 4 half
    widths, so every point lies inside the hull and has a bounded cell.
    (Four guards at square corners would be cocircular, which slows the
    triangulation.)  Fans whose two Voronoi vertices lie in the window
    are kept as they are; the others are clipped to the window and split
    again into fans from the point (see _clip_fans).  RuntimeError if the
    areas miss the window area.
    """
    xy = np.ascontiguousarray(xy, dtype=float).reshape(-1, 2)
    n = len(xy)
    if n == 0:
        raise ValueError("a tessellation requires at least one point")
    hw = window.half_width
    # points as complex numbers x + iy from here on
    z, owner, first, second, inside = _voronoi_fans(xy.view(complex)[:, 0], hw)
    # the guards' fans are dropped, the fans that leave the window clipped
    edge = np.flatnonzero(~inside & (owner < n))
    row, edge_first, edge_second = _clip_fans(z[owner[edge]], first[edge], second[edge], hw)
    owner = np.concatenate([owner[inside], owner[edge[row]]])
    first = np.concatenate([first[inside], edge_first])
    second = np.concatenate([second[inside], edge_second])
    site = z[owner]
    u, v = first - site, np.subtract(second, site, out=site)
    # a zero-length Voronoi edge (four cocircular points) or a clipped
    # piece that is a single segment may round below 0
    area = np.maximum(0.5 * (u.real * v.imag - u.imag * v.real), 0.0)
    areas = np.bincount(owner, weights=area, minlength=n)
    if not abs(areas.sum() - window.area) <= 1e-9 * window.area:
        raise RuntimeError(
            f"clipped Voronoi areas sum to {areas.sum()!r}, not the window area {window.area!r}")
    # the fans grouped by cell; the narrowest unsigned key lets numpy radix-sort
    fans = np.argsort(owner.astype(np.min_scalar_type(n - 1)), kind="stable")
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    return ClippedVoronoi(sites=xy, areas=areas, _start=start, _fans=fans,
                          _first=first, _second=second, _area=area)


def _voronoi_fans(site, half_width):
    """Voronoi edges of the (complex) points site, from a Delaunay
    triangulation of them and three guards (with DELAUNAY_OPTIONS, or
    scipy's defaults where qhull cannot triangulate without merging).

    Returns (z, owner, first, second, inside): z holds the sites, then the
    guards.  Voronoi edge k of cell owner[k] (an index into z) runs
    counterclockwise from first[k] to second[k], and inside[k] is True
    where owner[k] is a site and both ends lie in the window.
    """
    from scipy.spatial import Delaunay, QhullError

    guards = (VORONOI_GUARD_HALF_WIDTHS * half_width) * np.exp(
        1j * (np.pi / 2.0 + (2.0 * np.pi / 3.0) * np.arange(3)))
    z = np.concatenate([site, guards])
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
    in_window = (np.abs(centre.real) <= half_width) & (np.abs(centre.imag) <= half_width)
    # corner i of triangle t owns the Delaunay edge to the next corner; the
    # triangle across it faces corner i + 2, and the dual Voronoi edge runs
    # counterclockwise (seen from the owner) from that triangle's centre to
    # t's.  Only guards lie on the hull, so for a site that triangle exists.
    across = tri.neighbors[:, [2, 0, 1]].astype(np.intp).ravel()
    owner = corners.ravel()
    inside = (owner < len(site)) & in_window[across] & np.repeat(in_window, 3)
    return z, owner, centre[across], np.repeat(centre, 3), inside


def _clip_fans(s, a, b, half_width):
    """The fans (s, a, b) of complex points (site, first, second), clipped
    to the window and split again into fans from the site.

    Each site lies in the window and each fan is counterclockwise, so a
    clipped fan is a convex polygon with its site as one vertex.  The
    others are, in counterclockwise order around the site: first, or
    where the ray towards it leaves the window; the points where the
    segment first-second crosses the window's boundary; the window's
    corners inside the fan; and second, or where the ray towards it
    leaves the window.  Returns (row, first, second) of the new fans: fan
    k lies in input fan row[k].
    """
    m = len(s)
    step = np.concatenate([a - s, b - s, b - a])
    t_in, t_out = _clip_params(np.concatenate([s, s, a]), step, half_width)
    t_in, t_out, step = t_in[2 * m:], t_out.reshape(3, m), step.reshape(3, m)
    # one row per candidate vertex, one column per fan
    vertex = np.empty((8, m), dtype=complex)
    vertex[0] = s + t_out[0] * step[0]
    vertex[1] = a + np.minimum(t_in, 1.0) * step[2]
    vertex[2] = a + t_out[2] * step[2]
    vertex[3:7] = corner = half_width * np.array([[1 + 1j], [-1 + 1j], [-1 - 1j], [1 - 1j]])
    vertex[7] = s + t_out[1] * step[1]
    # for complex u and v, the imaginary part of conj(u) * v is their cross
    # product: w holds each vertex's angle from the ray towards first
    w = np.conj(step[0]) * (vertex - s)
    # which middle vertices exist: where a-b enters and leaves the window,
    # and the corners in the closed triangle, except one the site sits on
    exists = np.empty((6, m), dtype=bool)
    meets = t_in <= t_out[2]
    exists[0], exists[1] = meets & (t_in > 0.0), meets & (t_out[2] < 1.0)
    exists[2:] = (corner != s) & (w[3:7].imag >= 0.0)
    for p, q in ((a, b), (b, s)):
        exists[2:] &= (np.conj(q - p) * (corner - p)).imag >= 0.0
    # the middle vertices in angle order; the ray ends go first and last,
    # absent vertices after them
    key = np.angle(w)
    key[0], key[7] = -4.0, 4.0
    key[1:7][~exists] = np.inf
    vertex = vertex.ravel()[np.argsort(key, axis=0) * m + np.arange(m)]
    n_fans = 1 + exists.sum(axis=0)
    used = (np.arange(7)[:, None] < n_fans).T
    return np.repeat(np.arange(m), n_fans), vertex[:-1].T[used], vertex[1:].T[used]


def _clip_params(start, step, half_width):
    """(t_in, t_out): where the segments start + t*step, 0 <= t <= 1, of
    complex points enter and leave the window; t_in > t_out where one
    misses it (Liang-Barsky)."""
    # x and y of every segment side by side
    p, d = start.view(float), step.view(float)
    moves = d != 0.0
    side = np.copysign(half_width, d)
    # a coordinate that does not move must already lie in the window
    enter = np.divide(-side - p, d, out=np.where(np.abs(p) > half_width, np.inf, 0.0),
                      where=moves)
    leave = np.divide(side - p, d, out=np.ones(len(p)), where=moves)
    return (np.maximum(np.maximum(enter[::2], enter[1::2]), 0.0),
            np.minimum(np.minimum(leave[::2], leave[1::2]), 1.0))
