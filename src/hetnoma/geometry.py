"""Spatial model: PPP deployment on a finite window, nearest-BS association
and the window-clipped Voronoi cells of the BSs.

The analysis lives on the infinite plane; simulations truncate it to a
square window and collect statistics only for cells whose base station
lies in an inner region inset by `margin`, so that the interference and
cooperation fields seen by evaluated cells are effectively edge-free.

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

# clipped_voronoi: first width of the mirrored strip along each window
# edge, in mean cell radii, and the relative slack of its exactness check
VORONOI_STRIP_CELL_RADII = 5.0
VORONOI_EDGE_RTOL = 1e-12


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

    Cell b is the fan of triangles (sites[b], first[k], second[k]) over its
    Voronoi edges k in [_start[b], _start[b + 1]), in counterclockwise
    order; areas[b] sums their areas.  _cum holds 0 and then the running
    sum of all fan areas in that order.
    """

    sites: np.ndarray
    areas: np.ndarray
    _start: np.ndarray = field(repr=False)
    _cum: np.ndarray = field(repr=False)
    _first: np.ndarray = field(repr=False)
    _second: np.ndarray = field(repr=False)

    def sample(self, cells, u):
        """Uniform points in cells, one per entry of the index array `cells`.

        u has the shape of cells plus a last axis of three uniforms in
        [0, 1): the first picks a fan triangle with probability
        proportional to its area, the other two place the point in it by
        the square-root rule.  Returns an array of shape cells.shape + (2,).
        """
        start, stop = self._start[cells], self._start[cells + 1]
        low, high = self._cum[start], self._cum[stop]
        target = low + u[..., 0] * (high - low)
        k = np.clip(np.searchsorted(self._cum, target, side="right") - 1, start, stop - 1)
        s = np.sqrt(u[..., 1])[..., None]
        t = u[..., 2][..., None]
        return ((1.0 - s) * self.sites[cells] + s * (1.0 - t) * self._first[k]
                + s * t * self._second[k])


def _mirrored(xy, half_width, strip):
    """xy, then its points within `strip` of each window edge reflected across that edge."""
    parts = [xy]
    for axis in (0, 1):
        for side in (-1.0, 1.0):
            near = xy[side * xy[:, axis] > half_width - strip]
            near[:, axis] = 2.0 * side * half_width - near[:, axis]
            parts.append(near)
    return np.concatenate(parts)


def clipped_voronoi(xy, window):
    """Exact window-clipped Voronoi cells of the points xy (all inside the window).

    Points within a strip of VORONOI_STRIP_CELL_RADII mean cell radii of
    an edge are mirrored across it, and one Delaunay triangulation
    of the points and their mirrors gives every cell's vertices as
    triangle circumcentres.  Inside the window a mirror is never nearer than
    its original, so a computed cell equals its clipped cell once the cell
    is bounded and all its vertices lie in the window.  That is checked
    for every cell; when it fails, the strip is doubled and the
    triangulation redone.  Once every point is mirrored across every edge,
    the cells are exact by construction (the bisector of a point and its
    mirror is that edge), so only boundedness is checked; a vertex test
    there would reject vertices that rounding puts just outside the window.
    RuntimeError if the areas miss the window area.
    """
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    n = len(xy)
    if n == 0:
        raise ValueError("a tessellation requires at least one point")
    hw = window.half_width
    strip = VORONOI_STRIP_CELL_RADII * math.sqrt(window.area / (math.pi * n))
    while True:
        every_point = strip > 2.0 * hw
        fans = _voronoi_fans(_mirrored(xy, hw, strip), n, None if every_point else hw)
        if fans is not None:
            break
        if every_point:
            raise RuntimeError("clipped Voronoi cells are unbounded with every point mirrored")
        strip *= 2.0
    owner, first, second = fans
    # each cell's fans counterclockwise from the angle -pi, an order that
    # depends on the cells only, not on the triangulation's numbering
    dx, dy = first[:, 0] - xy[owner, 0], first[:, 1] - xy[owner, 1]
    order = np.argsort(owner * 8.0 + np.arctan2(dy, dx))
    owner, first, second = owner[order], first[order], second[order]
    dx, dy = dx[order], dy[order]
    area = 0.5 * (dx * (second[:, 1] - xy[owner, 1]) - dy * (second[:, 0] - xy[owner, 0]))
    # a zero-length Voronoi edge (four cocircular points, as a point and
    # its mirror make with a neighbour and its mirror) may round below 0
    np.maximum(area, 0.0, out=area)
    areas = np.bincount(owner, weights=area, minlength=n)
    if not abs(areas.sum() - window.area) <= 1e-9 * window.area:
        raise RuntimeError(
            f"clipped Voronoi areas sum to {areas.sum()!r}, not the window area {window.area!r}")
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    cum = np.concatenate([[0.0], np.cumsum(area)])
    return ClippedVoronoi(sites=xy, areas=areas, _start=start, _cum=cum,
                          _first=first, _second=second)


def _voronoi_fans(points, n, half_width):
    """Voronoi edges of points[:n] from a Delaunay triangulation of all points.

    Returns (owner, first, second): Voronoi edge k of cell owner[k] runs
    counterclockwise from first[k] to second[k].  Returns None when a cell
    of points[:n] is unbounded or, unless half_width is None, has a vertex
    outside the window.
    """
    from scipy.spatial import Delaunay

    tri = Delaunay(points)
    simplices, neighbors = tri.simplices.copy(), tri.neighbors.copy()
    p = points[simplices]
    e1, e2 = p[:, 1] - p[:, 0], p[:, 2] - p[:, 0]
    cross = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    # counterclockwise vertex order; neighbors[t, i] faces vertex i
    cw = cross < 0
    simplices[cw] = simplices[cw][:, [0, 2, 1]]
    neighbors[cw] = neighbors[cw][:, [0, 2, 1]]
    e1[cw], e2[cw], cross = e2[cw], e1[cw], np.abs(cross)
    n1, n2 = (e1 * e1).sum(axis=1), (e2 * e2).sum(axis=1)
    centre = p[:, 0] + np.stack([e2[:, 1] * n1 - e1[:, 1] * n2,
                                 e1[:, 0] * n2 - e2[:, 0] * n1], axis=1) / (2.0 * cross)[:, None]
    # corner i of triangle t owns the Delaunay edge to the next corner; the
    # triangle across it faces corner i + 2, and the dual Voronoi edge runs
    # counterclockwise (seen from the owner) from that triangle's centre to t's
    t, i = np.nonzero(simplices < n)
    across = neighbors[t, (i + 2) % 3]
    if (across < 0).any():
        return None
    if half_width is not None and not (
            np.abs(centre[t]) <= half_width * (1.0 + VORONOI_EDGE_RTOL)).all():
        return None
    return simplices[t, i], centre[across], centre[t]
