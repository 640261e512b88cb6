"""Spatial model: PPP deployment on a finite window, nearest-BS association
and the window-clipped Voronoi cells of the BSs.

The analysis lives on the infinite plane; simulations truncate it to a
square window and collect statistics only for cells whose base station
lies in an inner region inset by `margin`, so that the interference and
cooperation fields seen by evaluated cells are effectively edge-free.

The clipped cells come from one Delaunay triangulation of the BSs and
three far guard points, which close every BS's cell without owning any
of the window; only the fans of the cells at the window's edge are then
clipped to it.

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

    Cell b is the fan of triangles (sites[b], first[k], second[k]) over the
    pieces k in [_start[b], _start[b + 1]) of its clipped boundary, in
    counterclockwise order; areas[b] sums their areas.  _cum holds 0 and
    then the running sum of all fan areas in that order.
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
    site = xy.view(complex)[:, 0]
    owner, first, second = _voronoi_fans(site, hw)
    # a fan lies in the window where both its Voronoi vertices do
    inside = ((np.abs(first.real) <= hw) & (np.abs(first.imag) <= hw)
              & (np.abs(second.real) <= hw) & (np.abs(second.imag) <= hw))
    edge = np.flatnonzero(~inside)
    row, edge_first, edge_second = _clip_fans(site[owner[edge]], first[edge], second[edge], hw)
    owner = np.concatenate([owner[inside], owner[edge[row]]])
    first = np.concatenate([first[inside], edge_first])
    second = np.concatenate([second[inside], edge_second])
    # each cell's fans counterclockwise from the angle -pi, an order that
    # depends on the cells only, not on the triangulation's numbering
    u = first - site[owner]
    order = np.argsort(owner * 8.0 + np.angle(u))
    owner, first, second, u = owner[order], first[order], second[order], u[order]
    v = second - site[owner]
    area = 0.5 * (u.real * v.imag - u.imag * v.real)
    # a zero-length Voronoi edge (four cocircular points) or a clipped
    # piece that is a single segment may round below 0
    np.maximum(area, 0.0, out=area)
    areas = np.bincount(owner, weights=area, minlength=n)
    if not abs(areas.sum() - window.area) <= 1e-9 * window.area:
        raise RuntimeError(
            f"clipped Voronoi areas sum to {areas.sum()!r}, not the window area {window.area!r}")
    start = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(owner, minlength=n), out=start[1:])
    cum = np.concatenate([[0.0], np.cumsum(area)])
    return ClippedVoronoi(sites=xy, areas=areas, _start=start, _cum=cum,
                          _first=first.view(float).reshape(-1, 2),
                          _second=second.view(float).reshape(-1, 2))


def _voronoi_fans(site, half_width):
    """Voronoi edges of the (complex) points site, from a Delaunay
    triangulation of them and three guards.

    Returns (owner, first, second): Voronoi edge k of cell owner[k] runs
    counterclockwise from first[k] to second[k].
    """
    from scipy.spatial import Delaunay

    n = len(site)
    guards = (VORONOI_GUARD_HALF_WIDTHS * half_width) * np.exp(
        1j * (np.pi / 2.0 + (2.0 * np.pi / 3.0) * np.arange(3)))
    z = np.concatenate([site, guards])
    tri = Delaunay(z.view(float).reshape(-1, 2))
    simplices, neighbors = tri.simplices.copy(), tri.neighbors.copy()
    p0, p1, p2 = z[simplices.T]
    e1, e2 = p1 - p0, p2 - p0
    cross = e1.real * e2.imag - e1.imag * e2.real
    # counterclockwise vertex order; neighbors[t, i] faces vertex i
    cw = cross < 0
    simplices[cw] = simplices[cw][:, [0, 2, 1]]
    neighbors[cw] = neighbors[cw][:, [0, 2, 1]]
    e1[cw], e2[cw], cross = e2[cw], e1[cw], 2.0 * np.abs(cross)
    n1, n2 = e1.real * e1.real + e1.imag * e1.imag, e2.real * e2.real + e2.imag * e2.imag
    centre = np.empty_like(p0)
    centre.real = p0.real + (e2.imag * n1 - e1.imag * n2) / cross
    centre.imag = p0.imag + (e1.real * n2 - e2.real * n1) / cross
    # corner i of triangle t owns the Delaunay edge to the next corner; the
    # triangle across it faces corner i + 2, and the dual Voronoi edge runs
    # counterclockwise (seen from the owner) from that triangle's centre to
    # t's.  Only guards lie on the hull, so that triangle always exists.
    k = np.flatnonzero(simplices.ravel() < n)
    t, i = np.divmod(k, 3)
    across = neighbors.ravel()[k - i + (i + 2) % 3]
    return simplices.ravel()[k], centre[across], centre[t]


def _clip_fans(site, first, second, half_width):
    """The fans (site, first, second) of complex points, clipped to the
    window and split again into fans from the site.

    Each site lies in the window and each fan is counterclockwise, so a
    clipped fan is a convex polygon with its site as one vertex.  The
    others are, in counterclockwise order around the site: first, or
    where the ray towards it leaves the window; the points where the
    segment first-second crosses the window's boundary; the window's
    corners inside the fan; and second, or where the ray towards it
    leaves the window.  Returns (row, first, second) of the new fans: fan
    k lies in input fan row[k].
    """
    s, a, b = site, first, second
    m = len(s)
    d = b - a
    t_in, t_out = _clip_params(np.concatenate([s, s, a]), np.concatenate([a - s, b - s, d]),
                               half_width)
    t_in, t_out = t_in[2 * m:], t_out.reshape(3, m)
    corner = half_width * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
    vertex = np.empty((m, 8), dtype=complex)
    vertex[:, 0] = s + t_out[0] * (a - s)
    vertex[:, 1] = a + np.minimum(t_in, 1.0) * d
    vertex[:, 2] = a + t_out[2] * d
    vertex[:, 3:7] = corner
    vertex[:, 7] = s + t_out[1] * (b - s)
    # which middle vertices exist: where a-b enters and leaves the window,
    # and the corners in the closed triangle, except one the site sits on
    exists = np.empty((m, 6), dtype=bool)
    meets = t_in <= t_out[2]
    exists[:, 0], exists[:, 1] = meets & (t_in > 0.0), meets & (t_out[2] < 1.0)
    exists[:, 2:] = corner != s[:, None]
    for p, q in ((s, a), (a, b), (b, s)):
        # for complex u and v, the imaginary part of conj(u) * v is their cross product
        exists[:, 2:] &= (np.conj(q - p)[:, None] * (corner - p[:, None])).imag >= 0.0
    # the middle vertices in order of their angle from the ray towards
    # first; the ray ends go first and last, absent vertices after them
    key = np.angle(np.conj(a - s)[:, None] * (vertex - s[:, None]))
    key[:, 0], key[:, 7] = -4.0, 4.0
    key[:, 1:7][~exists] = np.inf
    vertex = vertex.ravel()[np.argsort(key, axis=1) + 8 * np.arange(m)[:, None]]
    n_fans = 1 + exists.sum(axis=1)
    used = np.arange(7) < n_fans[:, None]
    return np.repeat(np.arange(m), n_fans), vertex[:, :-1][used], vertex[:, 1:][used]


def _clip_params(start, step, half_width):
    """(t_in, t_out): where the segments start + t*step, 0 <= t <= 1, of
    complex points enter and leave the window; t_in > t_out where one
    misses it (Liang-Barsky)."""
    t_in, t_out = np.zeros(len(start)), np.ones(len(start))
    for p, d in ((start.real, step.real), (start.imag, step.imag)):
        moves = d != 0.0
        side = np.copysign(half_width, d)
        np.maximum(t_in, np.divide(-side - p, d, out=np.zeros(len(p)), where=moves), out=t_in)
        np.minimum(t_out, np.divide(side - p, d, out=np.ones(len(p)), where=moves), out=t_out)
        # a coordinate that does not move must already lie in the window
        t_in[~moves & (np.abs(p) > half_width)] = np.inf
    return t_in, t_out
