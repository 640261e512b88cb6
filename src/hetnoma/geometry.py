"""Spatial model: PPP deployment on a finite window, nearest-BS association.

The analysis lives on the infinite plane; simulations truncate it to a
square window and collect statistics only for cells whose base station
lies in an inner region inset by `margin`, so that the interference and
cooperation fields seen by evaluated cells are effectively edge-free.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree


@dataclass(frozen=True)
class Window:
    """Square observation window [-half_width, half_width]^2 in meters.

    margin is the inset of the inner evaluation region; it must be
    smaller than half_width.
    """

    half_width: float
    margin: float

    def __post_init__(self):
        if not self.half_width > 0:
            raise ValueError("half_width must be positive")
        if not 0 < self.margin < self.half_width:
            raise ValueError("margin must lie in (0, half_width)")

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


def default_window(params, min_expected_bs=2000.0, margin_cell_radii=5.0):
    """Window sized to hold >= min_expected_bs base stations in expectation,
    with an inner-region inset of margin_cell_radii mean cell radii."""
    lam = params.total_intensity
    margin = margin_cell_radii / math.sqrt(math.pi * lam)
    half_width = math.sqrt(min_expected_bs / (4.0 * lam))
    if half_width <= margin:
        half_width = 2.0 * margin
    return Window(half_width=half_width, margin=margin)


@dataclass(frozen=True)
class PointSet:
    """Planar points with a tier tag (tier index for BSs, "users" for users)."""

    xy: np.ndarray
    tag: object = None

    def __post_init__(self):
        xy = np.ascontiguousarray(np.asarray(self.xy, dtype=float).reshape(-1, 2))
        object.__setattr__(self, "xy", xy)

    def __len__(self):
        return self.xy.shape[0]


def sample_ppp(intensity, window, rng, tag=None):
    """Homogeneous PPP on the window: Poisson count, i.i.d. uniform positions.

    Deterministic given the generator state; intensity 0 gives an empty set.
    """
    if intensity < 0:
        raise ValueError("intensity must be nonnegative")
    n = int(rng.poisson(intensity * window.area))
    hw = window.half_width
    xy = rng.uniform(-hw, hw, size=(n, 2))
    return PointSet(xy=xy, tag=tag)


@dataclass
class Association:
    """Nearest-BS association of every user, plus per-BS user lists.

    serving[u] is the global BS index (tiers concatenated in order) of
    user u's strictly nearest BS; exact distance ties (probability zero,
    but possible with constructed inputs) go to the lowest BS index.
    """

    serving: np.ndarray
    counts: np.ndarray
    _order: np.ndarray = field(repr=False)
    _starts: np.ndarray = field(repr=False)

    def users_of(self, bs_index):
        return self._order[self._starts[bs_index]:self._starts[bs_index + 1]]

    def user_at(self, bs_index, rank):
        """users_of(bs_index)[rank], elementwise over arrays of BSs and ranks."""
        return self._order[self._starts[bs_index] + rank]


def associate(bs_sets, users):
    """Attach each user to its globally nearest BS across all tiers."""
    bs_xy = np.concatenate([b.xy for b in bs_sets]) if bs_sets else np.zeros((0, 2))
    n_bs = bs_xy.shape[0]
    if n_bs == 0:
        raise ValueError("association requires at least one base station")
    user_xy = users.xy
    if len(users) == 0:
        serving = np.zeros(0, dtype=np.intp)
    elif n_bs == 1:
        serving = np.zeros(len(users), dtype=np.intp)
    else:
        tree = cKDTree(bs_xy)
        dist, idx = tree.query(user_xy, k=2)
        serving = idx[:, 0].astype(np.intp)
        tied = dist[:, 0] == dist[:, 1]
        if np.any(tied):
            # exact ties: full scan, lowest index among the minimizers
            for u in np.flatnonzero(tied):
                d2 = np.sum((bs_xy - user_xy[u]) ** 2, axis=1)
                serving[u] = int(np.flatnonzero(d2 == d2.min())[0])
    counts = np.bincount(serving, minlength=n_bs)
    # the narrowest unsigned key lets numpy radix-sort; same stable order
    order = np.argsort(serving.astype(np.min_scalar_type(n_bs - 1)), kind="stable")
    starts = np.zeros(n_bs + 1, dtype=np.intp)
    np.cumsum(counts, out=starts[1:])
    return Association(serving=serving, counts=counts, _order=order, _starts=starts)

