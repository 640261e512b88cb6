"""Monte Carlo evaluation of the exact NOMA SIR decoding events.

One trial samples the whole network once (BS tiers, user counts, void
flags and every BS's scheduled pair) on the torus of its window, then
evaluates the decoding events of both schemes in every tagged cell: a BS
with at least two users, two of which are scheduled uniformly at random.

A trial (run_coupled_trial) serves every point of a grid that shares one
layout (tiers and path loss: all of a user_intensity or beta sweep) from
one snapshot, and every Monte Carlo run goes through run_trial_sets,
which runs those trials: a sweep over its grid, sim and run_trials over
their one point.  run_single_trial is one trial at one point and
build_snapshot its snapshot, the views that tests inspect.  The trial
samples the BSs and computes their Voronoi cells on the torus: given the
BSs, the users of a cell form a PPP of intensity user_intensity on the
cell of its BS, so a BS's count is Poisson(m), m = user_intensity x
area_b, independently, and its pair is two i.i.d. uniform points in its
cell.
This costs the same at any load, and no user is placed but the pairs a
trial evaluates.  A trial reads only whether a count is at least 1 (the
BS transmits) and at least 2 (the cell can be tagged), and both come
exactly from one uniform U_b per BS: the Poisson(m) quantile of U_b is
>= 1 iff U_b > e^-m and >= 2 iff U_b > e^-m (1 + m).  So the classes
nest as the load rises, and the pairs and fades of a cell are shared by
every point.  The snapshot hands out pairs as coordinates, the near user
(the nearer of the two) first, and places a pair only when asked for it:
a trial asks once, for the cells it evaluates in both tiers.

Every random draw of a trial comes from one of five streams keyed by
(seed, trial, purpose):

  * points: the BS tiers (cell_census then draws every BS's full count
    from it, in global BS order);
  * pairs: the scheduled pair of every BS, in global BS order, drawn in
    one call for all BSs whether or not a BS is evaluated: an (n_bs, 2,
    3) block of uniforms, three per user, one picking a triangle of the
    cell's fan by area and two placing the point in it (the point itself
    is formed only for an evaluated cell);
  * fades: the fades of the cell served by BS b are the 2 * n_bs 64-bit
    outputs at positions [2 n_bs b, 2 n_bs (b + 1)) of the fade stream,
    the near user's n_bs links first; _CellBlocks jumps to each cell's
    outputs with PCG64.advance (backwards too, modulo the period 2^128),
    so cells may come in any order, and turns each output into one
    exponential variate;
  * counts: the uniform U_b of every BS, in global BS order;
  * priority (when capped): one uniform per BS; at each point, a tier
    evaluates its max_cells_per_tier tagged cells of lowest priority.

So trials are independent work units and can run in any order, or in
parallel, this process beside forked workers (_map_trials), with
identical aggregate counts; a cell's pair and fades depend only on
(seed, trial, cell) and the snapshot, so a per-tier cap changes nothing
in the cells it keeps, and a point's outcomes do not depend on
the other points of its grid; and both schemes are evaluated on the
same fades (the serving link's fade is its block's column at the serving
BS), which makes each cooperative event a superset of the
non-cooperative one cell by cell.

Interference at a receiver sums over all non-void BSs of the window
except the serving one; the cooperative signal sums over all void BSs of
every tier, evaluated at the receiving user's own location.  Every BS-user
distance is the minimum-image one on the torus (_minimum_image).  Powers are
scaled by the power of two that puts the largest tier power in [1, 2):
exact, and every SIR event is homogeneous in power, so the counts do not
depend on the power scale (tiers of 1e-318 W or 1.7e308 W give the
counts of 20 W; unscaled, they underflowed to ties or overflowed).

The float64 evaluation (_CellBlocks.links, _sums, _outcome) defines the
outcomes, and the trial reproduces it exactly while computing most of
it in float32.  One call per tier (_CellBlocks.screen) screens its
cells' fades, distances and powers in float32, in blocks whose (cells,
2, n_bs) float64 buffers would hold at most BLOCK_BYTES each (each
coordinate difference an exact BLAS product); points with equal void
flags share one product per block for their interference and
void-signal sums.  The call returns those sums in float64 with a bound
on their error (the comment above _U32 derives it, after the
filter-and-certify design of Shewchuk's adaptive-precision predicates),
and the serving links, the float64 path's bits.  Every point decides
its own cells' events from those sums in float64, and the bound
certifies each decision.  Where a margin falls within the bound, a sum
is not finite or the bound does not apply, the cell's sums come from
its float64 links (_CellBlocks.links), so every count, distance sum and
CSV byte is the float64 evaluation's.  About 0.13% of stock cells (cap
120 or none) and of dense ones (2e-3 users/m^2, cap 16) take them.
schedule_noma_users, evaluate_noncoop and evaluate_coop are one-cell
views of the float64 evaluation, in watts.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .checks import ConfigError, integer, random_seed
from .coverage import SCHEMES, check_schemes
from .geometry import Window, default_window, periodic_voronoi, sample_ppp
from .geometry import associate  # noqa: F401  (perfbench traces simulate.associate by name)

ROLES = ("near", "far")

# stream purposes within one (seed, trial)
_STREAM_POINTS = 0
_STREAM_PAIRS = 2
_STREAM_FADES = 3
_STREAM_COUNTS = 4
_STREAM_PRIORITY = 5

# Size of each (cells, 2, n_bs) float buffer of a block of tagged cells:
# small enough to stay in cache, large enough that numpy calls run over
# many cells at once (21 cells at the stock 1,527 BSs).
BLOCK_BYTES = 2**19

# Ceiling on the expected number of BSs one snapshot samples: far above
# the about 1,500 that the default window holds, far below what runs a
# machine out of memory.
MAX_EXPECTED_POINTS = 5e6


class SimulationError(RuntimeError):
    pass


def check_point_budget(params, window=None):
    """Reject a scenario whose snapshots would hold too many points.

    A snapshot places the BSs and no user.  The expected count of BSs is
    total_intensity times the window area, on default_window(params) when
    no window is given; it raises ConfigError when over
    MAX_EXPECTED_POINTS, and returns the window it checked otherwise.
    The default window holds about DEFAULT_EXPECTED_BS BSs, so only an
    explicit window can go over.
    """
    window = window if window is not None else default_window(params)
    expected = params.total_intensity * window.area
    if not expected <= MAX_EXPECTED_POINTS:
        raise ConfigError(
            "window", f"a snapshot would hold {expected:.3g} points in expectation, "
            f"above the simulator's limit of {MAX_EXPECTED_POINTS:.0e}"
        )
    return window


def _stream(seed, trial, *key):
    entropy = tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)
    ss = np.random.SeedSequence(entropy=entropy, spawn_key=(int(trial), *key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class NetworkSnapshot:
    """One sampled realization of the network.

    counts[b] is min(N_b, 2) for the number N_b of users BS b serves, all
    a trial reads of a count, and nonvoid[b] is True iff it is positive
    (the indicator that the BS transmits).  Global BS indices concatenate
    the tiers in order.  pairs(cells) gives the coordinates of the two
    users each BS schedules: the snapshot holds the cells on the torus
    (_voronoi) and every BS's (2, 3) uniforms (_pair_draws), and places a
    pair only when it is asked for, so a trial pays for the pairs of the
    cells it evaluates only.
    """

    params: object
    window: Window
    seed: object
    trial: int
    counts: np.ndarray
    bs_xy: np.ndarray = field(repr=False)
    bs_tier: np.ndarray = field(repr=False)
    bs_power: np.ndarray = field(repr=False)
    _voronoi: object = field(repr=False)
    _pair_draws: np.ndarray = field(repr=False)

    @property
    def n_bs(self):
        return self.bs_xy.shape[0]

    @property
    def nonvoid(self):
        return self.counts > 0

    def pairs(self, cells):
        """The scheduled pairs of the BSs in the index array cells, of shape
        (len(cells), 2, 2), points in the window, the near user first; NaN
        where a cell owns no fan (and so has no area and no users).  A BS's
        pair is the same bits whichever other BSs are asked for with it.
        """
        return _near_first(self.bs_xy[cells],
                           self._voronoi.sample(cells[:, None], self._pair_draws[cells]),
                           self.window)

    @property
    def tagged(self):
        """Where a BS is a tagged cell: with >= 2 users."""
        return self.counts >= 2


def _snapshots(grid, window, seed, trial):
    """The snapshots of trial `trial` at the points of grid, all of one
    layout (tiers and path loss) and so of the same BSs.

    The BSs are those of the points stream on window
    (default_window(grid[0]) if None): sampling fails before it starts if
    their expected count is over MAX_EXPECTED_POINTS, and after it if the
    window contains none.  The BSs' cells are computed and their pairs'
    uniforms drawn once, to be placed in the cells that
    NetworkSnapshot.pairs is asked for.  A point's counts are the classes
    _count_classes gives the BSs' uniforms from the counts stream at the
    mean user_intensity x cell area.
    """
    window = check_point_budget(grid[0], window)
    tier_xy, _ = _sample_tiers(grid[0], window, seed, trial)
    bs_xy = np.concatenate(tier_xy)
    n_bs = len(bs_xy)
    bs_tier = np.concatenate(
        [np.full(len(p), t, dtype=np.intp) for t, p in enumerate(tier_xy)]
    )
    powers = np.array([t.power_watts for t in grid[0].tiers])
    voronoi = periodic_voronoi(bs_xy, window)
    # two i.i.d. uniform points in each BS's cell, three uniforms each
    pair_draws = _stream(seed, trial, _STREAM_PAIRS).random((n_bs, 2, 3))
    uniform = _stream(seed, trial, _STREAM_COUNTS).random(n_bs)
    return [NetworkSnapshot(
        params=params, window=window, seed=seed, trial=trial,
        counts=_count_classes(params.user_intensity * voronoi.areas, uniform), bs_xy=bs_xy,
        bs_tier=bs_tier, bs_power=powers[bs_tier], _voronoi=voronoi, _pair_draws=pair_draws,
    ) for params in grid]


def _near_first(bs_xy, pair_xy, window):
    """pair_xy (pairs of shape (2, 2) of the BSs bs_xy) with each pair's
    near user first, in place; an exact tie keeps the first draw first.
    The serving distances are those of _link_powers."""
    d = _minimum_image(bs_xy[:, None] - pair_xy, window.period)
    serving_sq = (d * d).sum(axis=-1)
    far_first = serving_sq[:, 1] < serving_sq[:, 0]
    pair_xy[far_first] = pair_xy[far_first, ::-1]
    return pair_xy


def build_snapshot(params, window, seed, trial):
    """The snapshot that trial `trial` evaluates at params, on window or
    default_window(params) if None (see _snapshots).

    Bit-identical for identical (seed, trial); run_single_trial evaluates
    exactly this snapshot.
    """
    [snapshot] = _snapshots((params,), window, seed, trial)
    return snapshot


def _sample_tiers(params, window, seed, trial):
    """The BSs of each tier, from the trial's points stream, and that stream.

    Every trial and census snapshot starts here, so a seed that is not
    one (checks.random_seed) raises ConfigError before any draw, and
    SimulationError follows if the window holds no BS.
    """
    random_seed(seed)
    rng = _stream(seed, trial, _STREAM_POINTS)
    tier_xy = [sample_ppp(t.intensity, window, rng) for t in params.tiers]
    if sum(len(p) for p in tier_xy) == 0:
        raise SimulationError("window contains no base stations; enlarge the window")
    return tier_xy, rng


@dataclass
class TaggedCell:
    """A serving BS with its two scheduled users, fading draws and received powers.

    Every per-receiver array has the near receiver first, as the
    snapshot's pairs orders the two users.  link_gains and
    link_dist_sq have shape (2, n_bs) with columns in global BS order; the
    serving link's fade is link_gains[:, bs_index].  desired is the
    full-power serving signal P_m * H * d^-alpha, interference sums the
    non-void BSs other than the serving one, and void_signal sums the void
    BSs (the cooperative signal).
    """

    bs_index: int
    tier: int
    distances: np.ndarray
    desired: np.ndarray
    interference: np.ndarray
    void_signal: np.ndarray
    link_gains: np.ndarray = field(repr=False)
    link_dist_sq: np.ndarray = field(repr=False)


def _power_exponent(params):
    """e such that 2^-e times the largest tier power lies in [1, 2).

    The blocks scale every power by 2^-e.  A power-of-two scale is exact
    in float64 and every SIR event is homogeneous in power, so at powers
    whose received powers neither overflow nor underflow the outcomes are
    the same bits as unscaled; at any other scale they are what the power
    ratios alone give (1e-318 W tiers do not all underflow to a tie).
    """
    return math.frexp(max(t.power_watts for t in params.tiers))[1] - 1


def _minimum_image(d, period, scratch=None):
    """min(|d|, period - |d|) in place: coordinate differences d taken to
    their minimum image on the torus of side period, with no rounding (the
    subtraction is exact where it is the smaller).  scratch: a buffer like d."""
    np.abs(d, out=d)
    return np.minimum(d, np.subtract(period, d, out=scratch), out=d)


def _link_powers(alpha, fades, bs_x, bs_y, bs_power, ux, uy, dist_sq, power, window):
    """float64 received powers P H d^-alpha of the links between the BSs
    (bs_x, bs_y, bs_power) and the receivers (ux, uy), broadcast together,
    at the minimum-image distances d on window's torus.

    fades holds the links' uniforms U and is turned in place into the
    exponential fades -log1p(-U); dist_sq and power receive the squared
    distances and the powers.  Elementwise, so a link's values are the
    same bits whichever other links share the call.
    """
    np.negative(fades, out=fades)
    np.log1p(fades, out=fades)
    np.negative(fades, out=fades)
    np.subtract(bs_x, ux, out=dist_sq)
    _minimum_image(dist_sq, window.period)
    np.multiply(dist_sq, dist_sq, out=dist_sq)
    np.subtract(bs_y, uy, out=power)
    _minimum_image(power, window.period)
    np.multiply(power, power, out=power)
    np.add(dist_sq, power, out=dist_sq)
    if alpha == 4.0:
        np.multiply(dist_sq, dist_sq, out=power)
        np.divide(fades, power, out=power)
    else:
        np.power(dist_sq, -alpha / 2.0, out=power)
        np.multiply(power, fades, out=power)
    np.multiply(power, bs_power, out=power)


# The float32 screen (_CellBlocks.screen) and its error bound.
#
# For one receiver, take the exact sum S = sum_j P_j H_j g_j over a set of
# links j other than the serving one, with the float64 inputs taken as
# exact: P_j the scaled power, H_j = -ln(1 - U_j), g_j = d_j^-alpha, d_j
# the minimum-image distance on the torus of side L.  The screen's float32
# sum S' and the float64 path's S64 both approximate it, and |S' - S64| <=
# err(S') = KAPPA S' + FLOOR, per receiver, with u = 2^-24 (float32 unit
# roundoff) and n = n_bs terms:
#
#   * coordinates: every coordinate lies in the window and is rounded to
#     float32, off by at most u h (h <= L/2 the largest |coordinate| of a
#     BS or of the tier's users), and L to L' = 2 fl32(L/2), off by u L.
#     A difference bs' - u' is rounded once and, where its magnitude
#     exceeds L'/2, taken to L' minus it, exactly (_minimum_image).  Per
#     coordinate, that magnitude is off from the exact minimum image's by
#     at most 2 u h beyond its own rounding where neither wraps; 4 u h +
#     u L where both do, on a link at least g long (g the receiver's
#     distance to the window's edge); and 6.6 u L where one does, on a
#     link at least L/2 - 2.1 u L long.  So the link distance is off by at
#     most the relative c = max(3 u h / d_min, u (6 h + 1.5 L) / max(d_min,
#     g), 16 u), d_min bounding the receiver's distance to every BS from
#     below: the float32 squared distances of its row D' (the serving link
#     included) hold |v'|^2 (1 + 5u) at most, so d_min = sqrt(min D' /
#     (1 + 5u)) - 8 u L;
#   * per link: D' carries 4 roundings (5u), and d^-alpha turns a relative
#     error x of d into at most 2 alpha x while alpha x <= 1/2; the gain's
#     reciprocal and square (3u, alpha = 4) or float32 pow (measured within
#     1.76u; 4u allowed), the products with H and P and P's rounding (3u)
#     add at most 7u; so the gain times P is within rho = 3 alpha c +
#     (6 alpha + 8) u of P g, relative, while rho <= 2^-8 (so the product of
#     the (1 + x) factors is within 1.01 times their sum).  Where alpha / 2
#     is not a float32, its rounding e adds 1.02 e |ln D| for the largest
#     |ln D| of the row (every D is below L^2);
#   * the fade: 1 - U is exact in float64 and is rounded once to float32,
#     which moves its log by at most 1.01 u; numpy's float32 log is within
#     3.83 ulp (4.6 u relative, on every float32 in [2^-53, 1]; 8 u
#     allowed), so |H' - H| <= 8 u H + 2 u.  Small fades lose their
#     relative accuracy: that is the absolute 2 u per link, which sums to
#     2 u A for A = sum_j P_j g_j (the screen's `reach`, over every BS but
#     the serving one, so it covers both sums);
#   * summation: a float32 mat-vec of n nonnegative terms, in any order, is
#     within gamma = n u / (1 - n u) of the exact sum, relative (Higham,
#     Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002, 3.1
#     and 4.2), while gamma <= 2^-6: so a snapshot of more than about
#     258,000 BSs is never certified, and all its cells take the float64 path;
#   * the float64 path is within (n + 8 alpha + 64) 2^-52 of S, relative
#     (its rounding of a wrapped difference, at most 2^-53 L, lies far
#     inside the round-up of c's middle term);
#   * underflow (subnormal or flushed): at most 2^-126 per operation, times
#     factors below 80 (|ln(2^-53)| < 37, P < 2), within n 2^-116 in all.
#
# Collecting, |S' - S| <= 1.02 ((8.2u + 1.02 rho + gamma) S' + 2.04 u A),
# and with A <= 1.02 A' and the float64 path:
#
#   KAPPA = 9 u + 1.05 (rho + gamma),  FLOOR = 2.2 u A' + n 2^-116,
#
# or infinite wherever rho exceeds 2^-8 or gamma 2^-6, d_min is not positive,
# a power is below 2^-100 of the largest, h is outside [2^-30, L/2] or L is
# above 2^30 (which keeps 1/D', its square and the powers normal in
# float32).  A decision
# lhs >= rhs of _sides is then certified when |lhs - rhs| exceeds
# theta err(I) + err(V) (V only on the cooperative side) + 2^-49 (lhs +
# rhs) + 2^-1000, the last two terms covering float64 rounding and
# underflow of both sides; the constants above are rounded up far enough
# to cover the float64 rounding of the bound itself.
_U32 = 2.0**-24
_RHO_MAX = 2.0**-8


class _CellBlocks:
    """One trial's float32 screen and float64 reference, over its fade stream.

    flags holds the void flags (nonvoid arrays) of the snapshots that the
    trial evaluates, all of this layout.  Snapshots with equal flags form
    a group (group[j] is snapshot j's) and share their sums: the float32
    weights hold, per group g, bs_power where a BS transmits in column g
    and where it is void in column groups + g, so one product per block
    gives every group's sums (their error bound holds in any order, and
    Fortran order is what BLAS takes fastest); exact holds every
    snapshot's flags and their negation as float64 1/0 weights of shape
    (2, snapshot, n_bs), the form _sums multiplies by, made once a trial.

    screen(cells, pair_xy) screens one tier's cells in float32, in blocks
    whose (cells, 2, n_bs) float64 buffer would hold at most BLOCK_BYTES;
    links(b, pair_xy) is one cell's float64 reference.  Both draw a cell's
    fades from its own positions of the one stream, in any order.  bs_x
    and bs_y are the contiguous coordinate columns of the snapshot's
    bs_xy, and bs_power the BSs' powers scaled by 2^-_power_exponent.
    Only the BSs, tiers, path loss and (seed, trial) of layout enter, so
    the blocks serve every snapshot of one layout.
    """

    def __init__(self, layout, flags):
        self.snapshot = layout
        params, n_bs = layout.params, layout.n_bs
        self.alpha = params.pathloss_exponent
        self.bs_x = np.ascontiguousarray(layout.bs_xy[:, 0])
        self.bs_y = np.ascontiguousarray(layout.bs_xy[:, 1])
        self.bs_power = np.ldexp(layout.bs_power, -_power_exponent(params))
        self.size = max(1, BLOCK_BYTES // (16 * n_bs))
        self.uniform = _stream(layout.seed, layout.trial, _STREAM_FADES)
        self.position = 0
        # the uniforms of a block, then its float32 buffers
        self.fades = np.empty((self.size, 2, n_bs))
        self.dist_sq, self.power, self.spare = (np.empty((self.size, 2, n_bs), np.float32)
                                                for _ in range(3))
        # [bs; 1] per coordinate, the right-hand sides of _squared_distances
        self.bs_rows = np.ones((2, 2, n_bs), np.float32)
        self.bs_rows[:, 0] = layout.bs_xy.T
        self.receiver_rows = np.ones((2 * self.size, 2), np.float32)
        self.period32 = 2 * np.float32(layout.window.half_width)
        self.bs_power32 = self.bs_power.astype(np.float32)
        self.exponent32 = np.float32(-self.alpha / 2.0)
        self.exponent_error = abs(float(self.exponent32) + self.alpha / 2.0)
        self.coord_max = float(np.abs(layout.bs_xy).max())
        self.gamma = n_bs * _U32 / (1.0 - n_bs * _U32)
        self.screens = bool(self.bs_power.min() >= 2.0**-100 and self.gamma <= 2.0**-6)
        groups = {}
        self.group = [groups.setdefault(f.tobytes(), len(groups)) for f in flags]
        nonvoid = np.stack([flags[self.group.index(g)] for g in range(len(groups))])
        flag_weights = np.stack([nonvoid, ~nonvoid])
        self.exact = flag_weights.astype(float)[:, self.group]
        self.weights = (flag_weights.reshape(-1, n_bs) * self.bs_power32).T

    def _draw(self, b, out):
        """The uniforms of the links of cell b into out, of shape (2, n_bs):
        outputs [2 n_bs b, 2 n_bs (b + 1)) of the fade stream, reached
        forwards or backwards (mod 2^128, PCG64's period)."""
        span = 2 * self.snapshot.n_bs
        self.uniform.bit_generator.advance((span * b - self.position) % 2**128)
        self.uniform.random(out=out)
        self.position = span * (b + 1)

    def links(self, b, pair_xy):
        """The float64 links of cell b, whose pair (as the snapshot's pairs
        gives it) is pair_xy: (fades, dist_sq, power), each of shape (2,
        n_bs), the near user first, with the serving BS's column
        included."""
        fades, dist_sq, power = (np.empty((2, self.snapshot.n_bs)) for _ in range(3))
        self._draw(int(b), fades)
        _link_powers(self.alpha, fades, self.bs_x, self.bs_y, self.bs_power,
                     pair_xy[:, 0, None], pair_xy[:, 1, None], dist_sq, power,
                     self.snapshot.window)
        return fades, dist_sq, power

    def screen(self, cells, pair_xy):
        """One tier's cells, screened in float32: (sums, errors, serving_sq,
        desired), all float64.

        sums[0] holds the interference and sums[1] the void signal of every
        snapshot, of shape (snapshot, cell, receiver), and errors the bound
        err(S') of the comment above _U32 on their distance from the
        float64 sums (inf where it does not hold).  serving_sq and desired,
        of shape (cell, receiver), are the serving links' bits that links
        gives, from the same operations on the same uniforms.
        """
        k = len(cells)
        serving = np.empty((k, 2))
        nearest_sq, reach = np.empty((2, k, 2), np.float32)
        # the screened sums, negated: every group's interference, then void signal
        screened = np.empty((k, 2, 2, self.weights.shape[1] // 2), np.float32)
        for start in range(0, k, self.size):
            block = slice(start, start + self.size)
            part = cells[block]
            m = len(part)
            rows = np.arange(m)
            uniforms, power = self.fades[:m], self.power[:m]
            for row, b in zip(uniforms, part.tolist()):
                self._draw(b, row)
            serving[block] = uniforms[rows, :, part]
            with np.errstate(all="ignore"):
                # the path gains D'^(-alpha/2), in place
                gain = self._squared_distances(pair_xy[block])
                gain.min(axis=-1, out=nearest_sq[block])
                if self.alpha == 4.0:
                    np.divide(1.0, gain, out=gain)
                    np.multiply(gain, gain, out=gain)
                else:
                    np.power(gain, self.exponent32, out=gain)
                gain[rows, :, part] = 0.0
                # -H' = log(1 - U): 1 - U is exact in float64, rounded once
                np.subtract(1.0, uniforms, out=power)
                np.log(power, out=power)
                np.multiply(power, gain, out=power)
                reach[block] = np.matmul(gain.reshape(2 * m, -1), self.bs_power32).reshape(m, 2)
            np.matmul(power.reshape(2 * m, -1), self.weights, out=screened[block].reshape(2 * m, -1))
        window = self.snapshot.window
        serving_sq, desired = np.empty((2, k, 2))
        _link_powers(self.alpha, serving, self.bs_x[cells, None], self.bs_y[cells, None],
                     self.bs_power[cells, None], pair_xy[..., 0], pair_xy[..., 1], serving_sq,
                     desired, window)
        hw, period = window.half_width, window.period
        magnitude = np.abs(pair_xy)
        # h over every BS and every user of cells
        h = max(self.coord_max, float(magnitude.max(initial=0.0)))
        sums = np.moveaxis(np.negative(screened, dtype=float), (2, 3), (0, 1))
        with np.errstate(all="ignore"):
            nearest_sq = nearest_sq.astype(float)
            d_min = np.sqrt(nearest_sq / (1.0 + 5.0 * _U32)) - 8.0 * _U32 * period
            # g, each receiver's distance to the window's edge
            edge = hw - magnitude.max(axis=-1)
            c = np.maximum(3.0 * _U32 * h / d_min,
                           _U32 * (6.0 * h + 1.5 * period) / np.maximum(d_min, edge))
            rho = 3.0 * self.alpha * np.maximum(c, 16.0 * _U32) + (6.0 * self.alpha + 8.0) * _U32
            if self.exponent_error:
                log_range = np.maximum(np.abs(np.log(nearest_sq)), abs(2.0 * math.log(period)))
                rho = rho + 1.02 * self.exponent_error * log_range
            valid = ((d_min > 0.0) & (rho <= _RHO_MAX) & self.screens
                     & (2.0**-30 <= h <= hw) & (period <= 2.0**30))
            kappa = np.where(valid, 9.0 * _U32 + 1.05 * (rho + self.gamma), np.inf)
            floor = 2.2 * _U32 * reach.astype(float) + self.snapshot.n_bs * 2.0**-116
            errors = _sum_error(sums, kappa, floor)
        return sums[:, self.group], errors[:, self.group], serving_sq, desired

    def _squared_distances(self, pair_xy):
        """D': the float32 squared minimum-image distances of the receivers
        pair_xy to every BS, into the first rows of dist_sq.  Each
        coordinate's difference is one exact product [1, -u] @ [bs; 1], so
        it is bs - u rounded once, the bits of a float32 subtraction, and
        _minimum_image wraps it exactly (in the power buffer's rows)."""
        k = len(pair_xy)
        receivers, dist_sq, spare = self.receiver_rows[:2 * k], self.dist_sq[:k], self.spare[:k]
        for c, out in enumerate((dist_sq, spare)):
            np.negative(pair_xy[..., c].ravel(), out=receivers[:, 1])
            np.matmul(receivers, self.bs_rows[c], out=out.reshape(2 * k, -1))
            _minimum_image(out, self.period32, self.power[:k])
            np.multiply(out, out, out=out)
        return np.add(dist_sq, spare, out=dist_sq)


def _sums(power, b, weights):
    """The float64 (interference, void_signal) of each snapshot, of shape
    (2, snapshot, receiver), from the link powers `power` of cell b (as
    links gives them) and the 1/0 weights _CellBlocks.exact: the serving
    BS's column is zeroed in place, and each sum is one mat-vec.

    Each is a product of its own: one product of several weights rounds
    differently from its columns taken one at a time, and a cell's sums
    must not depend on which other weights share its call.
    """
    power[:, b] = 0.0
    return np.array([[np.matmul(power, w) for w in kind] for kind in weights])


def schedule_noma_users(snapshot, bs_index):
    """The scheduled pair of a BS with its fading draws and received powers.

    Returns None for void and single-user cells (those keep their void
    flag / full-power role but contribute no two-user NOMA statistics).
    The result is bit-identical to the cell's values in a whole-trial
    run: it depends only on (seed, trial, bs_index) and the snapshot.
    """
    if snapshot.counts[bs_index] < 2:
        return None
    blocks = _CellBlocks(snapshot, [snapshot.nonvoid])
    pair_xy = snapshot.pairs(np.array([bs_index], dtype=np.intp))[0]
    fades, dist_sq, power = blocks.links(bs_index, pair_xy)
    # from the blocks' power scale back to watts
    e = _power_exponent(snapshot.params)
    desired = np.ldexp(power[:, bs_index], e)
    [interference], [void_signal] = np.ldexp(_sums(power, bs_index, blocks.exact), e)
    return TaggedCell(
        bs_index=int(bs_index), tier=int(snapshot.bs_tier[bs_index]),
        distances=np.sqrt(dist_sq[:, bs_index]), desired=desired,
        interference=interference, void_signal=void_signal,
        link_gains=fades, link_dist_sq=dist_sq,
    )


@dataclass(frozen=True)
class SirSample:
    """Decoding outcome of one tagged cell under one scheme.

    near_covered requires both the far-signal decoding stage and the
    post-cancellation own-signal stage.
    """

    near_first_stage_ok: bool
    near_sic_ok: bool
    near_covered: bool
    far_covered: bool


def _sides(desired, interference, coop, theta, beta):
    """Both sides of the cross-multiplied SIR events (division-free, exact
    for zero interference).

    Arrays have the receiver (near, far) on their last axis.  The far
    signal carries the fraction beta of the full-power signal desired,
    the near signal 1 - beta, and both traverse the same serving-link
    fade.  coop is the joint signal added to the far-signal numerator at
    each receiver: the void-cell signal with cooperation, zero without.
    Returns ((lhs, rhs) of the far-signal stage at both receivers, the
    near user's first SIC stage and the far user's decoding; (lhs, rhs)
    of the near user's post-cancellation stage, the same in both schemes).
    """
    own = (1.0 - beta) * desired
    decode = (beta * desired + coop, theta * (own + interference))
    return decode, (own[..., 0], (theta * interference)[..., 0])


def _outcome(sides):
    """The events of _sides(...): (first stage, SIC stage, near covered, far covered)."""
    (lhs, rhs), (own, own_rhs) = sides
    decoded = lhs >= rhs
    first, sic = decoded[..., 0], own >= own_rhs
    return first, sic, first & sic, decoded[..., 1]


def _sum_error(sums, kappa, floor):
    """The bound err(S') = KAPPA S' + FLOOR of the comment above _U32 on
    |S' - S64|, for screened sums S' and the screen's kappa and floor;
    inf wherever kappa is, a sum of 0 included."""
    error = np.multiply(kappa, sums, out=np.full(np.broadcast(kappa, sums).shape, np.inf),
                        where=kappa < np.inf)
    return np.add(error, floor, out=error)


def _certain(lhs, rhs, err):
    """Where the decision lhs >= rhs, taken on screened sums whose error
    moves lhs - rhs by at most err, is the one the float64 sums give: the
    margin exceeds err and the float64 rounding and underflow of both
    sides.  False at a tie and wherever anything is not finite."""
    return np.abs(lhs - rhs) > err + 2.0**-49 * (lhs + rhs) + 2.0**-1000


def _counts(desired, interference, void_signal, theta, beta, rows, errors=None):
    """Success counts of one tier at each point, of shape (point, scheme,
    role), and where the decisions are certain (None without errors).

    interference and void_signal have shape (point, cell, receiver), theta
    and beta (point, 1, 1); point j counts the cells where rows[j] is True.
    errors is (err(interference), err(void_signal)) of screened sums
    (_CellBlocks.screen), and the mask, of rows' shape, is True where both
    schemes' decisions are the float64 path's.
    """
    # both schemes at once, on a leading axis: the joint signal (and then
    # its error) is 0 without cooperation
    coop = np.zeros((len(SCHEMES), *void_signal.shape))
    coop[1] = void_signal
    sides = _sides(desired, interference, coop, theta, beta)
    counts = np.empty((len(rows), len(SCHEMES), len(ROLES)), dtype=np.int64)
    for r, event in enumerate(_outcome(sides)[2:]):
        counts[:, :, r] = np.count_nonzero(event & rows, axis=-1).T
    if errors is None:
        return counts, None
    (lhs, rhs), (own, own_rhs) = sides
    err_i, coop[1] = errors
    certain = _certain(lhs, rhs, np.add(coop, theta * err_i, out=coop)).all(axis=(0, -1))
    return counts, certain & _certain(own, own_rhs, (theta * err_i)[..., 0])


def _sample(cell, theta, beta, coop):
    sides = _sides(cell.desired, cell.interference, coop, theta, beta)
    return SirSample(*(bool(e) for e in _outcome(sides)))


def evaluate_noncoop(cell, theta, beta_m):
    """Exact decoding events of the two scheduled users, no cooperation."""
    return _sample(cell, theta, beta_m, np.zeros(2))


def evaluate_coop(cell, theta, beta_m):
    """Decoding events when all void BSs retransmit the far user's signal."""
    return _sample(cell, theta, beta_m, cell.void_signal)


@dataclass
class TrialTotals:
    """Associative accumulator of decoding outcomes.

    successes has shape (n_tiers, n_schemes, n_roles) with scheme order
    SCHEMES and role order ROLES; samples counts tagged cells per tier.
    Squared scheduled-user distances are accumulated for the
    distance-distribution diagnostics; as float sums they are exact only
    for a fixed merge order.
    """

    successes: np.ndarray
    samples: np.ndarray
    sum_near_dist_sq: np.ndarray
    sum_far_dist_sq: np.ndarray

    @classmethod
    def zeros(cls, n_tiers):
        return cls(
            successes=np.zeros((n_tiers, len(SCHEMES), len(ROLES)), dtype=np.int64),
            samples=np.zeros(n_tiers, dtype=np.int64),
            sum_near_dist_sq=np.zeros(n_tiers),
            sum_far_dist_sq=np.zeros(n_tiers),
        )

    def merge(self, other):
        self.successes += other.successes
        self.samples += other.samples
        self.sum_near_dist_sq += other.sum_near_dist_sq
        self.sum_far_dist_sq += other.sum_far_dist_sq
        return self


def run_single_trial(params, window, seed, trial, max_cells_per_tier=None):
    """All tagged-cell outcomes of build_snapshot(params, window, seed,
    trial), as TrialTotals: the trial of run_coupled_trial at the one point
    params, and trial `trial` of run_trials(params, window, ..., seed).

    max_cells_per_tier, when set, evaluates at most that many tagged cells
    per tier, those of lowest priority (unbiased; used to balance effort
    across tiers of very different density).
    """
    return run_coupled_trial((params,), window, seed, trial, max_cells_per_tier)[0]


def _count_classes(mean, u):
    """min(N, 2) elementwise, for N the Poisson(mean) quantile of the uniform u.

    N >= 1 iff u > P[N = 0] = e^-mean, and N >= 2 iff u > P[N <= 1] =
    e^-mean (1 + mean); u = 0 gives 0.  P[N <= 1] is 0 wherever P[N = 0]
    underflows to 0, an infinite mean included.  Both bounds fall as the
    mean rises, so at a fixed u the class never falls with the load.
    """
    p0 = np.exp(-mean)
    p1 = np.multiply(p0, 1.0 + mean, out=np.zeros_like(p0), where=p0 > 0.0)
    return (u > p0).astype(np.intp) + (u > p1)


def run_coupled_trial(grid, window, seed, trial, max_cells_per_tier=None):
    """The TrialTotals of one trial at each scenario point of grid, in order.

    The points share their tiers and path-loss exponent, and differ only
    in load, beta or threshold; a window of None means
    default_window(grid[0]).  The trial samples the BSs from the points
    stream and tessellates them once, at every load (_snapshots
    gives each point its counts); with max_cells_per_tier, each tier
    evaluates the tagged cells of lowest priority (one uniform per BS from
    the priority stream, ties to the lower BS index), and one sort per
    tier ranks them for every point.  Every cell evaluated at some point
    gets its pair, fades and powers once (_evaluate).  A point's outcomes
    depend only on (seed, trial) and its own parameters, not on the other
    points of grid.
    """
    snapshots = _snapshots(grid, window, seed, trial)
    layout = snapshots[0]
    member = np.stack([snapshot.tagged for snapshot in snapshots])
    if max_cells_per_tier is not None:
        priority = _stream(seed, trial, _STREAM_PRIORITY).random(layout.n_bs)
        tagged = member.any(axis=0)
        for tier in range(layout.params.n_tiers):
            # the tier's cells tagged at some point, by priority (ties to the
            # lower index): each point keeps the first of its own
            cells = np.flatnonzero(tagged & (layout.bs_tier == tier))
            cells = cells[np.argsort(priority[cells], kind="stable")]
            ranked = member[:, cells]
            member[:, cells] = ranked & (np.cumsum(ranked, axis=1) <= max_cells_per_tier)
    return _evaluate(snapshots, member)


def _evaluate(snapshots, member):
    """The TrialTotals of each of snapshots, all of one layout (the same
    BSs, pair draws and trial), in order.

    member[j, b] is True where snapshot j evaluates BS b, a tagged cell.
    Each cell of the tiers' unions is evaluated once: the pairs of all of
    them are placed in one call, and one screen call per tier gives every
    snapshot's sums with their error bounds (_CellBlocks.screen).  Each
    snapshot then decides the events of its own cells at its own
    threshold and beta, each decision with a certificate (_certain): it is
    the float64 path's unless its margin lies within the sums' error
    bound.  All snapshots decide a tier at once, as arrays over (snapshot,
    cell).  The cells with a decision left uncertain at any snapshot take
    their float64 sums from their links (_CellBlocks.links and _sums), and
    the tier is counted again on the sums that then hold: a certified
    decision on a screened sum is the float64 decision.  So every count is
    the float64 path's.  Where _CellBlocks.screens is False, no cell is
    screened: each takes its sums and serving links from its links.  Once
    the pairs are placed, the snapshots' cells and pair draws are dropped:
    the trial needs no other pair, and freed before the blocks take their
    buffers, they add nothing to its peak.
    """
    layout = snapshots[0]
    n_tiers = layout.params.n_tiers
    union = np.flatnonzero(member.any(axis=0))
    pairs = layout.pairs(union)
    for snapshot in snapshots:
        snapshot._voronoi = snapshot._pair_draws = None
    blocks = _CellBlocks(layout, [snapshot.nonvoid for snapshot in snapshots])
    thetas = np.array([snapshot.params.sir_threshold for snapshot in snapshots])[:, None, None]
    betas = np.array([snapshot.params.beta for snapshot in snapshots]).T[:, :, None, None]
    totals = [TrialTotals.zeros(n_tiers) for _ in snapshots]
    # global BS indices run through the tiers in order
    bounds = np.searchsorted(layout.bs_tier[union], np.arange(n_tiers + 1)).tolist()
    for tier, lo, hi in zip(range(n_tiers), bounds, bounds[1:]):
        cells, pair_xy = union[lo:hi], pairs[lo:hi]
        rows = member[:, cells]
        if blocks.screens:
            # sums[0] the interference, sums[1] the void signal: (snapshot, cell, receiver)
            sums, errors, serving_sq, desired = blocks.screen(cells, pair_xy)
            with np.errstate(all="ignore"):
                count, certain = _counts(desired, *sums, thetas, betas[tier], rows, errors)
            uncertain = np.flatnonzero((rows & ~certain).any(axis=0)).tolist()
        else:
            sums = np.empty((2, len(snapshots), len(cells), 2))
            serving_sq, desired = np.empty((2, len(cells), 2))
            uncertain = range(len(cells))
        for m, b in zip(uncertain, cells[uncertain].tolist()):
            _, dist_sq, power = blocks.links(b, pair_xy[m])
            serving_sq[m], desired[m] = dist_sq[:, b], power[:, b]  # the screen's bits
            sums[:, :, m] = _sums(power, b, blocks.exact)
        if uncertain or not blocks.screens:
            with np.errstate(all="ignore"):
                count, _ = _counts(desired, *sums, thetas, betas[tier], rows)
        for point, point_count, point_rows in zip(totals, count, rows):
            point.successes[tier] += point_count
            # one sum over the point's own cells: it depends neither on
            # the other points' cells nor on the block size
            dist_sq = serving_sq[point_rows]
            point.sum_near_dist_sq[tier] += dist_sq[:, 0].sum()
            point.sum_far_dist_sq[tier] += dist_sq[:, 1].sum()
            point.samples[tier] += len(dist_sq)
    return totals


def run_trial_sets(grid, window=None, n_trials=20, seed=0, max_cells_per_tier=None, n_jobs=1):
    """Accumulated outcomes of n_trials trials at each scenario point of grid.

    Returns one TrialTotals per point, in order.  Every point uses one
    window (a point's default_window when None) and one seed.  Points
    that share their tiers and path-loss exponent form a group, and trial
    t of a group is one run_coupled_trial over all its points, keyed on
    (seed, t): one snapshot serves every point.  A point's totals are the
    same whichever other points share its group, and those of one group
    share common random numbers.  The trials of all groups share one set
    of n_jobs workers at most, this process and the children it forks (see
    _map_trials), and each point's trials merge in trial order, so serial
    and parallel execution agree exactly, distance sums included.
    """
    groups = {}
    for k, params in enumerate(grid):
        groups.setdefault((params.tiers, params.pathloss_exponent), []).append(k)
    members = list(groups.values())
    parts = _map_trials([tuple(grid[k] for k in group) for group in members], window,
                        n_trials, seed, max_cells_per_tier, n_jobs)
    totals = [TrialTotals.zeros(params.n_tiers) for params in grid]
    for g, group in enumerate(members):
        for part in parts[g * n_trials:(g + 1) * n_trials]:
            for k, point in zip(group, part):
                totals[k].merge(point)
    return totals


def run_trials(params, window=None, n_trials=20, seed=0, max_cells_per_tier=None, n_jobs=1):
    """run_trial_sets at the one point params: the accumulated outcomes of
    run_single_trial(params, window, seed, t, max_cells_per_tier), t < n_trials."""
    return run_trial_sets((params,), window, n_trials, seed, max_cells_per_tier, n_jobs)[0]


def _map_trials(grids, window, n_trials, seed, max_cells_per_tier, n_jobs):
    """run_coupled_trial(grid, window, seed, trial, max_cells_per_tier) for
    each grid of grids and each trial in range(n_trials), in that order.

    The jobs run on min(n_jobs, jobs, CPUs) workers (_run_forked); with one,
    or where the platform cannot fork, all in this process.  scipy.spatial,
    which every trial's tessellation needs, is imported before any fork, so
    the workers inherit it; multiprocessing is imported only to fork.  A
    budget that is not an integer >= 1, or a seed that is not one
    (checks.random_seed), raises ConfigError before any trial.
    """
    random_seed(seed)
    integer(n_trials, "n_trials", 1)
    integer(n_jobs, "n_jobs", 1)
    if max_cells_per_tier is not None:
        integer(max_cells_per_tier, "max_cells_per_tier", 1)
    jobs = [(grid, window, seed, trial, max_cells_per_tier)
            for grid in grids for trial in range(n_trials)]
    import scipy.spatial  # noqa: F401  (loaded once, before any fork)

    workers = min(n_jobs, len(jobs), _cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        if "fork" in multiprocessing.get_all_start_methods():
            return _run_forked(jobs, workers, multiprocessing.get_context("fork"))
    return [run_coupled_trial(*job) for job in jobs]


def _cpu_count():
    """The CPUs this process may run on (None if unknown)."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _run_forked(jobs, workers, context):
    """The results of jobs, in order, job i run by worker i mod workers:
    worker 0 is this process, each other one a child forked from context
    that sends each result of its share over a one-way pipe as it
    completes.

    Between its own jobs this process reads what the children have sent.
    A run raises the error of the first failing job in job order, as a
    serial run does, as soon as every earlier job has finished, and
    SimulationError when a child exits before sending a result the run
    needs (killed, or its error cannot be pickled); SystemExit or
    KeyboardInterrupt ends the run at once.  This process starts none of
    its jobs after a known failure.  Every child is killed and reaped
    however the run ends, and exits by itself if this process is killed
    outright.
    """
    from multiprocessing.connection import wait

    n = len(jobs)
    missing = object()
    results = [missing] * n
    children, sending = [], {}  # sending: receiver -> [child, the job it sends next]
    first = 0                   # every job before it has succeeded
    failed = n                  # the first job known to have failed, or never to come
    own = 0                     # this process's next job
    try:
        for w in range(1, workers):
            receiver, sender = context.Pipe(duplex=False)
            child = context.Process(target=_run_child, args=(jobs[w::workers], sender))
            child.start()
            children.append((child, receiver))
            sending[receiver] = [child, w]
            sender.close()
        while True:
            while first < failed and results[first] is not missing:
                first += 1
            if first == n:
                return results
            if first == failed:
                raise results[first]
            timeout = None
            if own < failed:
                results[own] = _attempt(jobs[own])
                if isinstance(results[own], Exception):
                    failed = own
                own += workers
                timeout = 0
            ready = wait(list(sending), timeout)
            while ready:
                for receiver in ready:
                    child, j = entry = sending[receiver]
                    try:
                        result = receiver.recv()
                    except (EOFError, OSError):  # OSError: the child died while sending
                        del sending[receiver]
                        if j >= n:
                            continue
                        child.join()
                        result = SimulationError(f"a worker process exited with code "
                                                 f"{child.exitcode} before sending its trials")
                    results[j] = result
                    if isinstance(result, Exception):
                        failed = min(failed, j)
                    entry[1] = j + workers
                ready = wait(list(sending), 0)
    finally:
        for child, _ in children:
            child.kill()
        for child, receiver in children:
            child.join()
            receiver.close()


def _attempt(job):
    """run_coupled_trial(*job), or the Exception it raises."""
    try:
        return run_coupled_trial(*job)
    except Exception as error:
        return error


def _run_child(jobs, sender):
    """A forked worker: sends _attempt of each of jobs in turn, up to the
    first Exception; exits once its parent is gone."""
    from multiprocessing import parent_process

    threading.Thread(target=_exit_after, args=(parent_process(),), daemon=True).start()
    for job in jobs:
        result = _attempt(job)
        sender.send(result)
        if isinstance(result, Exception):
            break


def _exit_after(parent):
    parent.join()
    os._exit(1)


@dataclass(frozen=True)
class CoverageEstimate:
    """Monte Carlo coverage estimate with a 95% normal-approximation CI."""

    scheme: str
    tier: int
    role: str
    p_hat: float
    ci_halfwidth: float
    n_samples: int
    low_samples: bool

    @classmethod
    def from_counts(cls, scheme, tier, role, successes, n):
        if n == 0:
            return cls(scheme, tier, role, math.nan, math.nan, 0, True)
        p = successes / n
        ci = 1.96 * math.sqrt(p * (1.0 - p) / n)
        return cls(scheme, tier, role, p, ci, int(n), n < 100)


def estimates_from_totals(totals, schemes=SCHEMES):
    """Estimates of accumulated totals: per tier, scheme (in `schemes` order) and role."""
    schemes = check_schemes(schemes)
    out = []
    for tier in range(totals.successes.shape[0]):
        for scheme in schemes:
            s = SCHEMES.index(scheme)
            for r, role in enumerate(ROLES):
                out.append(
                    CoverageEstimate.from_counts(
                        scheme, tier, role,
                        int(totals.successes[tier, s, r]), int(totals.samples[tier]),
                    )
                )
    return out


@dataclass(frozen=True)
class CellCensus:
    """Void-cell and user-count statistics over every sampled BS."""

    n_bs: int
    n_void: int
    count_histogram: np.ndarray

    @property
    def void_fraction(self):
        return self.n_void / self.n_bs


def cell_census(params, window=None, n_snapshots=100, seed=0):
    """Empirical per-BS user-count distribution over many snapshots.

    A trial reads only min(count, 2) of a count, so the census draws the
    full counts itself: snapshot t has trial t's BSs, and each BS's count
    is Poisson(user_intensity x area of its Voronoi cell), drawn
    from the points stream after the tiers.  ConfigError unless
    n_snapshots is an integer >= 1 and seed a seed (checks.random_seed),
    or when the window is over the point budget (check_point_budget).
    """
    integer(n_snapshots, "n_snapshots", 1)
    window = check_point_budget(params, window)
    counts = []
    for trial in range(n_snapshots):
        tier_xy, rng = _sample_tiers(params, window, seed, trial)
        areas = periodic_voronoi(np.concatenate(tier_xy), window).areas
        counts.append(rng.poisson(params.user_intensity * areas))
    hist = np.bincount(np.concatenate(counts), minlength=1)
    return CellCensus(n_bs=int(hist.sum()), n_void=int(hist[0]), count_histogram=hist)
