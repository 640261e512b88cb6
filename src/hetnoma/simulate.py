"""Monte Carlo evaluation of the exact NOMA SIR decoding events.

One trial samples the whole network once (BS tiers, user counts, void
flags and every BS's scheduled pair), then evaluates the decoding events
of both schemes in every tagged cell: a non-void inner-region BS with at
least two users, two of which are scheduled uniformly at random.

A snapshot gets its user counts and pairs from one of two samplers,
chosen by the load user_intensity / total_intensity (users per BS):

  * association, below TESSELLATION_MIN_USERS_PER_BS: every user of the
    PPP is placed and attached to its nearest BS; the pair is two of the
    BS's users;
  * tessellation, at or above it: counts[b] ~ Poisson(user_intensity x
    area of the window-clipped Voronoi cell of b), independently, and the
    pair is two i.i.d. uniform points in that cell.  Given the BSs, the
    users in a cell form a PPP of that intensity on the cell, so both
    samplers give counts and pairs of the same law; this one costs the
    same at any load.

Either way the snapshot hands out each BS's pair as coordinates, the near
user (the nearer of the two) first, and nothing after it knows which
sampler ran.

Every random draw of a trial comes from one of four streams keyed by
(seed, trial, purpose):

  * points: the BS tiers, then the users (association) or every BS's
    count in global BS order (tessellation);
  * cap: the uniform subsample of tagged cells per tier, when capped;
  * pairs: the scheduled pair of every BS, in global BS order, drawn in
    one call for all BSs whether or not a BS is evaluated: two ranks in
    the BS's user list (association), or an (n_bs, 2, 3) block of
    uniforms, three per user, one picking a triangle of the cell's fan by
    area and two placing the point in it (tessellation);
  * fades: the fades of the cell served by BS b are the 2 * n_bs 64-bit
    outputs at positions [2 n_bs b, 2 n_bs (b + 1)) of the fade stream,
    the near user's n_bs links first; the loop jumps to each block with
    PCG64.advance and turns each output into one exponential variate.

So trials are independent work units and can run in any order or in
parallel with identical aggregate counts; a cell's pair and fades depend
only on (seed, trial, cell) and the snapshot, so a per-tier cap changes
nothing in the cells it keeps; and both schemes are evaluated on the same
fades (the serving link's fade is its block's column at the serving BS),
which makes each cooperative event a superset of the non-cooperative one
cell by cell.

Interference at a receiver sums over all non-void BSs in the full window
except the serving one; the cooperative signal sums over all void BSs of
every tier, evaluated at the receiving user's own location.  Tagged cells
are evaluated in blocks whose (cells, 2, n_bs) buffers hold at most
BLOCK_BYTES each; schedule_noma_users, evaluate_noncoop and evaluate_coop
are one-cell views of the same block computation.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .checks import ConfigError, integer
from .coverage import SCHEMES, check_schemes
from .geometry import Window, associate, clipped_voronoi, default_window, sample_ppp

ROLES = ("near", "far")

# stream purposes within one (seed, trial)
_STREAM_POINTS = 0
_STREAM_CAP = 1
_STREAM_PAIRS = 2
_STREAM_FADES = 3

# Size of each (cells, 2, n_bs) float buffer of a block of tagged cells:
# small enough to stay in cache, large enough that numpy calls run over
# many cells at once (16 cells at the stock 2,034 BSs).
BLOCK_BYTES = 2**19


# Load (users per BS) from which build_snapshot draws user counts from
# clipped Voronoi cell areas instead of sampling and associating every
# user.  The tessellation's cost does not depend on the load, the
# association's grows with it; a trial costs the same on both at about
# 12.4 users per BS, and this is 1.5 times that, rounded up (ROADMAP
# item 4 has the measurements).
TESSELLATION_MIN_USERS_PER_BS = 19.0

# Ceiling on the expected number of points (BSs, plus users where they are
# placed) one snapshot samples: far above the at most 20 x 2,000 that the
# default window holds, far below what runs a machine out of memory.
MAX_EXPECTED_POINTS = 5e6


class SimulationError(RuntimeError):
    pass


def check_point_budget(params, window=None):
    """Reject a scenario whose snapshots would hold too many points.

    A snapshot places the BSs, and the users only below
    TESSELLATION_MIN_USERS_PER_BS users per BS (see tessellates).  The
    expected count of those points is their intensity times the window
    area, on default_window(params) when no window is given; it raises
    ConfigError when over MAX_EXPECTED_POINTS.  The default window holds
    about DEFAULT_EXPECTED_BS BSs, so only an explicit window can go over.
    """
    window = window if window is not None else default_window(params)
    users = 0.0 if tessellates(params) else params.user_intensity * window.area
    expected = params.total_intensity * window.area + users
    if not expected <= MAX_EXPECTED_POINTS:
        raise ConfigError(
            "window", f"a snapshot would hold {expected:.3g} points in expectation "
            f"({users:.3g} users), above the simulator's limit of {MAX_EXPECTED_POINTS:.0e}"
        )


def _entropy(seed):
    return tuple(seed) if isinstance(seed, (tuple, list)) else (int(seed),)


def _stream(seed, trial, *key):
    ss = np.random.SeedSequence(entropy=_entropy(seed), spawn_key=(int(trial), *key))
    return np.random.Generator(np.random.PCG64(ss))


@dataclass
class NetworkSnapshot:
    """One sampled realization of the network.

    counts[b] is the number of users BS b serves, and nonvoid[b] is True
    iff it is positive (the indicator that the BS transmits).  Global BS
    indices concatenate the tiers in order.  pair_xy[b], of shape (2, 2),
    holds the coordinates of the two users BS b schedules, the near user
    first; it is NaN where the association sampler found fewer than two.
    """

    params: object
    window: Window
    seed: object
    trial: int
    counts: np.ndarray
    pair_xy: np.ndarray = field(repr=False)
    bs_xy: np.ndarray = field(repr=False)
    bs_tier: np.ndarray = field(repr=False)
    bs_power: np.ndarray = field(repr=False)
    nonvoid: np.ndarray = field(repr=False)

    @property
    def n_bs(self):
        return self.bs_xy.shape[0]

    def tagged_cells(self, tier):
        """Inner-region BSs of one tier with >= 2 users."""
        inner = self.window.contains(self.bs_xy, inner=True)
        return np.flatnonzero(inner & (self.counts >= 2) & (self.bs_tier == tier))


def _snapshot(params, window, seed, trial, bs_per_tier, user_xy=None, rng=None):
    """Flatten the tiers into global BS arrays; give every BS its users and pair.

    With user_xy, the users are associated.  Without, counts[b] is drawn
    from rng as Poisson(user_intensity x area of the clipped cell of b).
    """
    bs_xy = np.concatenate(bs_per_tier)
    n_bs = len(bs_xy)
    bs_tier = np.concatenate(
        [np.full(len(p), t, dtype=np.intp) for t, p in enumerate(bs_per_tier)]
    )
    powers = np.array([t.power_watts for t in params.tiers])
    pairs = _stream(seed, trial, _STREAM_PAIRS)
    if user_xy is not None:
        assoc = associate(bs_xy, user_xy)
        counts = assoc.counts
        # ranks of each BS's pair within its user list: i uniform over
        # c = max(count, 2) ranks, j over the c - 1 others
        c = np.maximum(counts, 2)
        i = pairs.integers(0, c)
        j = pairs.integers(0, c - 1)
        j += j >= i
        ranks = np.stack([np.minimum(i, j), np.maximum(i, j)], axis=1)
        pair_xy = np.full((n_bs, 2, 2), np.nan)
        has = np.flatnonzero(counts >= 2)
        pair_xy[has] = user_xy[assoc.user_at(has[:, None], ranks[has])]
    else:
        voronoi = clipped_voronoi(bs_xy, window)
        counts = rng.poisson(params.user_intensity * voronoi.areas)
        # two i.i.d. uniform points in each BS's cell, three uniforms each
        pair_xy = voronoi.sample(np.arange(n_bs)[:, None], pairs.random((n_bs, 2, 3)))
    # near user first; an exact tie keeps the lower rank (the first draw) first
    dx, dy = bs_xy[:, None, 0] - pair_xy[..., 0], bs_xy[:, None, 1] - pair_xy[..., 1]
    serving_sq = dx * dx + dy * dy
    far_first = serving_sq[:, 1] < serving_sq[:, 0]
    pair_xy[far_first] = pair_xy[far_first, ::-1]
    return NetworkSnapshot(
        params=params, window=window, seed=seed, trial=trial, counts=counts, pair_xy=pair_xy,
        bs_xy=bs_xy, bs_tier=bs_tier, bs_power=powers[bs_tier], nonvoid=counts > 0,
    )


def tessellates(params):
    """Whether snapshots of params take user counts from Voronoi cell areas.

    True when the load, user_intensity / total_intensity users per BS, is
    at least TESSELLATION_MIN_USERS_PER_BS.
    """
    return params.user_intensity / params.total_intensity >= TESSELLATION_MIN_USERS_PER_BS


def build_snapshot(params, window, seed, trial):
    """Sample all tiers and give every BS its users; flag void cells.

    Below TESSELLATION_MIN_USERS_PER_BS users per BS, every user is sampled
    and associated; from there on, each BS's count is drawn from its
    clipped Voronoi cell area (see tessellates).  Bit-identical for
    identical (seed, trial).  Fails before sampling if the expected point
    count is over MAX_EXPECTED_POINTS, and after it if the window is so
    small that it contains no base station.
    """
    check_point_budget(params, window)
    rng = _stream(seed, trial, _STREAM_POINTS)
    bs_per_tier = [sample_ppp(t.intensity, window, rng) for t in params.tiers]
    user_xy = None if tessellates(params) else sample_ppp(params.user_intensity, window, rng)
    if sum(len(p) for p in bs_per_tier) == 0:
        raise SimulationError("window contains no base stations; enlarge the window")
    return _snapshot(params, window, seed, trial, bs_per_tier, user_xy, rng)


def snapshot_from_points(params, window, bs_xy_per_tier, users_xy, seed=0, trial=0):
    """Snapshot with hand-placed points (testing and worked examples); always associates."""
    bs_per_tier = [np.asarray(xy, dtype=float).reshape(-1, 2) for xy in bs_xy_per_tier]
    user_xy = np.asarray(users_xy, dtype=float).reshape(-1, 2)
    return _snapshot(params, window, seed, trial, bs_per_tier, user_xy)


@dataclass
class TaggedCell:
    """A serving BS with its two scheduled users, fading draws and received powers.

    Every per-receiver array has the near receiver first, as the
    snapshot's pair_xy[bs_index] orders the two users.  link_gains and
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


class _CellBlocks:
    """One trial's fade stream and block buffers.

    powers(cells) evaluates up to `size` tagged cells, given in increasing
    BS order across calls, into the first rows of the buffers.  bs_x and
    bs_y are the contiguous coordinate columns of the snapshot's bs_xy;
    nonvoid_weight and void_weight are its nonvoid flags and their
    negation as float 1/0 weights, the form the block mat-vecs multiply by.
    """

    def __init__(self, snapshot, size=None):
        self.snapshot = snapshot
        n_bs = snapshot.n_bs
        self.bs_x = np.ascontiguousarray(snapshot.bs_xy[:, 0])
        self.bs_y = np.ascontiguousarray(snapshot.bs_xy[:, 1])
        self.nonvoid_weight = snapshot.nonvoid.astype(float)
        self.void_weight = (~snapshot.nonvoid).astype(float)
        self.size = size or max(1, BLOCK_BYTES // (16 * n_bs))
        self.fades = np.empty((self.size, 2, n_bs))
        self.dist_sq = np.empty((self.size, 2, n_bs))
        self.power = np.empty((self.size, 2, n_bs))
        self.uniform = _stream(snapshot.seed, snapshot.trial, _STREAM_FADES)
        self.position = 0

    def powers(self, cells):
        """Serving dist^2 and received powers of the pairs of `cells`.

        Returns (serving_dist_sq, desired, interference, void_signal), each
        of shape (len(cells), 2) with the near user first.
        """
        snap = self.snapshot
        k, span = len(cells), 2 * snap.n_bs
        ux, uy = snap.pair_xy[cells, :, 0], snap.pair_xy[cells, :, 1]
        fades, dist_sq, power = self.fades[:k], self.dist_sq[:k], self.power[:k]
        for row, b in zip(fades, cells.tolist()):
            self.uniform.bit_generator.advance(span * b - self.position)
            self.uniform.random(out=row)
            self.position = span * (b + 1)
        # -log1p(-U): one exponential per 64-bit output
        np.negative(fades, out=fades)
        np.log1p(fades, out=fades)
        np.negative(fades, out=fades)
        np.subtract(self.bs_x, ux[:, :, None], out=dist_sq)
        np.multiply(dist_sq, dist_sq, out=dist_sq)
        np.subtract(self.bs_y, uy[:, :, None], out=power)
        np.multiply(power, power, out=power)
        np.add(dist_sq, power, out=dist_sq)
        alpha = snap.params.pathloss_exponent
        if alpha == 4.0:
            np.multiply(dist_sq, dist_sq, out=power)
            np.divide(fades, power, out=power)
        else:
            np.power(dist_sq, -alpha / 2.0, out=power)
            np.multiply(power, fades, out=power)
        np.multiply(power, snap.bs_power, out=power)
        rows = np.arange(k)
        serving_sq = dist_sq[rows, :, cells]
        desired = power[rows, :, cells]
        # the serving BS is non-void: dropping its column from the power
        # buffer leaves the two sums over the other BSs
        power[rows, :, cells] = 0.0
        interference = power @ self.nonvoid_weight
        void_signal = power @ self.void_weight
        return serving_sq, desired, interference, void_signal


def schedule_noma_users(snapshot, bs_index):
    """The scheduled pair of a BS with its fading draws and received powers.

    Returns None for void and single-user cells (those keep their void
    flag / full-power role but contribute no two-user NOMA statistics).
    The result is bit-identical to the cell's values in a whole-trial
    run: it depends only on (seed, trial, bs_index) and the snapshot.
    """
    if snapshot.counts[bs_index] < 2:
        return None
    blocks = _CellBlocks(snapshot, size=1)
    serving_sq, desired, interference, void_signal = blocks.powers(
        np.array([bs_index], dtype=np.intp))
    return TaggedCell(
        bs_index=int(bs_index), tier=int(snapshot.bs_tier[bs_index]),
        distances=np.sqrt(serving_sq[0]), desired=desired[0], interference=interference[0],
        void_signal=void_signal[0], link_gains=blocks.fades[0].copy(),
        link_dist_sq=blocks.dist_sq[0].copy(),
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


def _outcome(desired, interference, coop, theta, beta):
    """Cross-multiplied SIR events (division-free, exact for zero interference).

    Arrays have the receiver (near, far) on their last axis.  The far
    signal carries the fraction beta of the full-power signal desired,
    the near signal 1 - beta, and both traverse the same serving-link
    fade.  coop is the joint signal added to the far-signal numerator at
    each receiver: the void-cell signal with cooperation, zero without.
    The near user's post-cancellation stage is the same in both schemes.
    Returns (first stage, SIC stage, near covered, far covered).
    """
    d0, d1 = desired[..., 0], desired[..., 1]
    i0, i1 = interference[..., 0], interference[..., 1]
    first = beta * d0 + coop[..., 0] >= theta * ((1.0 - beta) * d0 + i0)
    sic = (1.0 - beta) * d0 >= theta * i0
    far = beta * d1 + coop[..., 1] >= theta * ((1.0 - beta) * d1 + i1)
    return first, sic, first & sic, far


def _sample(cell, theta, beta, coop):
    return SirSample(*(bool(e) for e in _outcome(cell.desired, cell.interference, coop, theta, beta)))


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
    """All tagged-cell outcomes of one snapshot, as TrialTotals.

    max_cells_per_tier, when set, evaluates a uniform random subsample of
    at most that many tagged cells per tier (unbiased; used to balance
    effort across tiers of very different density).
    """
    snapshot = build_snapshot(params, window, seed, trial)
    totals = TrialTotals.zeros(params.n_tiers)
    blocks = _CellBlocks(snapshot)
    theta = params.sir_threshold
    for tier in range(params.n_tiers):
        cells = snapshot.tagged_cells(tier)
        if max_cells_per_tier is not None and len(cells) > max_cells_per_tier:
            rng = _stream(seed, trial, _STREAM_CAP, tier)
            cells = np.sort(rng.choice(cells, size=max_cells_per_tier, replace=False))
        beta = params.beta[tier]
        for start in range(0, len(cells), blocks.size):
            serving_sq, desired, interference, void_signal = blocks.powers(
                cells[start:start + blocks.size])
            for s, coop in enumerate((np.zeros_like(void_signal), void_signal)):
                _, _, near, far = _outcome(desired, interference, coop, theta, beta)
                totals.successes[tier, s] += (np.count_nonzero(near), np.count_nonzero(far))
            totals.sum_near_dist_sq[tier] += serving_sq[:, 0].sum()
            totals.sum_far_dist_sq[tier] += serving_sq[:, 1].sum()
        totals.samples[tier] += len(cells)
    return totals


def _trial_worker(args):
    return run_single_trial(*args)


def run_trial_sets(points, n_trials, max_cells_per_tier=None, n_jobs=1):
    """Accumulated outcomes of n_trials snapshots at each scenario point.

    points is a sequence of (params, window, seed); a window of None means
    default_window(params).  Returns one TrialTotals per point, in order.
    Trials use streams keyed by (seed, trial) and each point's trials merge
    in trial order, so serial and parallel execution agree exactly,
    distance sums included.  The trials of all points share one pool:
    n_jobs caps its worker processes, which never outnumber the trials of
    the whole run or the CPUs; with one, the trials run in this process.
    A budget that is not an integer >= 1 raises ConfigError before any trial.
    """
    integer(n_trials, "n_trials", 1)
    integer(n_jobs, "n_jobs", 1)
    if max_cells_per_tier is not None:
        integer(max_cells_per_tier, "max_cells_per_tier", 1)
    points = [(params, window if window is not None else default_window(params), seed)
              for params, window, seed in points]
    jobs = [(params, window, seed, trial, max_cells_per_tier)
            for params, window, seed in points for trial in range(n_trials)]
    totals = [TrialTotals.zeros(params.n_tiers) for params, _, _ in points]
    # a fork pool starts all max_workers processes at once
    workers = min(n_jobs, len(jobs), os.cpu_count() or 1)
    with _worker_pool(workers) as pool:
        run = pool.map if pool is not None else map
        for k, part in enumerate(run(_trial_worker, jobs)):
            totals[k // n_trials].merge(part)
    return totals


@contextmanager
def _worker_pool(workers):
    """A pool of `workers` processes, or None for one.

    When the block raises (SystemExit on SIGTERM included), the pool
    cancels every trial not yet started, then waits for its workers to
    finish the trials they hold and exit.
    """
    if workers <= 1:
        yield None
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        try:
            yield pool
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise


def run_trials(params, window=None, n_trials=20, seed=0, max_cells_per_tier=None, n_jobs=1):
    """Accumulated outcomes of n_trials independent snapshots.

    The one-point case of run_trial_sets: serial and parallel execution
    agree exactly, and n_jobs caps the worker processes.
    """
    [totals] = run_trial_sets([(params, window, seed)], n_trials, max_cells_per_tier, n_jobs)
    return totals


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
    """Void-cell and user-count statistics over inner-region BSs."""

    n_bs: int
    n_void: int
    count_histogram: np.ndarray

    @property
    def void_fraction(self):
        return self.n_void / self.n_bs


def cell_census(params, window=None, n_snapshots=100, seed=0):
    """Empirical per-BS user-count distribution over many snapshots.

    The counts come from build_snapshot, so from the same sampler as the
    trials at that load.  ConfigError unless n_snapshots is an integer >= 1.
    """
    integer(n_snapshots, "n_snapshots", 1)
    window = window if window is not None else default_window(params)
    counts = []
    for trial in range(n_snapshots):
        snap = build_snapshot(params, window, seed, trial)
        counts.append(snap.counts[window.contains(snap.bs_xy, inner=True)])
    hist = np.bincount(np.concatenate(counts), minlength=1)
    return CellCensus(n_bs=int(hist.sum()), n_void=int(hist[0]), count_histogram=hist)
