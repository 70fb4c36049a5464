"""Monte Carlo outage trials for both relay-knowledge regimes.

Reproducibility contract
------------------------
Trial ``t`` of a run seeded with ``s`` draws from its own counter-based
stream, ``Generator(Philox(key=s, counter=[0, 0, 0, t]))``; streams of
distinct trials never overlap and do not depend on scheduling, so every
sampler's output is bit-identical for any worker count. One function
states a trial's Philox state (:func:`_trial_state`) and refuses a seed or
trial index that is not an integer. A sampler keeps a pool of generators,
one per trial of a block, all built from one shared ``SeedSequence``
(:func:`_pool`), and moves each onto its trial's stream by assigning it
that state: :func:`_blocks` builds the state once per pass, as a template
whose counter word it moves per trial, and :func:`trial_rng` builds it per
call. So a reset generator draws exactly what a fresh ``trial_rng(s, t)``
draws.

Every trial draws on its own stream in one fixed order: the Poisson relay
count, then a radius variate for every relay, then an angle variate for
every relay, then a first-hop fading gain for every relay, then a
second-hop gain for every relay qualified under the pass's loosest
first-hop threshold, in input order. This is the one statement of the
order; the reproducibility contract and every golden stream rest on it.
That union holds every threshold's qualified relays, and
``standard_exponential(n)`` returns the first ``n`` values of
``standard_exponential(N)`` on the same stream, so a row with ``J``
qualified relays reads exactly the gains it would draw alone: both
strategies and every row of :func:`estimate_outage_grid` share realizations
and channels draw for draw. The distance samplers
(:func:`empirical_mean_count`, :func:`kth_nearest_qualified_distances`)
read only positions, which come before every gain of a trial, so trial
``t`` shows them the qualified relays the outage grid sees at their
threshold.

One block loop serves every sampler (:func:`run_requests`). Trials are
drawn and handed on in blocks of up to :data:`_BLOCK_TRIALS`
(:func:`_blocks`), each trial on a generator of its own, so a block is
drawn in two phases (:func:`_draw_block`). Per trial run only the stream
calls, in the order above, each writing into the block's buffers: first
everything up to the first-hop gains (:func:`_draw_fields`), then, once
the block knows which relays qualify, the second-hop gains. Per block runs
everything else: radii and angles from the variates (angles of qualified
relays only), path losses, the first-hop test, trial indices, compaction
and one destination-distance computation. A block lists the per-trial
relay counts, then the qualified relays of its trials concatenated,
grouped by trial in input order: trial indices, source distances, squared
destination distances, second-hop gains, and the first-hop gains and
losses when some threshold is tighter than the loosest.
A request brings its own first-hop thresholds and its own trial count: it
reads the pass's first trials up to its count, and of each block the views
at its thresholds. A view holds the block's relays qualified at one
threshold, in the block's layout. Each block is thinned once for every
threshold that some request reads (:func:`_ladder`), from the loosest up,
each view from the one before, by one function, :func:`_thin`: it keeps
the relays that pass the ``gains >= theta * loss`` test a draw at that
threshold makes, and hands each the second-hop gain that draw would give
it; a looser view holds every relay that a tighter one keeps. An outage
grid decides every row on its threshold's view with array operations
(:func:`_decide`); mean counts count the relays within each radius for
both observers without sorting, in one count array per block; k-th
nearest distances order the block's relays in one sort, by trial and then
by squared distance. Each result reads only its own trial's relays, so
none depends on the block size or on the other requests of the pass.
Worker processes take contiguous ranges of trials; parts combine by
integer sums or in range order. :func:`running_requests` forks them before
its caller's ``with`` block runs, each holding its range from the fork, so
the caller can work while they draw; leaving the block terminates them.
"""

from __future__ import annotations

import functools
import math
import operator
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .model import CellGeometry, RadioParams, Thresholds, compute_thresholds
from .model import check_choice, check_count, check_finite, check_increasing
from .model import check_integer, check_radii

STRATEGIES = ("exact", "stat")
OBSERVERS = ("bs", "dest")


#: Trials decided together, at most; fewer where a block would hold more
#: than :data:`_BLOCK_RELAYS` relays on average (:func:`_blocks`). No count
#: depends on either. Below ~64 trials the decision's cost is per-call
#: numpy overhead: on criterion 4's 25-row plan
#: :func:`_decide` takes ~45-75 us per trial at 16, ~35-55 at 32 and ~35-50
#: at 64 to 256 (2 vCPU). Memory grows with it. While a block is drawn it
#: holds whole fields, ~64 * lambda*pi*R^2 relays by 4 doubles (radius,
#: angle, first-hop gain and loss), about 1.3 MB on the default cell, in the
#: one field buffer that :func:`_blocks` keeps for its blocks; once
#: drawn it holds the qualified relays of this many trials (up to ~630 each
#: on the default cell), ~1.1 MB at 64 and ~4.5 MB at 256. Its views at
#: criterion 4's 21 thresholds (:func:`_ladder`) add ~2.1 MB at 64 and
#: ~8.4 MB at 256, and one decision's traced peak, the views included, is
#: ~2.9 MB at 64, ~11.6 MB at 256. Going from 16 to 64 raised perfbench's
#: peak RSS by ~4% on ``gate`` and ~5% on ``mc_outage``
#: (``BENCH_block64.json``); drawing whole blocks raised it by another
#: ~3.5% on both (``BENCH_blockdraw.json``).
_BLOCK_TRIALS = 64
#: A block's mean relay count, at most, unless one trial alone holds more.
#: Cells up to ~1,000 relays per trial (the default cell has ~630) keep
#: blocks of :data:`_BLOCK_TRIALS`; a larger cell draws fewer trials per
#: block, so a block's field stays near 2^16 relays by 4 doubles (2 MiB)
#: instead of growing with the cell.
_BLOCK_RELAYS = 1 << 16
#: The largest mean relay count per trial (``cell.mean_relay_count``) that
#: a pass draws; a larger cell is refused before any draw
#: (:func:`running_requests`). A chosen limit: one trial's field is drawn
#: whole, and just under the bound (R = 3268, lam = 0.5, 2 trials) one
#: process peaked at 565 MiB RSS with one worker, and each of two workers
#: at 559 MiB, so ~1.1 GiB together; the peak grows ~32 bytes per relay.
MAX_MEAN_RELAYS = 1 << 24
#: The most radii a mean-count grid holds (:class:`MeanCountRequest`); a
#: longer grid is refused before any draw. A chosen limit: a block's counts
#: grow with the grid, and at 2^17 radii ``mean-count`` at its default 4000
#: trials peaked at 160 MiB RSS with one worker, and at 156 MiB in the
#: largest process with two (a block holds one count array, 64 MiB here, and
#: a pass one running sum per request, so the peak does not grow with the
#: trials).
MAX_RADII = 1 << 17
#: The highest rank a k-th-distance sample holds (:class:`KthDistancesRequest`'s
#: ``k_max``); a higher one is refused before any draw
#: (:func:`check_distances`). A chosen limit: criterion 6 holds ``k_max``
#: order-statistic densities per profile node (696 nodes at 15 dB on the
#: default cell). At the bound, ``fk-check --k-max 1024 --samples 16384``
#: peaked at 294 MiB RSS with one worker (2.7 s), and at 288 MiB in the
#: larger process with two.
MAX_RANK = 1 << 10
#: The most distances (trials times ``k_max``) a k-th-distance sample holds;
#: a larger one is refused before any draw (:func:`check_distances`). A
#: chosen limit: the sample is 8 bytes per distance, held once as its
#: blocks and once joined, and criterion 6 sorts and tests each rank's
#: column. At the bound ``fk-check`` peaked at 300 MiB RSS at 16 ranks
#: (one worker, 29 s), and in the larger of two processes at 775 MiB at 3
#: ranks (``validate``'s most, 85 s) and 1,549 MiB at one rank (289 s).
MAX_DISTANCES = 1 << 24


def _trial_state(seed: int, trial_index: int) -> dict:
    """The Philox state at the start of trial ``trial_index``'s stream:
    counter ``[0, 0, 0, t]``, key ``seed mod 2**128`` as two little-endian
    64-bit words, nothing buffered. This is the one definition of a trial's
    stream. ``seed`` and ``trial_index`` must be integers (numpy integers
    too, bools not) and ``trial_index`` >= 0; else a ``ValueError`` names
    the argument."""
    high, low = divmod(check_integer("seed", seed) % (1 << 128), 1 << 64)
    return {
        "bit_generator": "Philox",
        "state": {"counter": [0, 0, 0, check_integer("trial_index", trial_index, 0)], "key": [low, high]},
        "buffer": [0, 0, 0, 0],
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def _pool(n: int) -> list[np.random.Generator]:
    """``n`` Philox generators to be placed on trial streams, built from one
    shared ``SeedSequence``: a generator built without one reads OS entropy
    for a state that the placing overwrites anyway."""
    seeds = np.random.SeedSequence(0)
    return [np.random.Generator(np.random.Philox(seeds)) for _ in range(n)]


def trial_rng(seed: int, trial_index: int) -> np.random.Generator:
    """Independent, scheduling-invariant stream for one trial, on a generator
    of its own."""
    rng = _pool(1)[0]
    rng.bit_generator.state = _trial_state(seed, trial_index)
    return rng


def usable_cpus() -> int:
    """CPUs this process may run on: the upper bound on a pass's worker
    processes, and the worker count of a command without ``--workers``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class OutageEstimate:
    """Binomial outage estimate with its standard error."""

    trials: int
    outage_count: int
    p_hat: float
    stderr: float

    @classmethod
    def from_counts(cls, outage_count: int, trials: int) -> "OutageEstimate":
        if not (trials >= 1 and 0 <= outage_count <= trials):
            raise ValueError("need 0 <= outage_count <= trials and trials >= 1")
        p = outage_count / trials
        return cls(trials, outage_count, p, math.sqrt(p * (1.0 - p) / trials))


class _Row(NamedTuple):
    """One estimator row reduced to what a trial decides it by; ``k`` is 0
    for exact knowledge and the slot count for distance ranking."""

    theta_first: float
    theta_second: float
    k: int


def _draw_fields(
    cell: CellGeometry, gens: Sequence[np.random.Generator], out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Phase one of :func:`_draw_block`: per generator of ``gens``, one
    trial's draws in the module docstring's order up to its first-hop gains
    (a homogeneous Poisson relay field over the cell and an Exp(1) gain per
    relay), concatenated in generator order.

    Returns ``(ends, rows)``: trial ``i`` holds the relays from
    ``ends[i - 1]`` (0 for the first) up to ``ends[i]``, and ``rows`` has
    four rows of one column per relay: source distances, angles in turns
    (the angle is ``2 * pi * turns``), first-hop gains, and a row left
    unset for the caller's path losses. The count is Poisson with
    mean ``cell.mean_relay_count``; given the count, positions are i.i.d.
    uniform over the disk: radius ``R * sqrt(u)`` with ``u`` uniform on
    [0, 1) (the square root compensates for the growth of area with radius)
    and ``turns`` uniform on [0, 1). Angles stay in turns so that the
    caller converts only those it keeps. Only the draws run per trial; the
    square roots and scalings run once for all of them.

    ``rows`` is a view of the head of ``out``, a 1-D float64 buffer, when
    ``out`` holds at least ``4 * ends[-1]`` values, and a new array
    otherwise.
    """
    mean = cell.mean_relay_count
    ends = np.cumsum([rng.poisson(mean) for rng in gens], dtype=np.intp)
    n = int(ends[-1]) if ends.size else 0
    if out is not None and out.size >= 4 * n:
        rows = out[: 4 * n].reshape(4, n)
    else:
        rows = np.empty((4, n))
    radii, turns, gains = rows[:3]
    begin = 0
    for rng, end in zip(gens, ends.tolist()):
        rng.random(out=radii[begin:end])
        rng.random(out=turns[begin:end])
        rng.standard_exponential(out=gains[begin:end])
        begin = end
    np.sqrt(radii, out=radii)
    radii *= cell.cell_radius
    return ends, rows


def sq_dists_to_dest(radii: np.ndarray, angles: np.ndarray, dest_distance: float) -> np.ndarray:
    """Squared distances from relays at polar ``(radii, angles)`` about the
    cell center to the destination at ``(dest_distance, 0)``.

    Law of cosines, ``r^2 + r_d^2 - 2 r r_d cos(angle)``, clipped at 0
    against rounding. Squared distances suffice for ranking. ``radii`` and
    ``angles`` are parallel arrays and are left as they are.
    """
    # the formula's operations in its own order, in two new arrays
    cross = np.cos(angles)
    d2 = (2.0 * dest_distance) * radii
    cross *= d2
    np.multiply(radii, radii, out=d2)
    d2 += dest_distance * dest_distance
    d2 -= cross
    return np.maximum(d2, 0.0, out=d2)


def _draw_block(
    cell: CellGeometry,
    thetas: Sequence[float],
    gens: Sequence[np.random.Generator],
    field_buf: np.ndarray | None = None,
) -> tuple:
    """The trials drawn on ``gens``, one generator per trial, as one block
    ``(sizes, trial, radii, d2, g2, *first)`` to be read at the increasing
    first-hop thresholds ``thetas``: the per-trial counts of relays
    qualified at the loosest, then per such relay its trial's index in the
    block, its source distance, squared destination distance and second-hop
    gain, plus its first-hop gain and loss when a tighter threshold follows
    (:func:`_ladder` thins to it); grouped by trial, in input order.

    Each generator draws its trial in the module docstring's order: the
    field and first-hop gains (:func:`_draw_fields`), then a second-hop
    gain per qualified relay. Only these draws run per trial; the rest runs
    once for the block, and nothing that spans every drawn relay outlives
    the call but the field buffer ``field_buf``: when given, a 1-D array
    that the fields are drawn into if they fit. Every column of the block
    is an array of its own, so none of them is a view of the buffer.

    A relay at source distance ``r`` decodes the source broadcast at
    threshold ``theta`` iff its Exp(1) gain ``g`` satisfies
    ``g >= theta * (1 + r**alpha)``. The loosest threshold's qualified set
    is the union of every other's, because ``fl(theta * x)`` does not
    decrease in ``theta``.
    """
    # The block's fields, gains and losses share one buffer, which
    # ``_blocks`` reuses for its blocks. Allocated per block, the ~1.3 MB
    # (default cell) can go back to the system at each block's end and be
    # faulted in again at the next draw, as the allocator's heap history
    # decides. perfbench sees it on ``gate``: a copy of the tree at 3f2a7d2
    # without the buffer (``del block`` kept) read ``wall_s`` 0.949 s
    # against 0.877 s with it (+8.1%) and ``cpu_s`` +3.6%, each worse in 6
    # of 6 alternated pairs at seeds 901-906 (2 vCPUs); on ``mc_outage`` it
    # read 1.214 s against 1.222 s (worse in 3 of 6).
    ends, (radii, turns, gains, loss) = _draw_fields(cell, gens, out=field_buf)
    np.power(radii, cell.path_loss_exponent, out=loss)
    loss += 1.0
    # read at one threshold, a block keeps no first-hop columns and scales
    # the loss in place: keeping them always cost ``mc_outage`` ~3% wall
    # time, worse in 9 of 10 alternated benchmark pairs
    scaled = np.multiply(loss, thetas[0], out=loss if len(thetas) == 1 else None)
    keep = (gains >= scaled).nonzero()[0]
    kept_ends = keep.searchsorted(ends)
    g2 = np.empty(keep.size)
    begin = 0
    for rng, end in zip(gens, kept_ends.tolist()):
        if end > begin:  # a trial with no qualified relay makes no call
            rng.standard_exponential(out=g2[begin:end])
        begin = end
    radii, angles = radii[keep], turns[keep]
    angles *= 2.0 * math.pi
    # looked up as a module global on each call, so a profiler that wraps
    # the name times every distance computation
    d2 = sq_dists_to_dest(radii, angles, cell.dest_distance)
    sizes = kept_ends.copy()
    sizes[1:] -= kept_ends[:-1]
    block = (sizes, np.repeat(np.arange(sizes.size), sizes), radii, d2, g2)
    return block if len(thetas) == 1 else block + (gains[keep], loss[keep])


def _blocks(cell: CellGeometry, thetas: Sequence[float], seed: int, start: int, stop: int):
    """Yield trials ``start .. stop - 1`` drawn for the increasing first-hop
    thresholds ``thetas`` as blocks of up to :data:`_BLOCK_TRIALS` trials,
    and of at most ``_BLOCK_RELAYS / cell.mean_relay_count`` but at least
    one (see :func:`_draw_block`), each trial on a generator of the pool
    moved onto its stream.

    The pool (:func:`_pool`) is built once per call from one shared
    ``SeedSequence``, which reads no OS entropy. So is one state template,
    trial ``start``'s :func:`_trial_state`: a generator is moved onto trial
    ``t`` by setting the template's counter word to ``t`` and assigning the
    template as its state, with no new dict per trial.

    The fields of every block but the first are drawn into one buffer, with
    room for the 4 rows (:func:`_draw_fields`) of up to 5 standard deviations
    (plus 5) more relays than a block's Poisson mean; a block with more,
    fewer than one in a million, draws into an array of its own. The first
    block draws into an array of its own, freed before the buffer is made:
    glibc maps every allocation above its mmap threshold (128 KiB until a
    larger mapped block is freed) and unmaps it on release, so a buffer
    made up front left that threshold low for the whole pass and the
    columns of every block were faulted in afresh (60,113-69,554 minor
    faults against 1,692-15,365 in the first gate-size pass of a fresh
    process, as the heap layout decides)."""
    size = min(_BLOCK_TRIALS, max(1, int(_BLOCK_RELAYS // max(cell.mean_relay_count, 1.0))))
    pool = _pool(min(size, stop - start))
    state = _trial_state(seed, start)
    counter = state["state"]["counter"]
    mean = len(pool) * cell.mean_relay_count
    field_buf = None
    for lo in range(start, stop, size):
        gens = pool[: stop - lo]
        for t, rng in enumerate(gens, lo):
            counter[3] = t
            rng.bit_generator.state = state
        yield _draw_block(cell, thetas, gens, field_buf)
        if field_buf is None:
            field_buf = np.empty(4 * math.ceil(mean + 5.0 * math.sqrt(mean) + 5.0))


def _ladder(block: tuple, thetas: Sequence[float]) -> dict:
    """The block's view at each of the increasing thresholds ``thetas`` it
    was drawn for (:func:`_draw_block`): the block itself at the loosest,
    and above it the relays qualified at that threshold, in the order and
    with the values that a draw at it alone gives. The views are built from
    the loosest up, each thinned from the one before (:func:`_thin`); once
    one is empty, it serves every tighter threshold."""
    views, view = {}, block
    for theta in thetas:
        if views and view[1].size:
            view = _thin(block, view, theta)
        views[theta] = view
    return views


def _head(views: dict, n: int) -> dict:
    """The first ``n`` trials of each view; ``views`` itself when it holds
    no more."""
    heads = {}
    for theta, (sizes, *cols) in views.items():
        if n >= sizes.size:  # every view holds the block's trials
            return views
        relays = int(sizes[:n].sum())
        heads[theta] = (sizes[:n], *(col[:relays] for col in cols))
    return heads


def _thin(block: tuple, view: tuple, theta_first: float) -> tuple:
    """The relays of ``view`` whose first-hop gain passes the test of
    :func:`_draw_block` at ``theta_first``, as a view ``(sizes, trial,
    radii, d2, g2, gains, loss)`` of ``block``. ``view`` is the
    block itself or a view of it at a threshold not above ``theta_first``,
    so it holds every relay that passes. A trial's j-th qualified relay
    takes the block's j-th second-hop gain of that trial, which is the gain
    it would draw on its own."""
    sizes, g2 = block[0], block[4]
    _, trial, radii, d2, _, gains, loss = view
    keep = (gains >= theta_first * loss).nonzero()[0]
    tid = trial[keep]
    counts = np.bincount(tid, minlength=sizes.size)
    shift = (np.cumsum(sizes) - sizes) - (np.cumsum(counts) - counts)
    g2 = g2[np.arange(keep.size) + shift[tid]]
    return counts, tid, radii[keep], d2[keep], g2, gains[keep], loss[keep]


def _by_theta(rows: Sequence[_Row]) -> list:
    """The ``(index, row)`` pairs of ``rows`` grouped by first-hop
    threshold, loosest first."""
    by_theta = {}
    for i, row in enumerate(rows):
        by_theta.setdefault(row.theta_first, []).append((i, row))
    return sorted(by_theta.items())


def _decide(cell: CellGeometry, rows: Sequence[_Row], by_theta: list, views: dict) -> np.ndarray:
    """Outage flags, shape ``(rows, trials)``, of a block of trials.

    A row reads the block's view at its first-hop threshold (``views``,
    from :func:`_ladder`); ``by_theta`` groups the rows by it
    (:func:`_by_theta`). Exact knowledge is an outage iff no relay
    succeeds; distance ranking as in :func:`_ranked_outages`. Once a view
    is empty, so is every tighter one: its rows and all later ones are
    outages in every trial.
    """
    n = views[by_theta[0][0]][0].size
    alpha = cell.path_loss_exponent
    out = np.ones((len(rows), n), dtype=bool)
    for theta_first, group in by_theta:
        _, tid, _, d2, g2, *_ = views[theta_first]
        if tid.size == 0:
            break
        loss2 = 1.0 + (d2 if alpha == 2.0 else d2 ** (0.5 * alpha))
        for i, (_, theta_second, k) in group:
            succ = g2 >= theta_second * loss2
            if k:
                out[i] = _ranked_outages(d2, succ, tid, n, k)
            else:
                out[i] = np.bincount(tid[succ], minlength=n) == 0
    return out


def _ranked_outages(
    d2: np.ndarray, succ: np.ndarray, trial: np.ndarray, n: int, k: int
) -> np.ndarray:
    """Per trial, whether none of the ``k`` relays nearest to the destination
    succeeds; ``d2``, ``succ`` and ``trial`` list the qualified relays of
    ``n`` trials, grouped by trial in input order.

    Relays rank by ``(d2, position)``, so exact ties go to the earlier relay.
    Some selected relay succeeds iff the first succeeding relay in that
    order, at ``(v, s)``, is among the first ``k``: its rank
    ``#(d2 < v) + #(d2 == v, position < s)`` is below ``k``. No sort needed.
    """
    won = succ.nonzero()[0]
    outage = np.ones(n, dtype=bool)
    if won.size == 0:
        return outage
    won_trial, won_d2 = trial[won], d2[won]
    heads = _run_starts(won_trial).nonzero()[0]
    hit = won_trial[heads]
    v = np.full(n, np.inf)
    v[hit] = np.minimum.reduceat(won_d2, heads)
    v_at = v[trial]
    ahead = d2 < v_at
    tie = (d2 == v_at).nonzero()[0]
    if tie.size > hit.size:
        # some relay ties a winner's distance (each winner ties itself): the
        # earlier relay ranks first, so find each trial's first winner at v
        best = won[won_d2 == v[won_trial]]
        s = np.full(n, d2.size)
        s[hit] = best[_run_starts(trial[best])]
        ahead[tie] = tie < s[trial[tie]]
    outage[hit] = np.bincount(trial[ahead], minlength=n)[hit] >= k
    return outage


def _run_starts(ids: np.ndarray) -> np.ndarray:
    """Mask of the entries of the nonempty sorted ``ids`` that begin a run."""
    starts = np.empty(ids.size, dtype=bool)
    starts[0] = True
    np.not_equal(ids[1:], ids[:-1], out=starts[1:])
    return starts


def _trial_outages(
    cell: CellGeometry, rows: Sequence[_Row], rng: np.random.Generator
) -> list[bool]:
    """One trial decided for every row: whether each is an outage."""
    thetas = sorted({row.theta_first for row in rows})
    views = _ladder(_draw_block(cell, thetas, [rng]), thetas)
    return _decide(cell, rows, _by_theta(rows), views)[:, 0].tolist()


def trial_exact_csi(cell: CellGeometry, thresholds: Thresholds, rng: np.random.Generator) -> bool:
    """One trial under full channel knowledge (single-relay frame); returns
    whether it is an outage.

    The frame succeeds iff some relay passes both the first-hop test and an
    independent second-hop test; gains on the two hops of one relay and
    across relays are independent.
    """
    row = _Row(thresholds.theta_first, thresholds.theta_second, 0)
    return _trial_outages(cell, [row], rng)[0]


def trial_stat_csi(
    cell: CellGeometry, thresholds: Thresholds, k: int, rng: np.random.Generator
) -> bool:
    """One trial under distance ranking only; returns whether it is an outage.

    The ``min(k, J)`` qualified relays nearest to the destination each get
    one slot (exact distance ties go to the earlier relay in input order);
    the frame format (and hence ``theta_second``) is fixed for ``k`` slots
    in advance, even when fewer relays are available. Outage iff every
    selected relay fails, vacuously when none qualified.
    """
    row = _Row(thresholds.theta_first, thresholds.theta_second, check_count("k", k))
    return _trial_outages(cell, [row], rng)[0]


def _grid_row(strategy: str, radio: RadioParams) -> _Row:
    check_choice("strategy", strategy, STRATEGIES)
    k = radio.num_relays
    if strategy == "exact" and k != 1:
        raise ValueError("the exact-knowledge strategy is defined for num_relays == 1")
    th = compute_thresholds(radio)
    return _Row(th.theta_first, th.theta_second, 0 if strategy == "exact" else k)


def run_requests(requests: Sequence, seed: int, *, workers: int = 1) -> list:
    """Serve ``requests`` (:class:`OutageGridRequest`,
    :class:`KthDistancesRequest`, :class:`MeanCountRequest`) on one cell
    from one pass over trials ``0 .. max(trials) - 1``; returns one result
    per request, in request order.

    Each trial is drawn once, at the loosest first-hop threshold that any
    request reads (:func:`_draw_block`), and each block is thinned once to
    every threshold that some request reads (:func:`_ladder`). Every request
    whose ``trials`` reach a block reads those views, cut to its trials, at
    its own thresholds. So each result equals what the request's function
    returns on its own, count for count. A request gives its ``cell``, its
    ``trials`` and the first-hop thresholds it reads (``thetas``); it reads
    the views of each block it reaches, a dict keyed by threshold
    (``read(views)``), and what it reads adds in place by ``+=`` (an array,
    or a list joined in trial order) into its part, which starts as its
    read of no trial. It turns that one part into its result
    (``result(part)``). Worker processes as in :func:`running_requests`,
    which runs the pass.
    """
    with running_requests(requests, seed, workers=workers) as results:
        return results()


@contextmanager
def running_requests(requests: Sequence, seed: int, *, workers: int = 1):
    """Start the pass of :func:`run_requests` and yield ``results()``, which
    waits for it and returns what :func:`run_requests` returns; call it
    once.

    The trials split into contiguous ranges over ``min(workers, trials,
    CPUs)`` worker processes, where CPUs is :func:`usable_cpus`. Each worker
    is forked with its range (:func:`_start`) before the body of the
    ``with`` block runs, so it draws while the caller works; with one
    worker, the default, nothing is forked and the pass runs in this
    process when ``results()`` is called.
    ``results()`` adds the workers' parts in range order (``+=``), raises
    a worker's exception as its own, and raises ``RuntimeError`` naming the
    range of a worker that exits without a part. On leaving the block,
    normally or by an exception, every worker is terminated and joined, so
    none outlives the block. Each trial owns its stream and the parts
    combine by integer sums or in range order, so the results do not
    depend on the worker count. A bad seed, and a cell whose
    ``mean_relay_count`` exceeds :data:`MAX_MEAN_RELAYS`, raise
    ``ValueError`` before anything is drawn or forked.
    """
    requests = tuple(requests)
    if not requests:
        raise ValueError("requests must be nonempty")
    if any(request.cell != requests[0].cell for request in requests):
        raise ValueError("requests must share one cell")
    trials = max(request.trials for request in requests)
    workers = min(check_count("workers", workers), trials, usable_cpus())
    _trial_state(seed, 0)  # refuses a bad seed before any worker is forked
    mean = requests[0].cell.mean_relay_count
    if mean > MAX_MEAN_RELAYS:
        raise ValueError(
            f"mean_relay_count {mean:.4g} exceeds MAX_MEAN_RELAYS = {MAX_MEAN_RELAYS}: "
            "a trial draws its whole relay field at once"
        )

    def merged(parts: list) -> list:
        return [r.result(functools.reduce(operator.iadd, column)) for r, column in zip(requests, zip(*parts))]

    if workers == 1:
        yield lambda: merged([_pass(requests, seed, 0, trials)])
        return
    bounds = [(i * trials // workers, (i + 1) * trials // workers) for i in range(workers)]
    started = []
    try:
        for lo, hi in bounds:
            started.append(_start(requests, seed, lo, hi))
        # received before any join: a part larger than the pipe holds
        # blocks its worker until read
        yield lambda: merged([_receive(r, *b) for (_, r), b in zip(started, bounds)])
    finally:
        for worker, receive in started:
            worker.terminate()
            worker.join()
            receive.close()


def _start(requests: tuple, seed: int, lo: int, hi: int):
    """Fork a worker process that computes each request's part of trials
    ``lo .. hi - 1`` (:func:`_pass`) and sends ``(True, parts)`` or
    ``(False, exception)`` down a one-way pipe; return the process and the
    pipe's receiving end."""
    import multiprocessing  # deferred: a pass that forks no worker never loads it

    receive, send = multiprocessing.Pipe(duplex=False)
    worker = multiprocessing.Process(target=_work, args=(send, requests, seed, lo, hi))
    worker.start()
    # the worker holds the last send end, so its exit ends the pipe
    send.close()
    return worker, receive


def _work(send, requests: tuple, seed: int, lo: int, hi: int) -> None:
    """The body of a worker process of :func:`_start`."""
    try:
        send.send((True, _pass(requests, seed, lo, hi)))
    except Exception as exc:  # handed to the parent, which raises it
        send.send((False, exc))


def _receive(receive, lo: int, hi: int) -> list:
    """The parts that :func:`_start`'s worker for trials ``lo .. hi - 1``
    sends, or its exception raised here."""
    try:
        ok, parts = receive.recv()
    except EOFError:
        raise RuntimeError(f"worker for trials {lo} .. {hi - 1} exited without a result") from None
    if not ok:
        raise parts
    return parts


def _pass(requests: tuple, seed: int, start: int, stop: int) -> list:
    """Each request's part of trials ``start .. stop - 1``: what it reads of
    no trial, with what it reads of each block added in place (``+=``), in
    block order. Every block is drawn once, thinned once to each threshold
    (:func:`_ladder`), and read by each request up to that request's last
    trial; a request's part is all the pass keeps of its earlier blocks, so
    the pass's memory does not grow with its trials."""
    thetas = sorted({theta for request in requests for theta in request.thetas})
    parts = None
    lo = start
    for block in _blocks(requests[0].cell, thetas, seed, start, stop):
        views = _ladder(block, thetas)
        if parts is None:  # a request's zero: its read of the block's first 0 trials
            parts = [request.read(_head(views, 0)) for request in requests]
        for i, request in enumerate(requests):
            if lo < request.trials:
                parts[i] += request.read(_head(views, request.trials - lo))
        lo += block[0].size
        # the block's columns are arrays of their own, not views of the
        # field buffer: freed with its views before the next draw; held,
        # they add a block to the peak memory
        del block, views
    return parts


class OutageGridRequest:
    """What :func:`estimate_outage_grid` computes, as a request for
    :func:`run_requests`. ``rows`` holds the rows as a trial decides them."""

    def __init__(self, cell: CellGeometry, rows: Sequence[tuple[str, RadioParams]], trials: int):
        if not rows:
            raise ValueError("rows must be nonempty")
        self.cell = cell
        self.rows = tuple(_grid_row(strategy, radio) for strategy, radio in rows)
        self.trials = check_count("trials", trials)
        self.thetas = tuple(row.theta_first for row in self.rows)
        self.by_theta = _by_theta(self.rows)

    def read(self, views: dict) -> np.ndarray:
        """The block's outage count of each row."""
        return _decide(self.cell, self.rows, self.by_theta, views).sum(axis=1)

    def result(self, part: np.ndarray) -> list[OutageEstimate]:
        return [OutageEstimate.from_counts(count, self.trials) for count in part.tolist()]


def estimate_outage_grid(
    cell: CellGeometry,
    rows: Sequence[tuple[str, RadioParams]],
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> list[OutageEstimate]:
    """Outage estimates for many ``(strategy, radio)`` rows from one set of
    ``trials`` trials; returns one estimate per row, in row order.

    Each row's estimate equals :func:`estimate_outage` for that row alone,
    count for count: trial ``t`` draws the same field and gains for every
    row (see :func:`_draw_block`), so it is drawn once and decided for all rows.
    Worker processes as in :func:`run_requests`.
    """
    request = OutageGridRequest(cell, rows, trials)
    return run_requests([request], seed, workers=workers)[0]


def estimate_outage(
    strategy: str,
    cell: CellGeometry,
    radio: RadioParams,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> OutageEstimate:
    """Run ``trials`` independent trials and return the outage estimate.

    ``strategy`` is ``"exact"`` (full channel knowledge, requires
    ``radio.num_relays == 1``) or ``"stat"`` (distance ranking with
    ``radio.num_relays`` slots). The result is bit-identical for any worker
    count. A one-row :func:`estimate_outage_grid`.
    """
    return estimate_outage_grid(cell, [(strategy, radio)], trials, seed, workers=workers)[0]


class MeanCountPoint(NamedTuple):
    """One radius of an empirical mean-count curve, averaged over ``trials``
    realizations."""

    radius: float
    mean: float
    stderr: float
    trials: int


class MeanCountRequest:
    """What :func:`empirical_mean_count` computes, as a request for
    :func:`run_requests`."""

    def __init__(
        self, radii: Sequence[float], cell: CellGeometry, theta_first: float, trials: int
    ):
        if len(radii) > MAX_RADII:  # before the grid is read
            raise ValueError(f"radii must hold at most MAX_RADII = {MAX_RADII} points, got {len(radii)}")
        grid = check_increasing("radii", (float(r) for r in radii))
        check_radii("radii", grid, cell.outer_radius)
        check_finite("theta_first", theta_first, 0)
        self.cell, self.grid, self.theta_first = cell, np.asarray(grid), theta_first
        self.trials = check_count("trials", trials)
        self.thetas = (theta_first,)

    def read(self, views: dict) -> np.ndarray:
        """Sums over the block's trials of the per-trial counts within each
        grid radius and of their squares, shape ``(2, observers, radii)``.

        A relay at distance ``d`` counts at every radius from the first grid
        point ``>= d`` on, so a per-trial histogram of that index, accumulated
        along the grid, gives the counts without sorting.
        """
        sizes, trial, radii, d2, *_ = views[self.theta_first]
        bins = self.grid.size + 1
        offset = trial * bins
        sums = np.empty((2, len(OBSERVERS), self.grid.size), dtype=np.int64)
        for i, d in enumerate((radii, np.sqrt(d2))):
            first = offset + np.searchsorted(self.grid, d, side="left")
            counts = np.bincount(first, minlength=sizes.size * bins).reshape(sizes.size, bins)
            # one (trials x bins) array: its running sums along the grid are
            # taken in place, its last bin (beyond the grid) is never read,
            # and it is freed before the next observer's
            counts = np.cumsum(counts, axis=1, out=counts)[:, :-1]
            sums[:, i] = counts.sum(axis=0), np.einsum("tr,tr->r", counts, counts)
            del counts
        return sums

    def result(self, part: np.ndarray) -> dict[str, list[MeanCountPoint]]:
        s1, s2 = part
        trials = self.trials
        # one trial has no spread: s2 equals s1 * s1 and the variance is 0
        var = (s2 - s1 * s1 / trials) / max(trials - 1, 1)
        means, stderrs = (s1 / trials).tolist(), np.sqrt(np.maximum(var, 0.0) / trials).tolist()
        return {
            observer: [MeanCountPoint(*point, trials) for point in zip(self.grid.tolist(), means[o], stderrs[o])]
            for o, observer in enumerate(OBSERVERS)
        }


def empirical_mean_count(
    radii: Sequence[float],
    cell: CellGeometry,
    theta_first: float,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> dict[str, list[MeanCountPoint]]:
    """Mean number of qualified relays within each radius of both observers.

    Returns one curve per observer of :data:`OBSERVERS`, keyed by it:
    ``"bs"`` (the cell center) and ``"dest"``. For each radius ``r`` of the
    strictly increasing grid in ``[0, R + r_d]``, averages the count of
    qualified relays at distance <= ``r`` over fresh realizations; both
    curves read the same realizations. Trials are drawn as in the module
    docstring, at the one threshold ``theta_first``; the second-hop gains are
    drawn and ignored. Worker processes as in :func:`run_requests`.
    """
    request = MeanCountRequest(radii, cell, theta_first, trials)
    return run_requests([request], seed, workers=workers)[0]


def check_distances(k_name: str, k_max, trials_name: str, trials) -> tuple[int, int]:
    """``(k_max, trials)`` as ints if each is an integer >= 1 (see
    :func:`~relaygeom.model.check_count`), ``k_max`` is at most
    :data:`MAX_RANK` and ``trials * k_max`` at most :data:`MAX_DISTANCES`;
    else a ``ValueError`` naming ``k_name`` or ``trials_name``. The one rule
    of a k-th-distance sample's size."""
    k_max, trials = check_count(k_name, k_max), check_count(trials_name, trials)
    if k_max > MAX_RANK:
        raise ValueError(f"{k_name} must be at most MAX_RANK = {MAX_RANK}, got {k_max}")
    if trials * k_max > MAX_DISTANCES:
        raise ValueError(
            f"{trials_name} must be at most {MAX_DISTANCES // k_max} at {k_max} ranks "
            f"(MAX_DISTANCES = {MAX_DISTANCES} distances), got {trials}"
        )
    return k_max, trials


class KthDistancesRequest:
    """What :func:`kth_nearest_qualified_distances` computes, as a request
    for :func:`run_requests`; its size is bounded by :func:`check_distances`."""

    def __init__(self, cell: CellGeometry, theta_first: float, k_max: int, trials: int):
        self.k_max, self.trials = check_distances("k_max", k_max, "trials", trials)
        check_finite("theta_first", theta_first, 0)
        self.cell, self.theta_first = cell, theta_first
        self.thetas = (theta_first,)

    def read(self, views: dict) -> list[np.ndarray]:
        """The block's rows, as a list of one array (so ``+=`` lists the
        blocks in trial order): each trial's ``k_max`` smallest destination
        distances, sorted, ``inf`` past its relay count."""
        sizes, trial, _, d2, *_ = views[self.theta_first]
        # ordered by trial, then by d2: a square root keeps that order
        d = np.sqrt(d2[np.lexsort((d2, trial))])
        ranks = np.arange(self.k_max)
        present = ranks < sizes[:, None]
        out = np.full((sizes.size, self.k_max), np.inf)
        out[present] = d[((np.cumsum(sizes) - sizes)[:, None] + ranks)[present]]
        return [out]

    def result(self, part: list[np.ndarray]) -> np.ndarray:
        return np.concatenate(part)


def kth_nearest_qualified_distances(
    cell: CellGeometry,
    theta_first: float,
    k_max: int,
    trials: int,
    seed: int,
    *,
    workers: int = 1,
) -> np.ndarray:
    """Sampled distances from the destination to its k-th nearest qualified
    relay, for ``k = 1 .. k_max``.

    Returns an array of shape ``(trials, k_max)``; entries where fewer than
    ``k`` relays qualified are ``inf`` (the distance distribution is
    defective). Trials are drawn as in :func:`empirical_mean_count`, so row
    ``t`` lists the nearest relays that the loosest row of an outage grid at
    threshold ``theta_first`` qualifies in trial ``t``. ``k_max`` and
    ``trials`` are bounded by :func:`check_distances`. Worker processes as
    in :func:`run_requests`.
    """
    request = KthDistancesRequest(cell, theta_first, k_max, trials)
    return run_requests([request], seed, workers=workers)[0]
