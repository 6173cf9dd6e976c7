"""Stochastic side of the library: path sampling and branching trees.

Everything is driven by explicitly derived random streams so that runs
are reproducible and replicas are independent work units:

* replica ``r`` of a run with seed ``s`` uses the generator
  ``PCG64(splitmix64(s + (r + 1) * 0x9E3779B97F4A7C15))`` (all mod
  2**64, splitmix64 being the standard 64-bit finalizer below);
  ``derive_stream`` is the reference for that stream;
* the McKean product estimator grows one tree per replica, in replica
  order; ``sample_lifetimes`` draws one exponential per replica;
  ``feynman_kac_estimate`` draws its paths in lockstep passes of at most
  _WALK_CELLS cells; and the population estimators run through one
  lockstep walker of the mass-only jump chain, ``_mass_walks``.  All
  collect results in replica order, and numpy's pairwise sum reduces
  them, so estimates do not depend on replica scheduling;
* all take their streams from ``_replica_streams``, which derives the
  SeedSequence words of up to 2048 replicas in one vectorised pass
  (numpy's SeedSequence hashing, mirrored in uint32 arrays) and hands
  each replica's words to PCG64's own seeding, so every replica gets its
  own generator, equal to ``derive_stream``'s bit for bit.  Each run
  checks replica 0 against ``derive_stream`` and falls back to calling
  it per replica if numpy's SeedSequence or PCG64 seeding differs.
* a seed is an integer (Python or numpy, not bool), taken mod 2**64, and
  a replica index an integer >= 0; anything else raises ValueError
  rather than running some other stream.

The branching simulator is event driven: every particle carries an
exponential lifetime, diffuses by exact Gaussian increments between
events, and is replaced at death by k children (drawn from the
offspring law) at its death position.  There is no time discretization
anywhere, so branching statistics carry Monte Carlo error only.  The
walk runs on Python floats and returns plain tuples; only
simulate_branching builds the Event/EventLog dataclasses from them.

Within one replica the draw order is fixed and documented by the
implementations: a Feynman-Kac path draws its n_steps standard normals,
the numbers of standard_normal((n_steps, 1)), into its row of a
lockstep pass.  The tree simulator reads each draw kind from its own
reader of blocks of 64, 256, 1024, 4096, 16384, then 65536 repeating
(_BLOCK_SCHEDULE), each block one array call (standard_exponential(n),
standard_normal(n) or random(n)) drawn when the walk first reads past
the last one: lifetimes, root first and then each branching's children
in id order; displacements, d per event in time order; offspring
uniforms, one per event.  The root's lifetime draws the first
exponential block, the first event the first normal block and then the
first uniform block.  numpy fills an array by calling the scalar routine
once per element, in order, so the root's lifetime is the number of a
first scalar standard_exponential() (sample_lifetimes').  After the
walk the survivors, in id order, draw their endpoint displacements as
one standard_normal((n, d)).  The mass-only walker draws uniforms, then
exponentials, in blocks of the same schedule.  It walks each replica's
chain once and keeps only its end and its counts at the requested times,
so one walk serves every time read from it.  Replicas walk in lockstep,
block by block, each on its own generator, so every replica draws the
numbers of a walk on its own.

The extinction sampler stops a walk early, once extinction is out of
reach.  A population of n dies out with probability q**n, where q is the
smallest root of pgf(s) = s (Harris 1963; Athreya & Ney 1972, I.5).  So
a walk ends once its count passes L = min(max_particles, n*), where n* is
the smallest n with qbar**n <= eps = 2**-100 and qbar >= q is a certified
upper bound.  Such a replica is classified as surviving, which is wrong
with probability at most qbar**(L + 1), at most 7.9e-31 whenever L is
below the cap; replicas that die out before passing L draw exactly the
numbers of a walk to the cap.
"""

from __future__ import annotations

import bisect
import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .dyson import FertilityDistribution
from .kernels import SampledFunction
from .pring import _LOG_FLOAT_MAX, _check_count, _check_probability, _check_real, _check_seed

__all__ = [
    "PopulationExplosionError",
    "BranchingConfig",
    "Event",
    "PopulationSnapshot",
    "EventLog",
    "splitmix64",
    "derive_stream",
    "sample_brownian_path",
    "feynman_kac_estimate",
    "simulate_branching",
    "sample_lifetimes",
    "sample_extinction_times",
    "estimate_extinction",
    "estimate_generating_function",
    "estimate_mckean_product",
    "lifetime_ks",
]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class PopulationExplosionError(RuntimeError):
    """Live particle count exceeded the configured cap."""


def splitmix64(state: int) -> int:
    """Standard splitmix64 finalizer; bijective on 64-bit integers (also elementwise on uint64 arrays)."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_stream(seed: int, replica: int = 0) -> np.random.Generator:
    """Independent generator for one replica of a seeded run.

    The PCG64 state is seeded with
    splitmix64(seed + (replica + 1) * 0x9E3779B97F4A7C15), so streams
    for different replicas never collide and a run is reproducible from
    (seed, replica) alone.  Raises ValueError unless seed is an integer
    (not bool; taken mod 2**64) and replica an integer >= 0.
    """
    seed, replica = _check_seed(seed), _check_count("replica", replica, least=0)
    mixed = splitmix64((seed + (replica + 1) * _GOLDEN) & _MASK64)
    return np.random.Generator(np.random.PCG64(mixed))


_MASK32 = (1 << 32) - 1
# numpy SeedSequence's hash constants: the j-th hashmix call xors with
# the j-th power-step of INIT and multiplies by the next (A: entropy mixing, B: output).
_HASH_A = np.array([0x43B0D7E5 * 0x931E8875**j & _MASK32 for j in range(17)], dtype=np.uint32)[:, None]
_HASH_B = np.array([0x8B51F9DD * 0x58F38DED**j & _MASK32 for j in range(9)], dtype=np.uint32)[:, None]
_STREAM_CHUNK = 2048  # replicas whose seed words one array pass derives (bounds the memory it holds)
_WALK_CELLS = 1 << 12  # cells of one lockstep pass of paths or jump chains, at most (one row for longer rows)


def _hashmix(values, j, consts):
    values = (values ^ consts[j : j + len(values)]) * consts[j + 1 : j + 1 + len(values)]
    return values ^ (values >> 16)


def _seed_words(seed, first, stop):
    """The 4 uint64 seed words of derive_stream(seed, r), one row per first <= r < stop, from one array pass.

    Row r is SeedSequence(mixed).generate_state(4, np.uint64) for the
    mixed seed of replica r: numpy's SeedSequence with pool size 4,
    mirrored in uint32 arrays (the one or two entropy words of the mixed
    seed hash alike, missing words hashing as 0).  _replica_streams'
    replica-0 check against derive_stream guards it.
    """
    r = np.arange(first + 1, stop + 1, dtype=np.uint64)
    mixed = splitmix64(np.uint64(seed & _MASK64) + r * np.uint64(_GOLDEN))
    pool = np.zeros((4, r.size), dtype=np.uint32)
    pool[0], pool[1] = mixed & _MASK32, mixed >> 32
    pool = _hashmix(pool, 0, _HASH_A)
    for src in range(4):  # each source word mixes into the other three, in order
        dst = [i for i in range(4) if i != src]
        hashed = _hashmix(pool[[src] * 3], 4 + 3 * src, _HASH_A)
        mix = np.uint32(0xCA01F9DD) * pool[dst] - np.uint32(0x4973F715) * hashed
        pool[dst] = mix ^ (mix >> 16)
    words = _hashmix(pool[[0, 1, 2, 3, 0, 1, 2, 3]], 0, _HASH_B).astype(np.uint64)
    return np.ascontiguousarray((words[0::2] | words[1::2] << 32).T)


@functools.cache
def _seed_words_type():
    # The seed sequence whose state is given words: PCG64(_seed_words_type()(row)) runs numpy's seeding on a row.
    # Built on first use: numpy 2 loads numpy.random lazily, and a CLI run that draws nothing skips its import.
    class SeedWords(np.random.bit_generator.ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return SeedWords


def _replica_streams(seed, replicas):
    """Independent generators equal to derive_stream(seed, r), r = 0 .. replicas-1, in order.

    PCG64 seeded from the array-derived words, unless replica 0's state
    differs from derive_stream's: then derive_stream per replica.
    """
    rows = itertools.chain.from_iterable(
        _seed_words(seed, first, min(first + _STREAM_CHUNK, replicas)) for first in range(0, replicas, _STREAM_CHUNK)
    )
    seed_words = _seed_words_type()
    streams = (np.random.Generator(np.random.PCG64(seed_words(row))) for row in rows)
    rng = next(streams)
    if rng.bit_generator.state != derive_stream(seed, 0).bit_generator.state:
        yield from (derive_stream(seed, r) for r in range(replicas))
        return
    yield rng
    yield from streams


def _mean_stderr(values):
    # (mean, stderr) of per-replica values: floats, or per row entry each reduced as one contiguous
    # array (pairwise sum), so an entry's estimate does not depend on the others.
    columns = np.ascontiguousarray(values.T)
    mean = np.mean(columns, axis=-1)
    stderr = np.std(columns, axis=-1, ddof=1) / math.sqrt(columns.shape[-1])
    return (mean, stderr) if columns.ndim > 1 else (float(mean), float(stderr))


def sample_brownian_path(x0, t: float, n_steps: int, seed: int, replica: int = 0) -> np.ndarray:
    """Brownian path from x0 over [0, t] at n_steps uniform increments.

    Returns an array of shape (n_steps + 1, d) whose first row is x0;
    increments are i.i.d. Gaussian with variance t/n_steps per
    coordinate.  Raises ValueError unless x0 is a finite point of dimension
    d >= 1, t is finite and > 0 and n_steps is an integer >= 1, and then,
    as derive_stream, unless seed is an integer and replica an integer >= 0.
    """
    start = _path_start(x0, t, n_steps)
    steps = derive_stream(seed, replica).standard_normal((n_steps, start.size)) * math.sqrt(t / n_steps)
    path = np.empty((n_steps + 1, start.size))
    path[0] = start
    path[1:] = start + np.cumsum(steps, axis=0)
    return path


def _point(x0, name):  # x0 as a 1-d float array; a scalar is a point in d = 1
    point = np.atleast_1d(np.asarray(x0, dtype=float))
    if point.ndim > 1:
        raise ValueError(f"{name} must be a scalar or 1-d, got {point.ndim} dimensions")
    return point


def _path_start(x0, t, n_steps, name="x0", one=False):
    # x0 as a 1-d array, once t, n_steps and x0 are checked (in that order), x0 under ``name``:
    # with ``one``, that it is one position (else that it is not empty) before that it is finite.
    _check_real("t", t, positive=True)
    _check_count("n_steps", n_steps)
    start = _point(x0, name)
    if one and start.size != 1:
        raise ValueError(f"{name} must be one position, got {start.size} values")
    if not start.size:
        raise ValueError(f"{name} has dimension 0")
    if not all(map(math.isfinite, start)):
        raise ValueError(f"{name} must be finite")
    return start


def feynman_kac_estimate(
    u: SampledFunction, v, t: float, x: float, replicas: int, n_steps: int, seed: int
):
    """Monte Carlo value of E[ u(B_t) * exp(-int_0^t v(B_s) ds) ].

    ``v`` must accept a 1-d position array and return the potential at
    each point (bounded below); it is called once per replica, in
    replica order, on the n_steps points of that replica's path before t
    (the first being x).  The exponent integral is a left-endpoint
    Riemann sum over the n_steps path increments, and ``u`` is evaluated
    by linear interpolation on its grid.  Returns (estimate, stderr).
    One spatial dimension.  Raises ValueError unless replicas is an
    integer >= 2, t is finite and > 0, n_steps is an integer >= 1, x is
    one finite position and seed is an integer (checked in that order);
    and, on the first replica where it happens, if v returns other than
    one value per point (shape (n_steps,)), if the Riemann sum is NaN (v
    returned NaN, or both +inf and -inf), or if exp(-sum) overflows (v
    not bounded below on that path, as for a potential of -1e6).
    """
    replicas = _check_count("replicas", replicas, least=2)  # checked before the path arguments
    x0, dt = float(_path_start(x, t, n_steps, "x", one=True)[0]), t / n_steps
    seed = _check_seed(seed)
    values = np.empty(replicas)
    streams = _replica_streams(seed, replicas)
    per_pass = max(1, _WALK_CELLS // n_steps)
    # Each pass draws its replicas' paths row by row (the numbers of standard_normal((n_steps, 1))
    # per replica), then sums the rows' potentials in one call (each row a pairwise sum, as np.sum).
    for first in range(0, replicas, per_pass):
        paths = np.empty((min(per_pass, replicas - first), n_steps + 1))
        paths[:, 0], steps = x0, paths[:, 1:]
        for row in steps:
            next(streams).standard_normal(out=row)
        steps *= math.sqrt(dt)
        np.cumsum(steps, axis=1, out=steps)
        steps += x0
        potential, shape = np.empty((len(paths), n_steps)), None
        for i, visited in enumerate(paths[:, :-1]):
            got = np.asarray(v(visited), dtype=float)
            if got.shape != (n_steps,):
                potential, shape = potential[:i], got.shape  # the replicas before it are checked first
                break
            potential[i] = got
        weights = []
        for r, exponent in enumerate((dt * potential.sum(axis=1)).tolist(), first):
            if math.isnan(exponent):
                raise ValueError(f"v returned NaN (or both +inf and -inf) on the path of replica {r}")
            if -exponent > _LOG_FLOAT_MAX:
                raise ValueError(f"v is not bounded below on the path of replica {r}: exp({-exponent:g}) overflows")
            weights.append(math.exp(-exponent))  # libm's exp; np.exp differs by an ulp on some arguments
        if shape is not None:
            raise ValueError(f"v must return shape ({n_steps},), one value per path point; got {shape}")
        values[first : first + len(paths)] = u(paths[:, -1]) * np.array(weights)
    return _mean_stderr(values)


@dataclass(frozen=True)
class BranchingConfig:
    """Full specification of a branching run.

    gamma is the clock rate, fertility the offspring law, d the spatial
    dimension (1..3), x0 the common start point, and max_particles the
    live-population cap beyond which a tree counts as exploded.  Raises
    ValueError unless gamma is finite and > 0, d an integer in 1..3, x0
    a finite point of dimension d and max_particles an integer >= 1.
    """

    gamma: float
    fertility: FertilityDistribution
    d: int = 1
    x0: tuple = (0.0,)
    max_particles: int = 1_000_000

    def __post_init__(self):
        _check_real("clock rate gamma", self.gamma, positive=True)
        if not 1 <= _check_count("d", self.d) <= 3:
            raise ValueError(f"spatial dimension d must be 1..3, got {self.d}")
        start = tuple(_point(self.x0, "x0").tolist())
        if len(start) != self.d:
            raise ValueError(f"x0 has dimension {len(start)}, expected {self.d}")
        if not all(math.isfinite(c) for c in start):
            raise ValueError("x0 must be finite")
        _check_count("max_particles", self.max_particles)
        object.__setattr__(self, "x0", start)

    @property
    def offspring_cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.fertility.p)
        cdf[-1] = 1.0  # guard the top bin against rounding in the sum
        return cdf

    @functools.cached_property
    def extinction_stop(self) -> tuple:
        """(L, qbar**(L + 1)): the count past which an extinction walk stops, and its bias bound.

        L = min(max_particles, n*), n* the smallest n with qbar**n <=
        2**-100 (see sample_extinction_times); when qbar is 1, L is the cap
        and the bound is 1.0.  Computed once per config, on first use.
        """
        qbar = _extinction_upper_bound(self.offspring_cdf)
        if qbar >= 1.0:
            return int(self.max_particles), 1.0
        level = int(min(self.max_particles, math.ceil(math.log(_STOP_EPSILON) / math.log(qbar))))
        return level, qbar ** (level + 1)


@dataclass(frozen=True)
class Event:
    """One clock firing: the parent dies, children (possibly none) appear."""

    time: float
    kind: str  # "death" (no children) or "branch"
    parent: int
    children: tuple
    position: np.ndarray


@dataclass(frozen=True)
class PopulationSnapshot:
    time: float
    ids: tuple
    positions: np.ndarray  # shape (len(ids), d)


@dataclass(frozen=True)
class EventLog:
    """Chronological event list plus derived summaries of one tree."""

    events: list
    final: PopulationSnapshot
    sample_times: np.ndarray
    counts: np.ndarray  # live population at each sample time
    extinction_time: float = field(default=float("inf"))


def simulate_branching(
    config: BranchingConfig,
    horizon: float,
    sample_times=(),
    seed: int = 0,
    replica: int = 0,
) -> EventLog:
    """Exact event-driven branching tree up to ``horizon``.

    Each particle lives an independent Exp(gamma) lifetime and diffuses
    as a Brownian motion; at death it is replaced, at its death
    position, by k children drawn from the offspring law.  Positions
    are advanced by single Gaussian increments between birth and death
    (or horizon), which is exact in law.  The root has id 0; an event's
    children get the next k consecutive ids in order, their lifetimes
    are drawn in id order, and "the first child" of an event is its
    lowest id, children[0].  Raises PopulationExplosionError when the
    live count passes config.max_particles, and ValueError unless
    horizon is finite and >= 0, every sample time lies in [0, horizon],
    seed is an integer and replica an integer >= 0 (checked in that
    order).
    """
    _check_real("horizon", horizon)
    sample_times = np.asarray(sample_times, dtype=float)
    if sample_times.size and not np.all((sample_times >= 0) & (sample_times <= horizon)):
        raise ValueError("sample_times must lie within [0, horizon]")
    records, ids, positions = _branching_tree(config, config.offspring_cdf.tolist(), horizon, derive_stream(seed, replica))
    events = [
        Event(time, "branch" if k else "death", parent, tuple(range(first, first + k)), np.array(pos))
        for time, parent, first, k, pos in records
    ]
    counts = np.zeros(0, dtype=int)
    if sample_times.size:  # live count after each event, read at the sample times
        live = np.cumsum([1] + [k - 1 for _, _, _, k, _ in records])
        counts = live[np.searchsorted([e.time for e in events], sample_times, side="right")]
    return EventLog(
        events=events,
        final=PopulationSnapshot(float(horizon), ids, positions),
        sample_times=sample_times,
        counts=counts,
        extinction_time=float("inf") if ids else events[-1].time,
    )


# Fixed block schedule of the tree walk's draws and of the mass-only walker's; part of the
# reproducibility contract (changing it changes the draw sequence).
_BLOCK_SCHEDULE = (64, 256, 1024, 4096, 16384, 65536)


def _block_sizes():
    # _BLOCK_SCHEDULE, then its last size repeating.
    return itertools.chain(_BLOCK_SCHEDULE, itertools.repeat(_BLOCK_SCHEDULE[-1]))


def _block_draws(draw):
    # The numbers of draw(64), draw(256), ... (_block_sizes) as one reader of Python floats;
    # a block is drawn when its first number is read.
    return itertools.chain.from_iterable(map(np.ndarray.tolist, map(draw, _block_sizes()))).__next__


def _branching_tree(config, cdf, horizon, rng, record=True):
    # simulate_branching's walk once its arguments are checked; cdf is config.offspring_cdf as a list.
    # Returns events (time, parent, first_child_id, k, position tuple; none unless record), the survivor
    # ids and their (len(ids), d) positions.  Lifetimes, displacements and offspring uniforms are read
    # from one block reader each (the root's lifetime draws the first exponential block, so it comes
    # first); the survivors' endpoints are one standard_normal((n, d)) after the walk.  Heap records are
    # (death_time, id, birth_time, birth_pos); ids are unique, so no comparison reaches birth_time.
    gamma, d, cap = config.gamma, config.d, config.max_particles
    exponential = _block_draws(rng.standard_exponential)
    normal, uniform = _block_draws(rng.standard_normal), _block_draws(rng.random)
    heappop, heappush, bisect_right, sqrt = heapq.heappop, heapq.heappush, bisect.bisect_right, math.sqrt
    heap = [(exponential() / gamma, 0, 0.0, config.x0)]
    next_id = 1
    live = 1
    events = []

    while heap and heap[0][0] <= horizon:
        death_time, pid, birth_time, birth_pos = heappop(heap)
        scale = sqrt(death_time - birth_time)
        # d = 1 skips the list comprehension, a function call before Python 3.12 (about 0.9 us an event).
        pos = (birth_pos[0] + normal() * scale,) if d == 1 else tuple([c + normal() * scale for c in birth_pos])
        k = bisect_right(cdf, uniform())  # = np.searchsorted(cdf, u, side="right")
        if record:
            events.append((death_time, pid, next_id, k, pos))
        if k:  # only a birth can pass the cap
            for cid in range(next_id, next_id + k):
                heappush(heap, (death_time + exponential() / gamma, cid, death_time, pos))
            next_id += k
            live += k - 1
            if live > cap:
                raise PopulationExplosionError(f"live population exceeded max_particles={cap} at t={death_time:g}")
        else:  # only a death can empty the tree
            live -= 1
            if not live:
                break

    heap.sort(key=operator.itemgetter(1))  # the survivors in id order
    _, ids, births, starts = zip(*heap) if heap else ((),) * 4
    scales = np.sqrt(horizon - np.array(births, dtype=float))[:, None]
    ends = rng.standard_normal((len(ids), d)) * scales + np.array(starts, dtype=float).reshape(len(ids), d)
    return events, ids, ends


def sample_lifetimes(gamma: float, horizon: float, replicas: int, seed: int) -> np.ndarray:
    """First clock time of each replica (inf if past the horizon), in replica order.

    Replica r's entry is standard_exponential() / gamma, the first draw
    of derive_stream(seed, r): the root's lifetime, and so the first event
    time, of that replica's simulate_branching tree with the pure-death
    law (1.0,), bit for bit.  Raises ValueError unless gamma is finite and
    > 0, replicas is an integer >= 1, horizon is finite and >= 0 and seed
    is an integer (checked in that order).
    """
    _check_real("clock rate gamma", gamma, positive=True)
    replicas = _check_count("replicas", replicas)
    _check_real("horizon", horizon)
    seed = _check_seed(seed)
    times = np.array([rng.standard_exponential() for rng in _replica_streams(seed, replicas)]) / gamma
    times[times > horizon] = math.inf  # the tree fires no event past its horizon
    return times


def _mass_walks(gamma, cdf, horizon, cap, replicas, seed, grid=(), halt=False):
    """Mass-only jump chains (live count only, no positions) of replicas 0 .. replicas-1.

    The total population is a continuous-time branching walk: with n
    particles alive the next clock fires after Exp(n*gamma) and changes n
    by k - 1.  A chain ends at the horizon (its next event would fire past
    it), at 0 or past the cap.  Replica r draws from derive_stream(seed,
    r), per block of _BLOCK_SCHEDULE: uniforms for the offspring counts
    first, then exponential spacings.  Returns (ends, finals, at_grid):
    the time a chain hit 0 (inf if it did not), its last count (at the
    horizon, 0 or past the cap) and, per replica, N_s at each time s of
    the ascending grid in [0, horizon].  With halt, a replica past the cap
    ends the run: replicas after the first such one are not walked.

    Each chunk of _STREAM_CHUNK (2048) replicas, the replicas of one
    stream pass, walks in lockstep on its own generators: for block b,
    every replica still walking draws block b; the counts, times and
    stops of a pass are array operations on (rows, block) arrays of at
    most _WALK_CELLS cells.  Each replica's numbers and floating-point
    operations are those of a walk on its own, so no drawn number depends
    on the others or on the chunk size.
    """
    grid = np.asarray(grid, dtype=float)
    ends, finals, t = np.full(replicas, math.inf), np.ones(replicas, dtype=np.int64), np.zeros(replicas)
    at_grid = np.ones((replicas, grid.size), dtype=np.int64)
    streams = _replica_streams(seed, replicas)
    limit = replicas  # with halt: one past the first replica found past the cap
    for first in range(0, replicas, _STREAM_CHUNK):
        walking = np.arange(first, min(first + _STREAM_CHUNK, limit))
        rngs = list(itertools.islice(streams, walking.size))  # rngs[i] is replica first + i's stream
        for block in _block_sizes():
            if not walking.size:
                break
            per_pass = max(1, _WALK_CELLS // block)
            passes, walking = [walking[lo : lo + per_pass] for lo in range(0, walking.size, per_pass)], []
            for rows in passes:
                rows = rows[rows < limit]  # limit may have fallen in this block
                uniforms, spacings = np.empty((rows.size, block)), np.empty((rows.size, block))
                for i, r in enumerate(rows.tolist()):
                    rngs[r - first].random(out=uniforms[i])
                    rngs[r - first].standard_exponential(out=spacings[i])
                ks = np.searchsorted(cdf, uniforms, side="right")  # < len(cdf): cdf[-1] is 1
                # counts[:, i] is the live count before event i of the block; the last column, after its last event.
                counts = np.cumsum(np.concatenate((finals[rows, None], ks - 1), axis=1), axis=1)
                with np.errstate(divide="ignore", invalid="ignore"):
                    event_times = t[rows, None] + np.cumsum(spacings / (gamma * counts[:, :-1].astype(float)), axis=1)

                crossed = event_times > horizon
                stop = crossed | (counts[:, 1:] == 0) | (counts[:, 1:] > cap)
                at = np.arange(rows.size), np.argmax(stop, axis=1)
                stopped = stop[at]
                fired = np.where(stopped, at[1] + ~crossed[at], block)  # the stop event fires unless past the horizon
                if grid.size:  # N_s is the count after the fired events at or before s
                    width = grid.size + 1  # slot g of a row counts its events in (grid[g-1], grid[g]]
                    slots = np.where(np.arange(block) < fired[:, None], np.searchsorted(grid, event_times), grid.size)
                    seen = np.bincount((slots + width * at[0][:, None]).ravel(), minlength=width * rows.size)
                    seen = np.cumsum(seen.reshape(-1, width)[:, :-1], axis=1)
                    at_grid[rows] = np.where(seen > 0, np.take_along_axis(counts, seen, axis=1), at_grid[rows])
                finals[rows], t[rows] = counts[at[0], fired], event_times[:, -1]
                died = finals[rows] == 0
                ends[rows[died]] = event_times[at][died]
                burst = rows[finals[rows] > cap]
                if halt and burst.size:
                    limit = int(burst[0]) + 1  # replicas from limit on are dropped
                walking.append(rows[~stopped])
            walking = np.concatenate(walking)
    return ends, finals, at_grid


_STOP_EPSILON = 2.0**-100  # eps of the early stop (see BranchingConfig.extinction_stop)


def _extinction_upper_bound(cdf) -> float:
    """qbar >= q, the smallest root in [0, 1] of pgf(s) = s for the law the walk draws.

    The walk draws k = searchsorted(cdf, U, "right") with U uniform on
    numpy's 2**-53 grid, so P(k = j) = w[j] / 2**53 exactly, with w the
    differences of ceil(2**53 * cdf) (clipped at 2**53).  f(s) = pgf(s) - s
    is convex with f(1) = 0 and f > 0 on [0, q), so any s with f(s) <= 0
    is >= q.  Bisection of [0, 1] keeps such an upper end, testing
    f(mid) <= 0 exactly in integers (mid = a / b, both sides times
    2**53 * b**(top + 1), top the largest offspring count); after 64
    halvings qbar is within 2**-64, or one float spacing, of q.  qbar is
    1.0 when q = 1 (mean offspring <= 1, unless every particle leaves
    exactly one child).
    """
    weights = [int(w) for w in np.diff(np.minimum(np.ceil(cdf * 2.0**53), 2.0**53), prepend=0.0)]
    top = len(weights) - 1
    lo, hi = 0.0, 1.0
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        a, b = mid.as_integer_ratio()
        pgf = sum(w * a**k * b ** (top - k) for k, w in enumerate(weights))  # 2**53 * b**top * pgf(mid)
        if b * pgf <= (a << 53) * b**top:
            hi = mid
        else:
            lo = mid
    return hi


def sample_extinction_times(
    config: BranchingConfig, horizon: float, replicas: int, seed: int
) -> np.ndarray:
    """Extinction time of each replica (inf if alive at the horizon).

    Runs the mass-only jump chain per replica until the horizon,
    extinction, or a live count above L = min(config.max_particles, n*),
    where n* is the smallest n with qbar**n <= eps = 2**-100 and qbar is
    a certified upper bound on the eventual extinction probability q of
    config.fertility (no early stop when qbar = 1, as for mean offspring
    <= 1 or alpha >= 1/2).  A replica whose count passes L is classified
    as never extinct; it would die out later with probability at most
    qbar**(L + 1), which bounds the downward bias of each replica's
    classification: at most eps = 7.9e-31 whenever L is below the cap
    (L = 64 at alpha 0.25; both in config.extinction_stop).  A replica
    that dies out before passing L draws exactly the numbers of a walk to
    the cap.  Raises ValueError unless horizon is finite and >= 0,
    replicas is an integer >= 1 and seed is an integer (checked in that
    order).
    """
    _check_real("horizon", horizon)
    replicas = _check_count("replicas", replicas)
    seed = _check_seed(seed)
    return _mass_walks(config.gamma, config.offspring_cdf, horizon, config.extinction_stop[0], replicas, seed)[0]


def _time_grid(name, t):
    # t as a non-empty ascending 1-D float array of finite times >= 0, errors naming ``name``.
    grid = np.array(t, dtype=float, ndmin=1)
    if grid.ndim > 1 or not grid.size or np.any(grid[1:] < grid[:-1]):
        raise ValueError(f"{name} must be a time or a non-empty ascending 1-D array of times, got {t!r}")
    _check_real(name, float(grid.min()))  # nan, negative and -inf times
    _check_real(name, float(grid.max()))
    return grid


def estimate_extinction(config: BranchingConfig, horizon: float | np.ndarray, replicas: int, seed: int):
    """Extinct fraction by the horizon, with binomial stderr; ValueError as sample_extinction_times.

    ``horizon`` is a time (floats returned) or a non-empty ascending 1-D
    array of times (arrays returned, one fraction per time).  Replicas
    are walked once, as in sample_extinction_times to the last time, so
    each fraction is biased downward by at most qbar**(L + 1)
    (config.extinction_stop), at most 2**-100 whenever L is below
    config.max_particles.
    """
    grid = _time_grid("horizon", horizon)
    times = np.sort(sample_extinction_times(config, float(grid[-1]), replicas, seed))
    p_hat = np.searchsorted(times, grid, side="right") / replicas  # the mean of times <= each horizon
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / replicas)
    return (p_hat, stderr) if np.ndim(horizon) else (float(p_hat[0]), float(stderr[0]))


def estimate_generating_function(
    config: BranchingConfig, theta: float, t: float | np.ndarray, replicas: int, seed: int
):
    """Monte Carlo mean of theta**N_t over the total population N_t.

    ``t`` is a time (floats returned) or a 1-D ascending array (arrays
    returned); each replica's jump chain is walked once, to max(t).  0**0
    counts as 1, so theta = 0 gives the finite-horizon extinction
    estimate.  Raises PopulationExplosionError if a replica crosses the
    cap before max(t), and ValueError unless theta lies in [0, 1], t is
    finite and >= 0 (an array: non-empty, ascending), replicas is an
    integer >= 2 and seed is an integer (checked in that order).
    """
    _check_probability("theta", theta)
    grid = _time_grid("t", t)
    horizon = float(grid.max())
    replicas = _check_count("replicas", replicas, least=2)
    seed = _check_seed(seed)
    cap = config.max_particles
    _, finals, at_grid = _mass_walks(config.gamma, config.offspring_cdf, horizon, cap, replicas, seed, grid, halt=True)
    if np.any(finals > cap):
        raise PopulationExplosionError(
            f"replica {int(np.argmax(finals > cap))} exceeded max_particles={cap} before t={horizon:g}"
        )
    distinct, where = np.unique(at_grid, return_inverse=True)
    powers = np.array([float(theta) ** n for n in distinct.tolist()])[where.reshape(at_grid.shape)]  # 0.0**0 == 1.0
    return _mean_stderr(powers if np.ndim(t) else powers[:, 0])


def estimate_mckean_product(
    config: BranchingConfig, phi: SampledFunction, t: float, replicas: int, seed: int
):
    """Monte Carlo mean of prod_i phi(Y_i(t)) over surviving particles.

    ``phi`` must take values in [0, 1] on its grid; it is evaluated by
    linear interpolation, clamped to the edge values outside.  The
    empty product (extinct replica) counts as 1.  One spatial
    dimension.  Raises PopulationExplosionError as simulate_branching
    does, and ValueError unless config.d is 1, phi lies in [0, 1], t is
    finite and >= 0, replicas is an integer >= 2 and seed is an integer
    (checked in that order).
    """
    if config.d != 1:
        raise ValueError("product functionals are supported in one spatial dimension only")
    if np.any(phi.values < 0.0) or np.any(phi.values > 1.0):
        raise ValueError("phi must take values in [0, 1]")
    _check_real("t", t)
    replicas = _check_count("replicas", replicas, least=2)
    seed = _check_seed(seed)
    cdf = config.offspring_cdf.tolist()
    # One tree per replica stream, in replica order.
    streams = _replica_streams(seed, replicas)
    survivors = [_branching_tree(config, cdf, t, rng, record=False)[2][:, 0] for rng in streams]
    # One phi call on every survivor; numpy's multiply reduction runs left to right, so each replica's
    # reduceat segment is the bits of np.prod(phi(its survivors)).  An extinct replica's empty product is 1.
    counts = np.array([positions.size for positions in survivors])
    values, alive = np.ones(replicas), counts > 0
    if alive.any():
        starts = (np.cumsum(counts) - counts)[alive]
        values[alive] = np.multiply.reduceat(phi(np.concatenate(survivors)), starts)
    return _mean_stderr(values)


def lifetime_ks(times, rate: float):
    """Kolmogorov-Smirnov test of samples against Exp(rate).

    Returns (statistic, p_value) with the usual asymptotic Kolmogorov
    tail (Stephens' small-sample correction on the argument).  Raises
    ValueError unless rate is finite and > 0 and times holds one or
    more finite samples >= 0.
    """
    _check_real("rate", rate, positive=True)
    x = np.sort(np.asarray(times, dtype=float))
    n = x.size
    if n < 1 or not np.all(np.isfinite(x) & (x >= 0)):
        raise ValueError("times must hold at least one finite sample >= 0")
    cdf = -np.expm1(-rate * x)
    d_plus = float(np.max(np.arange(1, n + 1) / n - cdf))
    d_minus = float(np.max(cdf - np.arange(0, n) / n))
    stat = max(d_plus, d_minus)
    return stat, _kolmogorov_sf((math.sqrt(n) + 0.12 + 0.11 / math.sqrt(n)) * stat)


def _kolmogorov_sf(lam):
    """P(K > lam) for the Kolmogorov distribution, clipped to [0, 1].

    The alternating series 2 sum (-1)**(k-1) exp(-2 k**2 lam**2) is summed
    to k = 100 while its term 101 is below 2**-53 (lam above about 0.0424);
    below that it has not converged and the dual form
    1 - sqrt(2 pi) / lam * sum exp(-(2k - 1)**2 pi**2 / (8 lam**2)) is used.
    """
    if math.exp(-2.0 * 101**2 * lam**2) < 2.0**-53:
        ks = np.arange(1, 101)
        p = 2.0 * float(np.sum((-1.0) ** (ks - 1) * np.exp(-2.0 * ks**2 * lam**2)))
    elif lam > 0.0:
        odd = np.arange(1, 40, 2)
        p = 1.0 - math.sqrt(2.0 * math.pi) / lam * float(np.sum(np.exp(-(odd**2) * math.pi**2 / (8.0 * lam**2))))
    else:
        p = 1.0
    return min(max(p, 0.0), 1.0)
