import bisect
import hashlib
import itertools
import math
import os
import struct
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from heatfield import cli, dyson, kernels, montecarlo
from heatfield.montecarlo import (
    BranchingConfig,
    PopulationExplosionError,
    derive_stream,
    estimate_extinction,
    estimate_generating_function,
    estimate_mckean_product,
    feynman_kac_estimate,
    lifetime_ks,
    sample_brownian_path,
    sample_extinction_times,
    simulate_branching,
    splitmix64,
)

PURE_DEATH = dyson.FertilityDistribution((1.0,))
BINARY_QUARTER = dyson.FertilityDistribution.binary(0.25)


def binary_config(alpha, gamma=1.0, cap=1_000_000):
    return BranchingConfig(gamma, dyson.FertilityDistribution.binary(alpha), max_particles=cap)


def horizon_walk_oracle(gamma, cdf, horizon, cap, rng):
    """The mass-only walk to one horizon, three stop conditions ranked apart.

    Returns (extinction_time, n_final, exploded): extinction_time is inf
    unless the walk hit 0 within the horizon, n_final is the population
    at the horizon (or at the cap crossing) and exploded flags a cap
    crossing.  Same draws as montecarlo._mass_walks: per block of
    64, 256, 1024, 4096, 16384, then 65536 repeating, uniforms for the
    offspring counts first, then exponential spacings.
    """
    n = 1
    t = 0.0
    top = len(cdf) - 1
    for block in itertools.chain((64, 256, 1024, 4096, 16384), itertools.repeat(65536)):
        ks = np.searchsorted(cdf, rng.random(block), side="right")
        np.minimum(ks, top, out=ks)
        spacings = rng.standard_exponential(block)
        n_after = n + np.cumsum(ks - 1)
        n_before = np.concatenate(([n], n_after[:-1])).astype(float)
        with np.errstate(divide="ignore", invalid="ignore"):
            event_times = t + np.cumsum(spacings / (gamma * n_before))

        crossed = event_times > horizon
        died = n_after == 0
        burst = n_after > cap
        j_h = int(np.argmax(crossed)) if crossed.any() else block
        j_e = int(np.argmax(died)) if died.any() else block
        j_x = int(np.argmax(burst)) if burst.any() else block

        if j_h <= j_e and j_h <= j_x and j_h < block:
            # The next event would fire past the horizon.
            return float("inf"), int(n_before[j_h]), False
        if j_e <= j_x and j_e < block:
            return float(event_times[j_e]), 0, False
        if j_x < block:
            return float("inf"), int(n_after[j_x]), True
        n = int(n_after[-1])
        t = float(event_times[-1])


FK_U = kernels.SampledFunction.sample(lambda x: np.exp(-(x**2) / 0.5), -8.0, 0.02, 801)


def fk_potential(xs):
    return 0.5 * xs**2


def inline_visited(x0, t, n_steps, seed, r):
    """The n_steps points replica r's path visits before t, drawn one replica at a time; and its end."""
    steps = derive_stream(seed, r).standard_normal(n_steps) * math.sqrt(t / n_steps)
    positions = x0 + np.cumsum(steps)
    return np.concatenate(([x0], positions[:-1])), positions[-1]


def inline_feynman_kac(u, v, t, x0, replicas, n_steps, seed):
    """feynman_kac_estimate as a loop over replicas, each path drawn and weighted on its own."""
    dt = t / n_steps
    values = np.empty(replicas)
    for r in range(replicas):
        visited, end = inline_visited(x0, t, n_steps, seed, r)
        values[r] = float(u(end)) * math.exp(-dt * float(np.sum(v(visited))))
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(replicas))


class BlockReplay:
    """One draw kind of a tree's stream: blocks of 64, 256, 1024, 4096, 16384, then 65536 repeating,
    each drawn from ``draw`` on the first read past the last block; ``refills`` counts the blocks drawn."""

    def __init__(self, draw):
        self.draw, self.sizes = draw, itertools.chain((64, 256, 1024, 4096, 16384), itertools.repeat(65536))
        self.buffer, self.read, self.refills = [], 0, 0

    def __call__(self):
        if self.read == len(self.buffer):
            self.buffer, self.read, self.refills = self.draw(next(self.sizes)), 0, self.refills + 1
        self.read += 1
        return float(self.buffer[self.read - 1])


def reference_tree(config, horizon, seed, replica):
    """simulate_branching's tree replayed from derive_stream(seed, replica), one particle at a time.

    Returns (events, ids, positions, readers): events as (time, parent, children, position tuple), the
    survivors' ids and (n, d) positions, and the exponential, normal and uniform readers.  The walk
    reads lifetimes, displacements and offspring uniforms from one BlockReplay each, the exponential
    one read first; after the walk each survivor, in id order, draws its d endpoint normals.
    """
    rng = derive_stream(seed, replica)
    draws = (rng.standard_exponential, rng.standard_normal, rng.random)
    exponential, normal, uniform = (BlockReplay(draw) for draw in draws)
    cdf = config.offspring_cdf.tolist()
    alive = {0: (exponential() / config.gamma, 0.0, config.x0)}  # id: (death time, birth time, birth position)
    events = []
    while alive:
        pid = min(alive, key=lambda i: (alive[i][0], i))
        death, birth, start = alive[pid]
        if death > horizon:
            break
        del alive[pid]
        position = tuple(c + normal() * math.sqrt(death - birth) for c in start)
        u = uniform()
        k = sum(c <= u for c in cdf)
        first = 1 + sum(len(e[2]) for e in events)
        events.append((death, pid, tuple(range(first, first + k)), position))
        for cid in range(first, first + k):
            alive[cid] = (death + exponential() / config.gamma, death, position)
        if len(alive) > config.max_particles:
            raise PopulationExplosionError("cap")
    ids = tuple(sorted(alive))
    positions = np.array(
        [[c + rng.standard_normal() * math.sqrt(horizon - alive[i][1]) for c in alive[i][2]] for i in ids]
    ).reshape(len(ids), config.d)
    return events, ids, positions, (exponential, normal, uniform)


def tree_digest(law, d, replicas=12, horizon=2.5, gamma=1.0):
    """sha256 over simulate_branching replicas 0 .. replicas-1 (seed 31, six sample times to the horizon)."""
    config = BranchingConfig(gamma, dyson.FertilityDistribution(law), d=d, x0=(0.5, -1.25, 2.0)[:d])
    digest = hashlib.sha256()
    for r in range(replicas):
        log = simulate_branching(config, horizon, np.linspace(0.0, horizon, 6), seed=31, replica=r)
        for e in log.events:
            digest.update(struct.pack("<d2q", e.time, e.parent, len(e.children)))
            digest.update(repr((e.kind, e.children)).encode())
            digest.update(np.asarray(e.position, dtype=float).tobytes())
        digest.update(repr(log.final.ids).encode())
        digest.update(np.ascontiguousarray(log.final.positions, dtype=float).tobytes())
        digest.update(np.asarray(log.counts, dtype=np.int64).tobytes())
        digest.update(struct.pack("<d", log.extinction_time))
    return digest.hexdigest()


class TestStreams:
    def test_splitmix_reference_values(self):
        # Standard splitmix64 sequence seeded with 0: the state advances
        # by the golden-ratio increment between outputs.
        assert splitmix64(0) == 0xE220A8397B1DCDAF
        assert splitmix64(0x9E3779B97F4A7C15) == 0x6E789E6AA1B965F4
        assert splitmix64((2 * 0x9E3779B97F4A7C15) % 2**64) == 0x06C45D188009454F

    def test_replica_streams_differ_and_reproduce(self):
        a = derive_stream(91, 0).standard_normal(4)
        b = derive_stream(91, 0).standard_normal(4)
        c = derive_stream(91, 1).standard_normal(4)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)


MASK64 = 2**64 - 1
GOLDEN = 0x9E3779B97F4A7C15
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG64's 128-bit LCG multiplier (O'Neill 2014)


def unsplitmix64(z):
    """The x with splitmix64(x) == z: each xorshift and odd multiply undone in reverse."""

    def unxorshift(y, shift):
        x = y
        for _ in range(64 // shift + 1):
            x = y ^ (x >> shift)
        return x

    z = unxorshift(z, 31) * pow(0x94D049BB133111EB, -1, 2**64) & MASK64
    z = unxorshift(z, 27) * pow(0xBF58476D1CE4E5B9, -1, 2**64) & MASK64
    return (unxorshift(z, 30) - GOLDEN) & MASK64


def seed_word_states(seed, first, stop):
    """PCG64 states seeded by numpy from the array-derived words of replicas first .. stop-1."""
    seed_words = montecarlo._seed_words_type()
    return [np.random.PCG64(seed_words(row)).state for row in montecarlo._seed_words(seed, first, stop)]


class TestFastStreams:
    """The replica loops' array-derived streams equal PCG64(splitmix64(...)) bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**31 - 1, 2**63, 2**64 - 1])
    def test_states_and_draws_match_pcg64(self, seed):
        # 5000 replicas span several chunks; at seed 2**64 - 1 the sum wraps.
        streams = montecarlo._replica_streams(seed, 5000)
        for r, rng in enumerate(streams):
            bits = np.random.PCG64(splitmix64((seed + (r + 1) * GOLDEN) & MASK64))
            assert rng.bit_generator.state == bits.state
            assert rng.random(2).tolist() == np.random.Generator(bits).random(2).tolist()
        assert r == 4999

    @pytest.mark.parametrize("mixed", [0, 1, 12345, 2**31, 2**32 - 1])
    def test_one_word_entropy(self, mixed):
        # A mixed seed below 2**32 seeds SeedSequence with one entropy word.
        for r in (0, 3, 1500):
            seed = (unsplitmix64(mixed) - (r + 1) * GOLDEN) & MASK64
            assert splitmix64((seed + (r + 1) * GOLDEN) & MASK64) == mixed
            states = seed_word_states(seed, r, r + 2)
            assert states[0] == np.random.PCG64(mixed).state
            assert states[1] == derive_stream(seed, r + 1).bit_generator.state

    @pytest.mark.parametrize("seed", [0, 1, 2**40, 2**63, 2**64 - 1, 2**64 + 5])
    def test_state_arithmetic_matches_derive_stream(self, seed):
        # One pass per range: one replica, a few hundred, and one under, at, one over and twice a pass plus 3.
        size = montecarlo._STREAM_CHUNK
        assert size == 2048
        carries = set()
        spans = ((9, 10), (0, 255), (1, 257), (300, 557), (0, 600), (0, size - 1), (5, size + 5), (1, size + 2),
                 (0, 2 * size + 3))
        for first, stop in spans:
            states = seed_word_states(seed, first, stop)
            assert len(states) == stop - first
            for r, state in enumerate(states, first):
                assert state == derive_stream(seed, r).bit_generator.state
                mixed = splitmix64((seed + (r + 1) * GOLDEN) & MASK64)
                words = np.random.SeedSequence(mixed).generate_state(4, np.uint64)
                s_hi, s_lo, seq_hi, seq_lo = (int(w) for w in words)
                inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & (2**128 - 1)
                product_low = ((inc + (s_hi << 64 | s_lo)) * PCG64_MULT) & MASK64
                carries.add(("inc + s", (inc & MASK64) + s_lo > MASK64))
                carries.add(("* MULT + inc", product_low + (inc & MASK64) > MASK64))
        assert carries == {(step, carry) for step in ("inc + s", "* MULT + inc") for carry in (False, True)}

    def test_import_leaves_numpy_random_unloaded(self):
        # numpy 2 loads numpy.random on first use (numpy 1.x with numpy itself); heatfield defers it to a draw.
        script = (
            "import sys, numpy\n"
            "before = 'numpy.random' in sys.modules\n"
            "import heatfield.cli\n"
            "print(before or 'numpy.random' not in sys.modules)\n"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [os.path.dirname(os.path.dirname(montecarlo.__file__)),
                                                          env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "True"

    def test_each_replica_gets_its_own_generator(self):
        # No stream is invalidated by the next: drawing them in reverse order gives derive_stream's numbers.
        streams = list(montecarlo._replica_streams(5, 3))
        assert len({id(rng) for rng in streams}) == 3
        for r in reversed(range(3)):
            assert streams[r].random(4).tolist() == derive_stream(5, r).random(4).tolist()


class TestBrownianPath:
    def test_deterministic_and_shaped(self):
        p1 = sample_brownian_path([1.0, -1.0], 2.0, 16, seed=5)
        p2 = sample_brownian_path([1.0, -1.0], 2.0, 16, seed=5)
        np.testing.assert_array_equal(p1, p2)
        assert p1.shape == (17, 2)
        np.testing.assert_array_equal(p1[0], [1.0, -1.0])

    def test_endpoint_law(self):
        n = 100_000
        ends = np.empty(n)
        for r in range(n):
            ends[r] = sample_brownian_path(0.0, 1.0, 1, seed=31, replica=r)[-1, 0]
        # Exact endpoint law is N(0, 1): CLT bounds at three sigma.
        assert abs(ends.mean()) < 3.0 / math.sqrt(n)
        var = ends.var(ddof=1)
        var_stderr = math.sqrt(2.0 / (n - 1))
        assert abs(var - 1.0) < 3.0 * var_stderr

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_brownian_path(0.0, 0.0, 4, seed=1)
        with pytest.raises(ValueError):
            sample_brownian_path(0.0, 1.0, 0, seed=1)


class TestFeynmanKac:
    def test_zero_potential_matches_semigroup(self):
        u = kernels.SampledFunction.sample(
            lambda x: np.exp(-(x**2) / 0.5), -10.5, 0.01, 2101
        )
        evolved = kernels.apply_semigroup(u, 1.0)
        est, err = feynman_kac_estimate(
            u, lambda xs: np.zeros_like(xs), 1.0, 0.0, replicas=4000, n_steps=64, seed=3
        )
        assert abs(est - float(evolved(0.0))) < 3.0 * err

    def test_constant_potential_is_pure_decay(self):
        gamma = 0.7
        u = kernels.SampledFunction.sample(
            lambda x: np.exp(-(x**2) / 0.5), -10.5, 0.01, 2101
        )
        evolved = kernels.apply_semigroup(u, 1.0)
        est, err = feynman_kac_estimate(
            u, lambda xs: np.full(xs.shape, gamma), 1.0, 0.0, replicas=4000, n_steps=64, seed=4
        )
        assert abs(est - math.exp(-gamma) * float(evolved(0.0))) < 3.0 * err

    def test_flat_function_unit_potential(self):
        u = kernels.SampledFunction(-5.0, 0.1, np.ones(101))
        est, err = feynman_kac_estimate(
            u, lambda xs: np.ones_like(xs), 1.0, 0.0, replicas=200, n_steps=32, seed=5
        )
        assert est == pytest.approx(math.exp(-1.0), abs=1e-12)
        assert err == pytest.approx(0.0, abs=1e-15)


class TestSimulateBranching:
    def test_zero_horizon(self):
        log = simulate_branching(binary_config(0.25), 0.0, (), seed=1)
        assert log.events == []
        assert log.final.ids == (0,)
        np.testing.assert_array_equal(log.final.positions, [[0.0]])

    def test_deterministic(self):
        a = simulate_branching(binary_config(0.25), 3.0, (0.0, 1.5, 3.0), seed=8)
        b = simulate_branching(binary_config(0.25), 3.0, (0.0, 1.5, 3.0), seed=8)
        assert [e.time for e in a.events] == [e.time for e in b.events]
        np.testing.assert_array_equal(a.final.positions, b.final.positions)
        np.testing.assert_array_equal(a.counts, b.counts)

    def test_pure_death_counts(self):
        extinct = 0
        horizon = 0.7
        n = 10_000
        for r in range(n):
            log = simulate_branching(
                BranchingConfig(1.0, PURE_DEATH), horizon, (horizon,), seed=10, replica=r
            )
            assert log.counts[0] in (0, 1)
            extinct += log.counts[0] == 0
        want = kernels.event_probability(1.0, horizon)
        stderr = math.sqrt(want * (1.0 - want) / n)
        assert abs(extinct / n - want) < 3.0 * stderr

    def test_pure_branching_never_shrinks(self):
        config = BranchingConfig(1.0, dyson.FertilityDistribution((0.0, 0.0, 1.0)))
        times = np.linspace(0.0, 4.0, 9)
        log = simulate_branching(config, 4.0, times, seed=12)
        assert np.all(np.diff(log.counts) >= 0)
        assert np.all(log.counts >= 1)
        assert len(log.final.ids) == 1 + len(log.events)

    def test_extinction_is_absorbing(self):
        for r in range(200):
            log = simulate_branching(binary_config(0.6), 8.0, (), seed=13, replica=r)
            if math.isfinite(log.extinction_time):
                assert log.events[-1].time == log.extinction_time
                assert len(log.final.ids) == 0

    def test_population_cap_raises(self):
        config = binary_config(0.05, cap=64)
        with pytest.raises(PopulationExplosionError):
            for r in range(50):
                simulate_branching(config, 30.0, (), seed=14, replica=r)

    def test_branch_event_structure(self):
        config = binary_config(0.0, gamma=3.0)  # every event branches
        log = simulate_branching(config, 1.0, (), seed=17)
        assert log.events[0].parent == 0 and log.events[0].children == (1, 2)
        # Child order: the first event's draws replayed from its stream, one block of each kind in the
        # order the walk first reads them: lifetimes, displacements, offspring uniforms.  The children
        # read their lifetimes in id order, although child 2 dies first here.
        rng = derive_stream(17, 0)
        exponentials, normals, uniforms = rng.standard_exponential(64), rng.standard_normal(64), rng.random(64)
        death = float(exponentials[0]) / 3.0
        position = 0.0 + float(normals[0]) * math.sqrt(death)
        assert bisect.bisect_right(config.offspring_cdf.tolist(), float(uniforms[0])) == 2
        lifetimes = [death + float(e) / 3.0 for e in exponentials[1:3]]
        assert log.events[0].time == death and log.events[0].position.tolist() == [position]
        deaths = {event.parent: event.time for event in log.events}
        assert [deaths[1], deaths[2]] == lifetimes and deaths[2] < deaths[1]
        next_id = 1  # every event's children take the next consecutive ids, the first child the lowest
        birth_positions = {}
        for event in log.events:
            assert event.children == tuple(range(next_id, next_id + len(event.children)))
            next_id += len(event.children)
            for cid in event.children:
                birth_positions[cid] = event.position
        assert log.final.ids == tuple(sorted(set(range(next_id)) - deaths.keys()))
        for event in log.events[1:]:
            assert event.kind == "branch"
            assert len(event.children) == 2
            # the parent diffused away from where it was born (a.s.)
            assert not np.array_equal(event.position, birth_positions[event.parent])

    def test_offspring_count_on_a_cdf_value(self):
        # The first uniform (read after the first exponential and normal blocks) is made a CDF value:
        # bisect_right and searchsorted(side="right") agree on the tie.
        rng = derive_stream(17, 2)
        death, _, u = float(rng.standard_exponential(64)[0]), rng.standard_normal(64), float(rng.random(64)[0])
        config = BranchingConfig(1.0, dyson.FertilityDistribution((u, 0.0, 1.0 - u)))
        cdf = config.offspring_cdf
        assert cdf[0] == cdf[1] == u
        k = int(np.searchsorted(cdf, u, side="right"))
        assert k == 2
        log = simulate_branching(config, death, (), seed=17, replica=2)
        assert log.events[0].time == death and len(log.events[0].children) == k
        _, _, first_child, count, _ = montecarlo._branching_tree(config, cdf.tolist(), death, derive_stream(17, 2))[0][0]
        assert tuple(range(first_child, first_child + count)) == log.events[0].children

    @pytest.mark.parametrize("d", [1, 3])
    def test_matches_block_replay(self, d):
        # Binary .1 to t 6: trees of hundreds of events, so each kind reads past its first 64-number block.
        config = BranchingConfig(1.0, dyson.FertilityDistribution.binary(0.1), d=d, x0=(0.5, -1.25, 2.0)[:d])
        refills = []
        for r in range(6):
            log = simulate_branching(config, 6.0, (), seed=41, replica=r)
            events, ids, positions, readers = reference_tree(config, 6.0, 41, r)
            assert [(e.time, e.parent, e.children, tuple(e.position.tolist())) for e in log.events] == events
            assert log.final.ids == ids
            assert log.final.positions.tolist() == positions.tolist()
            refills.append([reader.refills for reader in readers])
        assert np.all(np.max(refills, axis=0) >= 2)  # some tree read past the first block of every kind
        assert np.max(refills) >= 3  # and some tree drew a third block (past 64 + 256 numbers)

    @pytest.mark.parametrize(
        "law, d, digest",
        [
            ((0.25, 0.0, 0.75), 1, "60af6723246d8b2beb7abccf15dd63b4a652b04da3de845b684dd5950278daba"),
            ((0.25, 0.0, 0.75), 2, "3bc8689ae95c632c02931899fe89f3de35f2f43818610c4b4ca91f45cc4848dc"),
            ((0.25, 0.0, 0.75), 3, "1d0bd61e04af0a618118ed0e8cda1677c24cd5e86b36e0880068329911dbd798"),
            ((0.3, 0.2, 0.1, 0.4), 1, "929ef2d259e3a34db1ee2060f50e18fc73e97c3d322b147946c7b138ce00f245"),
            ((0.3, 0.2, 0.1, 0.4), 2, "3ad6be3239c0675b5dc0cd34adeee22f9399fd744a06fed7258bb192bf88f4b1"),
            ((0.3, 0.2, 0.1, 0.4), 3, "ea9aada48c85aaad74950b6b829998ee9b53ca7908fb489d067ae15d2005a235"),
            ((1.0,), 1, "7f23b6544400e6158256e9af1cfc1f0db6318f1dec00ade9c2c996b2465c076a"),
            ((1.0,), 2, "afc0670f198881db0c4b8db083e619fbbd05e0590f5d2dba63a79ae02257d398"),
            ((1.0,), 3, "942da763908216620ef943c11244c359bda8c50ee266bdcdb5e3debdfab4fe22"),
        ],
    )
    def test_drawn_numbers_pinned(self, law, d, digest):
        # sha256 of 12 trees' events, survivors, counts and extinction times, as v0.4.0 draws them.
        assert tree_digest(law, d) == digest

    @pytest.mark.parametrize(
        "law, d, horizon, digest",
        [
            ((0.25, 0.0, 0.75), 1, 0.0, "7089efe90e4a7d037233868cbe1c3bc00203afcd36209e2c307788b725cb38d8"),
            ((0.25, 0.0, 0.75), 2, 0.0, "f1250ffd77cb921b9154e34b1cc01a2a59e5f67a9a521c8dbced97240948fb51"),
            ((0.25, 0.0, 0.75), 3, 0.0, "099583b9b74dc7487da56726d5f2cc457c35a5d3f3f9b3dec5d385a8a5064765"),
            ((0.7, 0.0, 0.3), 1, 40.0, "f7d79f5a22f04cd782872840b2948385dd8fbbe29037f239cdf5a34590774940"),
            ((0.7, 0.0, 0.3), 2, 40.0, "669e5296fc394e28626394fcf3e43497c9fbb39d8f58397fa2a0d9a9912d589c"),
            ((0.7, 0.0, 0.3), 3, 40.0, "28e66c951d3ac449dbc07ddacfae0ad1c15fa8341e5c79d3733f7a0b4d728d25"),
            ((0.2, 0.3, 0.1, 0.4), 1, 2.5, "804625090e4b18ed169b3edc77b55e0ab3ab02ab5528b09893cad979b5040d0e"),
            ((0.2, 0.3, 0.1, 0.4), 2, 2.5, "74a5a5726277f07ab035a39a5a639c711bb7b504773aa701de316a82a978b1bf"),
            ((0.2, 0.3, 0.1, 0.4), 3, 2.5, "19a3a4c0802925fc25bdafbe1c5c80dd3d34846091b20f8394f66240e7fe3f56"),
        ],
    )
    def test_edge_trees_pinned(self, law, d, horizon, digest):
        # Trees with no event (horizon 0), trees that all die out, and branchings of up to 3 children,
        # each as v0.4.0 draws them.
        config = BranchingConfig(1.0, dyson.FertilityDistribution(law), d=d, x0=(0.5, -1.25, 2.0)[:d])
        logs = [simulate_branching(config, horizon, (), seed=31, replica=r) for r in range(12)]
        if horizon == 0.0:
            assert not any(log.events for log in logs)
        elif law[0] == 0.7:
            assert all(math.isfinite(log.extinction_time) for log in logs)
        else:
            assert max(len(e.children) for log in logs for e in log.events) == 3
        assert tree_digest(law, d, horizon=horizon) == digest

    def test_clock_rate_pinned(self):
        # At gamma 1.7 a lifetime's division by gamma is not exact, so its rounding shows in the digest.
        digest = tree_digest((0.2, 0.3, 0.1, 0.4), 2, gamma=1.7)
        assert digest == "6c3516cf363dd734865be6ad093491ec2142775134c3ea47b926fb788543d110"

    def test_sample_times_validated(self):
        with pytest.raises(ValueError):
            simulate_branching(binary_config(0.5), 1.0, (2.0,), seed=1)

    def test_lifetime_law(self):
        gamma = 2.0
        times = []
        for r in range(10_000):
            log = simulate_branching(
                BranchingConfig(gamma, PURE_DEATH), 10.0, (), seed=16, replica=r
            )
            if log.events:
                times.append(log.events[0].time)
        times = np.asarray(times)
        assert abs(times.mean() - 0.5) < 3.0 * 0.5 / math.sqrt(times.size)
        # independent KS implementation from scipy
        pvalue = stats.kstest(times, "expon", args=(0.0, 1.0 / gamma)).pvalue
        assert pvalue > 0.01
        stat, own_pvalue = lifetime_ks(times, gamma)
        assert stat == pytest.approx(stats.kstest(times, "expon", args=(0.0, 0.5)).statistic, abs=1e-12)
        assert own_pvalue > 0.01

    def test_offspring_frequencies(self):
        law = dyson.FertilityDistribution((0.3, 0.2, 0.5))
        config = BranchingConfig(1.0, law, max_particles=100_000)
        counts = np.zeros(3, dtype=int)
        r = 0
        while counts.sum() < 10_000:
            log = simulate_branching(config, 8.0, (), seed=17, replica=r)
            for event in log.events:
                counts[len(event.children)] += 1
            r += 1
        expected = counts.sum() * np.asarray(law.p)
        assert stats.chisquare(counts, expected).pvalue > 0.01


class TestMassOnlyEstimators:
    def test_extinction_reference_value(self):
        p_hat, stderr = estimate_extinction(
            binary_config(0.25, cap=10_000), 60.0, replicas=4000, seed=18
        )
        assert abs(p_hat - 1.0 / 3.0) < 3.0 * stderr

    def test_critical_case_tends_to_one(self):
        p_hat, _ = estimate_extinction(binary_config(0.5, cap=100_000), 60.0, 2000, seed=19)
        assert p_hat > 0.9
        want = dyson.one_point_closed_form(0.5, 1.0, 60.0)  # 1 - 2/62
        assert abs(p_hat - want) < 4.0 * math.sqrt(want * (1 - want) / 2000)

    def test_pure_death_matches_clock(self):
        horizon = 2.0
        p_hat, stderr = estimate_extinction(binary_config(1.0), horizon, 4000, seed=20)
        assert abs(p_hat - kernels.event_probability(1.0, horizon)) < 3.0 * stderr

    def test_agrees_with_tree_simulator(self):
        horizon, n = 3.0, 3000
        mass_p, mass_se = estimate_extinction(binary_config(0.4), horizon, n, seed=21)
        tree_extinct = sum(
            math.isfinite(
                simulate_branching(binary_config(0.4), horizon, (), seed=22, replica=r).extinction_time
            )
            for r in range(n)
        )
        tree_p = tree_extinct / n
        tree_se = math.sqrt(tree_p * (1 - tree_p) / n)
        assert abs(mass_p - tree_p) < 3.0 * math.hypot(mass_se, tree_se)

    def test_extinction_times_monotone_curve(self):
        times = sample_extinction_times(binary_config(0.3), 10.0, 500, seed=23)
        finite = times[np.isfinite(times)]
        assert np.all(finite >= 0) and np.all(finite <= 10.0)

    def test_capped_replica_counts_as_survivor(self):
        p_hat, _ = estimate_extinction(binary_config(0.05, cap=50), 50.0, 400, seed=24)
        assert 0.0 < p_hat < 0.2  # eventual extinction 1/19, no explosion error

    def test_gf_theta_one_is_exact(self):
        est, err = estimate_generating_function(binary_config(0.25), 1.0, 1.0, 500, seed=25)
        assert est == 1.0
        assert err == 0.0

    def test_gf_theta_zero_equals_extinction(self):
        config = binary_config(0.25)
        est, _ = estimate_generating_function(config, 0.0, 4.0, 2000, seed=26)
        p_hat, _ = estimate_extinction(config, 4.0, 2000, seed=26)
        assert est == p_hat

    def test_gf_matches_dual_ode(self):
        est, err = estimate_generating_function(binary_config(0.25), 0.5, 1.0, 5000, seed=27)
        ode = dyson.one_point_ode(BINARY_QUARTER, 1.0, 0.5, 1.0)
        assert abs(est - ode.values[-1]) < 3.0 * err

    def test_gf_explosion_propagates(self):
        with pytest.raises(PopulationExplosionError):
            estimate_generating_function(binary_config(0.0, cap=32), 0.5, 40.0, 200, seed=28)

    def test_determinism(self):
        a = estimate_extinction(binary_config(0.25), 10.0, 300, seed=29)
        b = estimate_extinction(binary_config(0.25), 10.0, 300, seed=29)
        assert a == b


def extinction_curve_oracle(config, taus, replicas, seed):
    # The extinction CLI's own formula before it called estimate_extinction with its grid.
    times = np.sort(sample_extinction_times(config, taus[-1], replicas, seed))
    p_hat = np.searchsorted(times, taus, side="right") / replicas  # the mean of times <= tau
    return p_hat, np.sqrt(p_hat * (1.0 - p_hat) / replicas)


class TestExtinctionCurve:
    """estimate_extinction at an ascending grid of horizons walks each replica once."""

    CASES = ((0.25, 10_000, 20.0, 300, 31), (0.4, 2000, 8.0, 257, 32), (0.5, 500, 5.0, 60, 33), (0.1, 40, 3.0, 1, 34))

    @pytest.mark.parametrize("alpha, cap, horizon, replicas, seed", CASES)
    def test_equals_scalar_calls_and_the_cli_formula(self, alpha, cap, horizon, replicas, seed):
        config = binary_config(alpha, cap=cap)
        taus = np.linspace(0.0, horizon, 41)
        p_hat, stderr = estimate_extinction(config, taus, replicas, seed)
        assert p_hat.shape == stderr.shape == taus.shape
        for got, want in zip((p_hat, stderr), extinction_curve_oracle(config, taus, replicas, seed)):
            assert got.tobytes() == want.tobytes()
        scalar = [estimate_extinction(config, tau, replicas, seed) for tau in taus.tolist()]
        assert all(type(p) is float and type(se) is float for p, se in scalar)
        assert p_hat.tolist() == [p for p, _ in scalar] and stderr.tolist() == [se for _, se in scalar]

    def test_scalar_horizon_is_the_extinct_fraction(self):
        config = binary_config(0.25, cap=10_000)
        times = sample_extinction_times(config, 60.0, 600, seed=35)
        p_hat = float(np.mean(np.isfinite(times)))
        assert estimate_extinction(config, 60.0, 600, seed=35) == (p_hat, math.sqrt(p_hat * (1.0 - p_hat) / 600))

    def test_repeated_and_one_time_grids(self):
        config = binary_config(0.25, cap=10_000)
        p_hat, stderr = estimate_extinction(config, [0.0, 2.0, 2.0, 6.0], 200, seed=36)
        assert p_hat[0] == 0.0 and stderr[0] == 0.0 and p_hat[1] == p_hat[2] <= p_hat[3]
        one = estimate_extinction(config, np.array([6.0]), 200, seed=36)
        assert [v.tolist() for v in one] == [[p_hat[3]], [stderr[3]]]

    @pytest.mark.parametrize(
        "grid", [[], [1.0, 0.5], [0.5, math.nan], [math.nan], [-1.0, 1.0], [0.5, math.inf], [[0.5, 1.0]]]
    )
    def test_bad_grids_name_horizon(self, grid):
        with pytest.raises(ValueError, match="^horizon must"):
            estimate_extinction(binary_config(0.25), np.array(grid), 10, seed=1)


class TestMcKeanProduct:
    def test_constant_weight_reduces_to_gf(self):
        config = binary_config(0.25)
        theta = 0.5
        phi = kernels.SampledFunction(-5.0, 0.1, np.full(101, theta))
        prod_est, prod_err = estimate_mckean_product(config, phi, 1.0, 4000, seed=30)
        gf_est, gf_err = estimate_generating_function(config, theta, 1.0, 4000, seed=31)
        assert abs(prod_est - gf_est) < 3.0 * math.hypot(prod_err, gf_err)

    def test_zero_horizon_evaluates_at_start(self):
        config = BranchingConfig(1.0, BINARY_QUARTER, x0=(0.35,))
        phi = kernels.SampledFunction(-1.0, 0.1, np.linspace(0.0, 1.0, 21))
        est, err = estimate_mckean_product(config, phi, 0.0, 50, seed=32)
        assert est == pytest.approx(float(phi(0.35)), abs=1e-15)
        assert err == pytest.approx(0.0, abs=1e-15)

    def test_unit_weight_is_one(self):
        phi = kernels.SampledFunction(-5.0, 0.1, np.ones(101))
        est, err = estimate_mckean_product(binary_config(0.25), phi, 1.0, 300, seed=33)
        assert est == 1.0 and err == 0.0

    @pytest.mark.parametrize(
        "seed, estimate, stderr",
        [
            (1, "0x1.607d2ce9d9235p-1", "0x1.b510880bc4d5bp-5"),
            (7, "0x1.30013833a8aa3p-1", "0x1.b26942df1684cp-5"),
            (123456, "0x1.51c7fdb949c22p-1", "0x1.90d51713b39dep-5"),
        ],
    )
    def test_estimates_pinned(self, seed, estimate, stderr):
        # The exact floats of v0.4.0 (40 replicas, binary .25, t 1.5).
        phi = kernels.SampledFunction.sample(lambda x: 1.0 - 0.5 * np.exp(-(x**2)), -6.0, 0.05, 241)
        result = estimate_mckean_product(binary_config(0.25), phi, 1.5, 40, seed)
        assert result == (float.fromhex(estimate), float.fromhex(stderr))

    def test_benchmark_shaped_estimate_pinned(self):
        # Binary .25, t 6, 150 replicas, phi = 0.5 + 0.1 sin(1.1 x + 2) on [-40, 40]: the exact floats of v0.4.0.
        xs = np.arange(-40.0, 40.0 + 1e-9, 0.1)
        phi = kernels.SampledFunction(-40.0, 0.1, 0.5 + 0.1 * np.sin(1.1 * xs + 2.0))
        result = estimate_mckean_product(binary_config(0.25), phi, 6.0, 150, seed=5)
        assert result == (float.fromhex("0x1.42ddb7a0d9f73p-2"), float.fromhex("0x1.3068b6684b798p-5"))

    @pytest.mark.parametrize(
        "alpha, t, replicas, seed",
        [(1.0, 40.0, 300, 35), (0.25, 0.0, 300, 36), (0.75, 3.0, 2100, 37), (0.25, 2.0, 200, 38)],
    )
    def test_matches_per_replica_product(self, alpha, t, replicas, seed):
        # The one-call product against np.prod per replica over simulate_branching's survivors: at alpha 1
        # every tree has died out by t 40 (no survivor at all, every product 1), at t 0 each holds its root.
        config = BranchingConfig(1.0, dyson.FertilityDistribution.binary(alpha), x0=(0.35,))
        phi = kernels.SampledFunction.sample(lambda x: 0.6 + 0.3 * np.cos(x), -8.0, 0.05, 321)
        survivors = [simulate_branching(config, t, (), seed, r).final.positions[:, 0] for r in range(replicas)]
        values = np.array([float(np.prod(phi(positions))) for positions in survivors])
        result = estimate_mckean_product(config, phi, t, replicas, seed)
        assert result == montecarlo._mean_stderr(values)
        sizes = {positions.size for positions in survivors}
        if alpha == 1.0:
            assert sizes == {0} and result == (1.0, 0.0)
        if t == 0.0:
            assert sizes == {1} and set(values.tolist()) == {float(phi(0.35))}
        if alpha == 0.75:
            assert 0 in sizes and len(sizes) > 2  # extinct replicas between replicas of several survivors

    def test_validation(self):
        phi = kernels.SampledFunction(-5.0, 0.1, np.full(101, 1.5))
        with pytest.raises(ValueError):
            estimate_mckean_product(binary_config(0.25), phi, 1.0, 10, seed=1)


class TestAggregation:
    def test_reduction_order_insensitive(self):
        values = np.empty(500)
        config = binary_config(0.25)
        for r in range(500):
            rng = derive_stream(34, r)
            t_ext, n, _ = horizon_walk_oracle(1.0, config.offspring_cdf, 1.0, 10**6, rng)
            values[r] = 0.5 ** (0 if math.isfinite(t_ext) else n)
        est, _ = estimate_generating_function(config, 0.5, 1.0, 500, seed=34)
        forward = float(np.mean(values))
        reversed_mean = float(np.mean(values[::-1]))
        assert est == forward
        assert abs(forward - reversed_mean) <= 1e-12 * abs(forward)


class TestConfigValidation:
    def test_bad_configs(self):
        with pytest.raises(ValueError):
            BranchingConfig(0.0, BINARY_QUARTER)
        with pytest.raises(ValueError):
            BranchingConfig(1.0, BINARY_QUARTER, d=4)
        with pytest.raises(ValueError):
            BranchingConfig(1.0, BINARY_QUARTER, d=2, x0=(0.0,))
        with pytest.raises(ValueError):
            BranchingConfig(1.0, BINARY_QUARTER, max_particles=0)


class TestReplicaContract:
    """Each estimator equals an explicit loop over derive_stream(seed, r)."""

    SEEDS = (1, 7, 123456)

    def test_extinction_times_follow_replica_streams(self):
        config = binary_config(0.25, cap=1000)
        for seed in self.SEEDS:
            want = np.array(
                [
                    horizon_walk_oracle(1.0, config.offspring_cdf, 10.0, 1000, derive_stream(seed, r))[0]
                    for r in range(300)
                ]
            )
            np.testing.assert_array_equal(sample_extinction_times(config, 10.0, 300, seed), want)

    def test_chain_read_matches_oracle_walk(self):
        # One chain walked to t = 10 and read at t equals the oracle walked to t:
        # 0 once extinct, N_t while alive, the count past the cap once exploded.
        seen = set()
        grid = np.array([0.0, 0.1, 0.5, 1.0, 2.5, 10.0])
        for alpha, cap in ((0.25, 10**6), (0.0, 64), (0.0, 40)):
            cdf = binary_config(alpha).offspring_cdf
            for seed in self.SEEDS:
                ends, finals, at_grid = montecarlo._mass_walks(1.0, cdf, 10.0, cap, 300, seed, grid)
                for r in range(300):
                    for t, n_t in zip(grid, at_grid[r]):
                        t_ext, n_final, exploded = horizon_walk_oracle(1.0, cdf, t, cap, derive_stream(seed, r))
                        assert n_t == n_final
                        seen.add("extinct" if math.isfinite(t_ext) else "exploded" if exploded else "alive")
                    # The last read above is at the horizon, t = 10.
                    assert (ends[r], finals[r], finals[r] > cap) == (t_ext, n_final, exploded)
        assert seen == {"extinct", "alive", "exploded"}

    def test_gf_time_array_equals_scalar_calls(self):
        ts = np.array([0.0, 0.5, 1.0, 1.0, 2.5])
        for alpha in (0.25, 0.6):
            config = binary_config(alpha)
            for seed in self.SEEDS:
                for theta in (0.0, 0.3, 0.7):
                    est, err = estimate_generating_function(config, theta, ts, 300, seed)
                    want = [estimate_generating_function(config, theta, float(t), 300, seed) for t in ts]
                    assert all(type(v) is float for pair in want for v in pair)
                    assert est.shape == err.shape == ts.shape
                    np.testing.assert_array_equal(est, [w[0] for w in want])
                    np.testing.assert_array_equal(err, [w[1] for w in want])

    def test_gf_time_array_explosion_names_the_horizon(self):
        with pytest.raises(PopulationExplosionError, match="before t=40$"):
            estimate_generating_function(binary_config(0.0, cap=32), 0.5, [1.0, 40.0], 200, seed=28)

    def test_feynman_kac_matches_inline_sampler(self):
        # Several replicas per pass (20 at 200 steps, so 1000 replicas take 50 passes), one
        # replica per pass (5000 steps > _WALK_CELLS), and the smallest run.
        assert montecarlo._WALK_CELLS < 5000
        for replicas, n_steps in ((300, 32), (1000, 200), (3, 5000), (2, 1)):
            for seed in self.SEEDS:
                want = inline_feynman_kac(FK_U, fk_potential, 0.8, 0.3, replicas, n_steps, seed)
                assert feynman_kac_estimate(FK_U, fk_potential, 0.8, 0.3, replicas, n_steps, seed) == want

    def test_feynman_kac_calls_v_once_per_replica_in_order(self):
        calls = []

        def spy(xs):
            calls.append(xs.copy())
            return fk_potential(xs)

        feynman_kac_estimate(FK_U, spy, 0.8, 0.3, 45, 200, seed=7)  # passes of 20, 20 and 5 replicas
        assert len(calls) == 45
        for r, seen in enumerate(calls):
            assert seen.shape == (200,) and seen[0] == 0.3
            np.testing.assert_array_equal(seen, inline_visited(0.3, 0.8, 200, 7, r)[0])

    def test_mckean_matches_tree_loop(self):
        config = binary_config(0.25)
        phi = kernels.SampledFunction.sample(lambda x: 1.0 - 0.5 * np.exp(-(x**2)), -6.0, 0.05, 241)
        for seed in self.SEEDS:
            values = np.array(
                [
                    float(np.prod(phi(simulate_branching(config, 1.5, (), seed, replica=r).final.positions[:, 0])))
                    for r in range(200)
                ]
            )
            want = (float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size)))
            assert estimate_mckean_product(config, phi, 1.5, 200, seed) == want

    def test_gf_matches_oracle_walks(self):
        config = binary_config(0.25)
        for seed in self.SEEDS:
            values = []
            for r in range(300):
                t_ext, n, _ = horizon_walk_oracle(1.0, config.offspring_cdf, 1.5, 10**6, derive_stream(seed, r))
                values.append(0.3 ** (0 if math.isfinite(t_ext) else n))
            want = (float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(len(values))))
            assert estimate_generating_function(config, 0.3, 1.5, 300, seed) == want

    def test_clock_matches_tree_loop(self):
        config = BranchingConfig(2.0, PURE_DEATH)
        for seed in self.SEEDS:
            times = [simulate_branching(config, 25.0, (), seed, replica=r).events[0].time for r in range(300)]
            params = {"gamma": 2.0, "dtau.max": 1.0, "dtau.count": 3, "replicas": 300, "seed": seed}
            _, estimates = cli._run_clock(params)
            assert estimates["lifetime_mean"] == float(np.mean(times))
            assert (estimates["ks_statistic"], estimates["ks_pvalue"]) == lifetime_ks(times, 2.0)

    # Seeds 0 and 2**31 - 1, and seeds of 2**32 and up, whose upper 32 bits enter the mixed seed word.
    LIFETIME_SEEDS = (0, 1, 2, 5, 7, 9, 17, 31, 777, 4096, 40_000, 123456, 2**20 + 3, 2**31 - 1, 2**31,
                      2**32, 2**32 + 5, 2**40, 2**53 + 1, 2**64 - 1)

    def test_lifetimes_are_the_first_events_of_pure_death_trees(self):
        config = BranchingConfig(2.0, PURE_DEATH)
        for seed in self.LIFETIME_SEEDS:
            want = [simulate_branching(config, 25.0, (), seed, replica=r).events[0].time for r in range(200)]
            np.testing.assert_array_equal(montecarlo.sample_lifetimes(2.0, 25.0, 200, seed), want)

    def test_lifetimes_past_the_horizon_are_inf(self):
        config = BranchingConfig(0.7, PURE_DEATH)
        for seed in self.SEEDS:
            logs = [simulate_branching(config, 1.0, (), seed, replica=r) for r in range(300)]
            times = montecarlo.sample_lifetimes(0.7, 1.0, 300, seed)
            np.testing.assert_array_equal(times, [log.events[0].time if log.events else math.inf for log in logs])
            assert 100 < np.isinf(times).sum() < 200  # exp(-0.7) = 0.50 of them
        horizon = float(times[np.isfinite(times)].max())  # a first event exactly at the horizon still fires
        np.testing.assert_array_equal(montecarlo.sample_lifetimes(0.7, horizon, 300, seed), times)

    def test_counts_match_lifespans_rebuilt_from_events(self):
        for alpha, horizon in ((0.25, 3.0), (0.7, 6.0)):
            config = binary_config(alpha)
            for seed in self.SEEDS:
                bare = simulate_branching(config, horizon, (), seed)
                event_times = [e.time for e in bare.events]
                # Sample exactly on every event time, between events and at the ends.
                grid = np.linspace(0.0, horizon, 17)
                sample_times = np.sort(np.concatenate((grid, event_times)))
                log = simulate_branching(config, horizon, sample_times, seed)
                assert [e.time for e in log.events] == event_times
                np.testing.assert_array_equal(log.final.positions, bare.final.positions)
                born, died = {0: 0.0}, {}
                for e in log.events:
                    died[e.parent] = e.time
                    born.update((c, e.time) for c in e.children)
                want = [
                    sum(born[i] <= tau < died.get(i, math.inf) for i in born) for tau in sample_times
                ]
                np.testing.assert_array_equal(log.counts, want)


WALK_LAWS = [dyson.FertilityDistribution.binary(alpha) for alpha in (0.1, 0.25, 0.4)] + [
    dyson.FertilityDistribution((0.3, 0.2, 0.1, 0.4)),
    PURE_DEATH,
    dyson.FertilityDistribution((0.0, 1.0)),
]


def oracle_walks(cdf, horizon, cap, replicas, seed):
    """horizon_walk_oracle over derive_stream(seed, r), r < replicas, as arrays (ends, finals, exploded)."""
    walks = [horizon_walk_oracle(1.0, cdf, horizon, cap, derive_stream(seed, r)) for r in range(replicas)]
    return tuple(np.array(column) for column in zip(*walks))


class TestMassWalks:
    """The lockstep walker equals one oracle walk per replica, bit for bit."""

    def test_replica_counts_across_chunks(self):
        # A pass holds 64 rows of the first block, so 255 to 600 replicas take several; all fit one
        # 2048-replica stream chunk (test_small_chunks_walk_the_same crosses chunks).
        cdf = binary_config(0.25).offspring_cdf
        for cap in (40, 10_000):
            want = oracle_walks(cdf, 3.0, cap, 600, seed=19)
            for replicas in (1, 255, 256, 257, 600):
                ends, finals, _ = montecarlo._mass_walks(1.0, cdf, 3.0, cap, replicas, 19)
                np.testing.assert_array_equal(ends, want[0][:replicas])
                np.testing.assert_array_equal(finals, want[1][:replicas])
                np.testing.assert_array_equal(finals > cap, want[2][:replicas])

    def test_laws_horizons_and_caps(self):
        kinds = set()
        for law, horizon, cap in itertools.product(WALK_LAWS, (0.0, 3.0, 60.0), (1, 40, 10_000)):
            cdf = BranchingConfig(1.0, law).offspring_cdf
            ends, finals, exploded = oracle_walks(cdf, horizon, cap, 260, seed=5)
            got = montecarlo._mass_walks(1.0, cdf, horizon, cap, 260, 5)
            np.testing.assert_array_equal(got[0], ends)
            np.testing.assert_array_equal(got[1], finals)
            np.testing.assert_array_equal(got[1] > cap, exploded)
            kinds.update(np.where(np.isfinite(ends), "extinct", np.where(exploded, "exploded", "alive")).tolist())
        assert kinds == {"extinct", "alive", "exploded"}

    def test_small_passes_walk_the_same(self, monkeypatch):
        # One row per pass of every block walks the numbers of the default passes.
        cdf = binary_config(0.4).offspring_cdf
        grid = np.linspace(0.0, 20.0, 7)
        want = montecarlo._mass_walks(1.0, cdf, 20.0, 500, 300, 8, grid)
        monkeypatch.setattr(montecarlo, "_WALK_CELLS", 1)
        for got, expected in zip(montecarlo._mass_walks(1.0, cdf, 20.0, 500, 300, 8, grid), want):
            np.testing.assert_array_equal(got, expected)

    def test_gf_equals_per_replica_oracle(self):
        ts = np.array([0.25, 0.5, 1.0, 1.5])
        config = binary_config(0.25)
        for theta in (0.0, 0.5, 1.0):
            values = np.empty((300, ts.size))
            for r in range(300):
                for i, t in enumerate(ts):
                    t_ext, n, _ = horizon_walk_oracle(1.0, config.offspring_cdf, t, 10**6, derive_stream(7, r))
                    values[r, i] = theta ** (0 if math.isfinite(t_ext) else n)
            columns = [np.ascontiguousarray(values[:, i]) for i in range(ts.size)]
            est, err = estimate_generating_function(config, theta, ts, 300, seed=7)
            assert est.tolist() == [float(np.mean(c)) for c in columns]
            assert err.tolist() == [float(np.std(c, ddof=1) / math.sqrt(300)) for c in columns]

    def test_gf_explosion_names_the_first_replica(self):
        # Of replicas 0-7 only 3 and 7 pass the cap, 7 in its second block and 3 in its third.
        config = binary_config(0.4, cap=100)
        exploded = oracle_walks(config.offspring_cdf, 20.0, 100, 8, seed=152)[2]
        assert np.flatnonzero(exploded).tolist() == [3, 7]
        for replicas in (8, 300):
            with pytest.raises(PopulationExplosionError, match="^replica 3 exceeded max_particles=100 before t=20$"):
                estimate_generating_function(config, 0.5, 20.0, replicas, seed=152)

    @pytest.mark.parametrize("chunk", [3, 5])
    def test_small_chunks_walk_the_same(self, monkeypatch, chunk):
        # Stream chunks of 3 or 5 replicas: later chunks index their own generators, and a
        # cap passed in one chunk (replica 3, the second chunk of 3) stops the chunks after it.
        monkeypatch.setattr(montecarlo, "_STREAM_CHUNK", chunk)
        cdf = binary_config(0.25).offspring_cdf
        for cap in (40, 10_000):
            want = oracle_walks(cdf, 3.0, cap, 20, seed=19)
            for replicas in (1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1, 20):
                ends, finals, _ = montecarlo._mass_walks(1.0, cdf, 3.0, cap, replicas, 19)
                np.testing.assert_array_equal(ends, want[0][:replicas])
                np.testing.assert_array_equal(finals, want[1][:replicas])
        self.test_gf_explosion_names_the_first_replica()
        _, finals, _ = montecarlo._mass_walks(1.0, binary_config(0.4).offspring_cdf, 20.0, 100, 20, 152, halt=True)
        assert finals[3] > 100 and set(finals[(3 // chunk + 1) * chunk :].tolist()) == {1}  # 7 is not walked


class TestReplicaContractWithoutFastStreams:
    """The replica-loop oracles above when the array-derived replica 0 state disagrees with derive_stream."""

    SEEDS = TestReplicaContract.SEEDS
    test_extinction_times_follow_replica_streams = TestReplicaContract.test_extinction_times_follow_replica_streams
    test_feynman_kac_matches_inline_sampler = TestReplicaContract.test_feynman_kac_matches_inline_sampler
    test_feynman_kac_calls_v_once_per_replica_in_order = (
        TestReplicaContract.test_feynman_kac_calls_v_once_per_replica_in_order
    )
    test_mckean_matches_tree_loop = TestReplicaContract.test_mckean_matches_tree_loop
    test_gf_matches_oracle_walks = TestReplicaContract.test_gf_matches_oracle_walks
    test_clock_matches_tree_loop = TestReplicaContract.test_clock_matches_tree_loop
    LIFETIME_SEEDS = TestReplicaContract.LIFETIME_SEEDS
    test_lifetimes_are_the_first_events_of_pure_death_trees = (
        TestReplicaContract.test_lifetimes_are_the_first_events_of_pure_death_trees
    )
    test_lifetimes_past_the_horizon_are_inf = TestReplicaContract.test_lifetimes_past_the_horizon_are_inf
    test_replica_counts_across_chunks = TestMassWalks.test_replica_counts_across_chunks
    test_gf_equals_per_replica_oracle = TestMassWalks.test_gf_equals_per_replica_oracle
    test_gf_explosion_names_the_first_replica = TestMassWalks.test_gf_explosion_names_the_first_replica
    test_small_chunks_walk_the_same = TestMassWalks.test_small_chunks_walk_the_same

    @pytest.fixture(autouse=True)
    def broken_fast_path(self, monkeypatch):
        seed_words = montecarlo._seed_words
        monkeypatch.setattr(montecarlo, "_seed_words", lambda seed, *span: seed_words(seed + 1, *span))

    def test_fallback_is_taken(self):
        streams = list(montecarlo._replica_streams(5, 3))
        assert streams[0] is not streams[1]
        assert [g.bit_generator.state for g in streams] == [derive_stream(5, r).bit_generator.state for r in range(3)]


FOUR_POINT = dyson.FertilityDistribution((0.2, 0.3, 0.1, 0.4))


class TestEarlyStop:
    """The extinction walk stops once its count passes L = min(cap, n*)."""

    def test_bound_covers_binary_extinction_probability(self):
        for alpha in (1e-300, 0.01, 0.1, 0.25, 1 / 3, 0.4, 0.49, 0.4999999):
            q = Fraction(alpha) / (1 - Fraction(alpha))
            qbar = montecarlo._extinction_upper_bound(binary_config(alpha).offspring_cdf)
            assert q <= Fraction(qbar) <= q + Fraction(1, 2**50)

    def test_stop_level_is_computed_once_per_config(self, monkeypatch):
        calls = []
        bound = montecarlo._extinction_upper_bound
        monkeypatch.setattr(montecarlo, "_extinction_upper_bound", lambda cdf: calls.append(1) or bound(cdf))
        config = binary_config(0.25, cap=10_000)
        estimate_extinction(config, np.linspace(0.0, 5.0, 6), 20, seed=1)
        sample_extinction_times(config, 5.0, 20, seed=2)
        assert config.extinction_stop == (64, bound(config.offspring_cdf) ** 65)
        assert len(calls) == 1

    def test_stop_level_and_bias_bound(self):
        level, bound = binary_config(0.25, cap=10_000).extinction_stop
        assert level == 64 and 0.0 < bound <= 2.0**-100  # (1/3)**64 > 2**-100 > (1/3)**65
        assert binary_config(0.25, cap=40).extinction_stop == (40, pytest.approx((1 / 3) ** 41))
        assert binary_config(0.1, cap=10_000).extinction_stop[0] == 32
        assert binary_config(0.4, cap=10_000).extinction_stop[0] == 171

    def test_no_extinction_laws(self):
        # alpha 0 and the law (0, 1) never die out: q = 0.
        for law in (dyson.FertilityDistribution.binary(0.0), dyson.FertilityDistribution((0.0, 1.0))):
            config = BranchingConfig(1.0, law, max_particles=10_000)
            qbar = montecarlo._extinction_upper_bound(config.offspring_cdf)
            assert 0.0 < qbar <= 2.0**-64
            level, bound = config.extinction_stop
            assert level == 2 and bound == qbar**3
            assert np.all(sample_extinction_times(config, 5.0, 200, seed=3) == math.inf)

    def test_certain_extinction_has_no_early_stop(self):
        # alpha .5 (critical), alpha 1 and a subcritical non-binary law: q = 1.
        subcritical = dyson.FertilityDistribution((0.5, 0.3, 0.2))
        for law in (dyson.FertilityDistribution.binary(0.5), dyson.FertilityDistribution.binary(1.0), subcritical):
            config = BranchingConfig(1.0, law, max_particles=500)
            assert montecarlo._extinction_upper_bound(config.offspring_cdf) == 1.0
            assert config.extinction_stop == (500, 1.0)
            for seed in (1, 7):
                want = [horizon_walk_oracle(1.0, config.offspring_cdf, 30.0, 500, derive_stream(seed, r))[0]
                        for r in range(200)]
                np.testing.assert_array_equal(sample_extinction_times(config, 30.0, 200, seed), want)

    def test_stopped_walks_match_walks_to_the_cap(self, monkeypatch):
        # Bit for bit against walks to the full 10k cap; some replicas really stop at L.
        walked = []

        def spy(gamma, cdf, horizon, cap, replicas, seed, *rest, **options):
            ends, finals, at_grid = mass_walks(gamma, cdf, horizon, cap, replicas, seed, *rest, **options)
            walked.extend((cap, int(last)) for last in finals)
            return ends, finals, at_grid

        mass_walks = montecarlo._mass_walks
        monkeypatch.setattr(montecarlo, "_mass_walks", spy)
        laws = [dyson.FertilityDistribution.binary(alpha) for alpha in (0.1, 0.25, 0.4)] + [FOUR_POINT]
        for law in laws:
            config = BranchingConfig(1.0, law, max_particles=10_000)
            level, _ = config.extinction_stop
            assert level < 10_000
            for seed in (1, 7, 123456):
                walked.clear()
                want = [horizon_walk_oracle(1.0, config.offspring_cdf, 60.0, 10_000, derive_stream(seed, r))[0]
                        for r in range(60)]
                np.testing.assert_array_equal(sample_extinction_times(config, 60.0, 60, seed), want)
                assert {cap for cap, _ in walked} == {level}
                assert any(last > level for _, last in walked)


class TestArgumentChecks:
    """Misused arguments raise ValueError naming the argument."""

    PHI = kernels.SampledFunction(-5.0, 0.1, np.full(101, 0.5))
    U = kernels.SampledFunction(-5.0, 0.1, np.ones(101))

    @staticmethod
    def zero(xs):
        return np.zeros_like(xs)

    def test_config(self):
        with pytest.raises(ValueError, match="gamma"):
            BranchingConfig(math.inf, BINARY_QUARTER)
        with pytest.raises(ValueError, match="gamma"):
            BranchingConfig(math.nan, BINARY_QUARTER)
        with pytest.raises(ValueError, match="^d must"):
            BranchingConfig(1.0, BINARY_QUARTER, d=True)
        with pytest.raises(ValueError, match="^max_particles must"):
            BranchingConfig(1.0, BINARY_QUARTER, max_particles=2.5)
        for x0 in ((math.nan,), (0.0, math.inf)):
            with pytest.raises(ValueError, match="^x0 must be finite$"):
                BranchingConfig(1.0, BINARY_QUARTER, d=len(x0), x0=x0)
        for d, x0 in ((2, [[0.0], [1.0]]), (1, [[0.0]]), (2, [[0.0, 1.0]])):
            with pytest.raises(ValueError, match="^x0 must be a scalar or 1-d, got 2 dimensions$"):
                BranchingConfig(1.0, BINARY_QUARTER, d=d, x0=x0)

    def test_horizons(self):
        with pytest.raises(ValueError, match="^horizon must"):
            estimate_extinction(binary_config(0.25), math.nan, 10, seed=1)
        with pytest.raises(ValueError, match="^horizon must"):
            simulate_branching(binary_config(0.25), math.nan, (), seed=1)
        with pytest.raises(ValueError, match="^sample_times must"):
            simulate_branching(binary_config(0.25), 1.0, (math.nan,), seed=1)

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    def test_estimator_times(self, t):
        with pytest.raises(ValueError, match="^t must"):
            estimate_generating_function(binary_config(0.25), 0.5, t, 10, seed=1)
        with pytest.raises(ValueError, match="^t must"):
            estimate_mckean_product(binary_config(0.25), self.PHI, t, 10, seed=1)

    @pytest.mark.parametrize(
        "t", [[], [1.0, 0.5], [0.5, math.nan], [math.nan], [-1.0, 1.0], [0.5, math.inf], [[0.5, 1.0]]]
    )
    def test_estimator_time_arrays(self, t):
        with pytest.raises(ValueError, match="^t must"):
            estimate_generating_function(binary_config(0.25), 0.5, np.array(t), 10, seed=1)

    @pytest.mark.parametrize("t", [-1.0, 0.0, math.nan, math.inf])
    def test_path_times(self, t):
        with pytest.raises(ValueError, match="^t must"):
            feynman_kac_estimate(self.U, self.zero, t, 0.0, 10, 4, seed=1)
        with pytest.raises(ValueError, match="^t must"):
            sample_brownian_path(0.0, t, 4, seed=1)

    def test_path_counts_and_start(self):
        with pytest.raises(ValueError, match="^n_steps must"):
            feynman_kac_estimate(self.U, self.zero, 1.0, 0.0, 10, 0, seed=1)
        with pytest.raises(ValueError, match="^n_steps must"):
            sample_brownian_path(0.0, 1.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="^x must be finite$"):
            feynman_kac_estimate(self.U, self.zero, 1.0, math.nan, 10, 4, seed=1)
        with pytest.raises(ValueError, match="^x must be one position, got 2 values$"):
            feynman_kac_estimate(self.U, self.zero, 1.0, [math.nan, 0.2], 10, 4, seed=1)
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            sample_brownian_path(math.nan, 1.0, 4, seed=1)
        for x0 in ([], np.zeros(0)):
            with pytest.raises(ValueError, match="^x0 has dimension 0$"):
                sample_brownian_path(x0, 1.0, 4, seed=1)
        for x0 in ([[0.0, 1.0], [2.0, 3.0]], [[0.0]], np.zeros((1, 1, 1))):
            with pytest.raises(ValueError, match=f"^x0 must be a scalar or 1-d, got {np.ndim(x0)} dimensions$"):
                sample_brownian_path(x0, 1.0, 4, seed=1)
        with pytest.raises(ValueError, match="^x must be a scalar or 1-d, got 2 dimensions$"):
            feynman_kac_estimate(self.U, self.zero, 1.0, [[0.1]], 10, 4, seed=1)

    @pytest.mark.parametrize("replicas", [0, 1, -2, 1.5, True])
    def test_replica_counts(self, replicas):
        config = binary_config(0.25)
        with pytest.raises(ValueError, match="^replicas must"):
            estimate_generating_function(config, 0.5, 1.0, replicas, seed=1)
        with pytest.raises(ValueError, match="^replicas must"):
            estimate_mckean_product(config, self.PHI, 1.0, replicas, seed=1)
        with pytest.raises(ValueError, match="^replicas must"):
            feynman_kac_estimate(self.U, self.zero, 1.0, 0.0, replicas, 4, seed=1)
        if replicas != 1:  # one replica gives an extinction fraction and its binomial stderr
            with pytest.raises(ValueError, match="^replicas must"):
                estimate_extinction(config, 1.0, replicas, seed=1)

    def test_lifetimes_check_order(self):
        # gamma, then replicas, then horizon.
        for gamma in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="gamma"):
                montecarlo.sample_lifetimes(gamma, math.nan, 0, seed=1)
        for replicas in (0, 1.5, True):
            with pytest.raises(ValueError, match="^replicas must"):
                montecarlo.sample_lifetimes(2.0, math.nan, replicas, seed=1)
        for horizon in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="^horizon must"):
                montecarlo.sample_lifetimes(2.0, horizon, 1, seed=1)
        assert montecarlo.sample_lifetimes(2.0, 0.0, 1, seed=1).tolist() == [math.inf]

    def test_feynman_kac_check_order(self):
        # The checks run in this order: replicas, then t, n_steps and x0.
        with pytest.raises(ValueError, match="^replicas must"):
            feynman_kac_estimate(self.U, self.zero, math.nan, math.nan, 1, 0, seed=1)
        with pytest.raises(ValueError, match="^t must"):
            feynman_kac_estimate(self.U, self.zero, math.nan, math.nan, 10, 0, seed=1)
        with pytest.raises(ValueError, match="^n_steps must"):
            feynman_kac_estimate(self.U, self.zero, 1.0, math.nan, 10, 0, seed=1)
        # x is one position, checked last.
        two = [0.1, 0.2]
        with pytest.raises(ValueError, match="^replicas must"):
            feynman_kac_estimate(self.U, self.zero, 1.0, two, 1, 4, seed=1)
        with pytest.raises(ValueError, match="^t must"):
            feynman_kac_estimate(self.U, self.zero, math.nan, two, 10, 4, seed=1)
        with pytest.raises(ValueError, match="^n_steps must"):
            feynman_kac_estimate(self.U, self.zero, 1.0, two, 10, 0, seed=1)
        with pytest.raises(ValueError, match="^x must be one position, got 2 values$"):
            feynman_kac_estimate(self.U, self.zero, 1.0, two, 10, 4, seed=1)
        assert feynman_kac_estimate(self.U, self.zero, 1.0, [0.1], 10, 4, seed=1) == feynman_kac_estimate(
            self.U, self.zero, 1.0, 0.1, 10, 4, seed=1
        )

    def test_feynman_kac_potential(self):
        bad = [
            (lambda xs: np.full(xs.shape, math.nan), "^v returned NaN"),
            (lambda xs: np.ones(3), r"^v must return shape \(20,\)"),
            (lambda xs: 1.0, r"^v must return shape \(20,\)"),
            (lambda xs: np.full(xs.shape, -1e6), "^v is not bounded below"),
            (lambda xs: np.full(xs.shape, -math.inf), "^v is not bounded below"),
        ]
        for v, message in bad:
            with pytest.raises(ValueError, match=message):
                feynman_kac_estimate(self.U, v, 1.0, 0.0, 10, 20, seed=1)
        # Planted in replica 57 of 100 at 200 steps, in the third pass of 20: the replica is named,
        # and its NaN or overflow is reported before a later replica's wrong shape or other fault.
        nan, low, short = (lambda xs: np.full(xs.shape, math.nan)), (lambda xs: np.full(xs.shape, -1e6)), np.ones(3)
        for planted, message in (
            ({57: nan}, r"^v returned NaN \(or both \+inf and -inf\) on the path of replica 57$"),
            ({57: low, 58: nan}, r"^v is not bounded below on the path of replica 57: exp\(1e\+06\) overflows$"),
            ({57: nan, 59: lambda xs: short}, "replica 57$"),
            ({56: lambda xs: short, 57: nan}, r"^v must return shape \(200,\), one value per path point; got \(3,\)$"),
        ):
            calls = itertools.count()

            def v(xs):
                return planted.get(next(calls), self.zero)(xs)

            with pytest.raises(ValueError, match=message):
                feynman_kac_estimate(self.U, v, 1.0, 0.0, 100, 200, seed=1)
        # A potential of -700 is still bounded below, and one of +inf kills every path.
        est, _ = feynman_kac_estimate(self.U, lambda xs: np.full(xs.shape, -700.0), 1.0, 0.0, 10, 20, seed=1)
        assert est == pytest.approx(math.exp(700.0))
        assert feynman_kac_estimate(self.U, lambda xs: np.full(xs.shape, math.inf), 1.0, 0.0, 10, 20, seed=1) == (0.0, 0.0)

    def test_mckean_check_order(self):
        with pytest.raises(ValueError, match="one spatial dimension"):
            estimate_mckean_product(BranchingConfig(1.0, BINARY_QUARTER, d=2, x0=(0.0, 0.0)), "phi", math.nan, 1, 1)
        with pytest.raises(ValueError, match="^phi must"):
            estimate_mckean_product(binary_config(0.25), kernels.SampledFunction(0.0, 1.0, [2.0, 2.0]), math.nan, 1, 1)
        with pytest.raises(ValueError, match="^t must"):
            estimate_mckean_product(binary_config(0.25), self.PHI, math.nan, 1, seed=1)
        with pytest.raises(ValueError, match="^replicas must"):
            estimate_mckean_product(binary_config(0.25), self.PHI, 1.0, 1, seed=1)

    def test_lifetime_ks(self):
        with pytest.raises(ValueError, match="^rate must"):
            lifetime_ks([0.5, 1.0], math.nan)
        with pytest.raises(ValueError, match="^times must"):
            lifetime_ks([0.5, math.nan], 1.0)
        with pytest.raises(ValueError, match="^times must"):
            lifetime_ks([], 1.0)


class TestSeedChecks:
    """A seed is an integer (Python or numpy, not bool) and a replica an integer >= 0, or ValueError."""

    PHI, U = TestArgumentChecks.PHI, TestArgumentChecks.U

    def seeded_calls(self, seed):
        config = binary_config(0.25)
        return [
            lambda: derive_stream(seed),
            lambda: sample_brownian_path(0.0, 1.0, 4, seed),
            lambda: feynman_kac_estimate(self.U, np.zeros_like, 1.0, 0.0, 10, 4, seed),
            lambda: simulate_branching(config, 1.0, (), seed),
            lambda: montecarlo.sample_lifetimes(2.0, 1.0, 10, seed),
            lambda: sample_extinction_times(config, 1.0, 10, seed),
            lambda: estimate_extinction(config, 1.0, 10, seed),
            lambda: estimate_generating_function(config, 0.5, 1.0, 10, seed),
            lambda: estimate_mckean_product(config, self.PHI, 1.0, 10, seed),
        ]

    @pytest.mark.parametrize("seed", [1.7, True, np.float64(3.0), math.nan, "5", None, np.bool_(True)])
    def test_non_integer_seeds_raise(self, seed):
        for call in self.seeded_calls(seed):
            with pytest.raises(ValueError, match="^seed must be an integer, got "):
                call()

    @pytest.mark.parametrize("replica", [-1, 1.5, True, np.float64(1.0), math.nan])
    def test_bad_replicas_raise(self, replica):
        config = binary_config(0.25)
        for call in (
            lambda: derive_stream(5, replica),
            lambda: sample_brownian_path(0.0, 1.0, 4, 5, replica),
            lambda: simulate_branching(config, 1.0, (), 5, replica),
        ):
            with pytest.raises(ValueError, match="^replica must be an integer >= 0, got "):
                call()

    def test_integer_seeds_keep_their_streams(self):
        # numpy integers run the stream of their value, and every seed is taken mod 2**64.
        reference = derive_stream(7, 3).random(3).tolist()
        for seed in (np.int64(7), np.uint64(7), np.int8(7), 7 + 2**64, 7 - 2**64):
            assert derive_stream(seed, 3).random(3).tolist() == reference
        assert derive_stream(5, np.int64(2)).random(3).tolist() == derive_stream(5, 2).random(3).tolist()
        assert derive_stream(-1).random(3).tolist() == derive_stream(2**64 - 1).random(3).tolist()
        config = binary_config(0.25)
        assert estimate_generating_function(config, 0.5, 1.0, 20, np.uint64(2**64 - 1)) == estimate_generating_function(
            config, 0.5, 1.0, 20, -1
        )
        assert montecarlo.sample_lifetimes(2.0, 1.0, 20, np.int32(9)).tolist() == montecarlo.sample_lifetimes(
            2.0, 1.0, 20, 9
        ).tolist()

    def test_seed_checked_after_the_listed_arguments(self):
        config = binary_config(0.25)
        with pytest.raises(ValueError, match="^x0 must"):
            sample_brownian_path(math.nan, 1.0, 4, 1.7, -1)
        with pytest.raises(ValueError, match="^x must"):
            feynman_kac_estimate(self.U, np.zeros_like, 1.0, math.nan, 10, 4, 1.7)
        with pytest.raises(ValueError, match="^sample_times must"):
            simulate_branching(config, 1.0, (2.0,), 1.7, -1)
        with pytest.raises(ValueError, match="^seed must"):
            simulate_branching(config, 1.0, (), 1.7, -1)
        with pytest.raises(ValueError, match="^horizon must"):
            montecarlo.sample_lifetimes(2.0, math.nan, 10, 1.7)
        with pytest.raises(ValueError, match="^replicas must"):
            sample_extinction_times(config, 1.0, 0, 1.7)
        with pytest.raises(ValueError, match="^horizon must"):
            estimate_extinction(config, math.nan, 10, 1.7)
        with pytest.raises(ValueError, match="^replicas must"):
            estimate_generating_function(config, 0.5, 1.0, 1, 1.7)
        with pytest.raises(ValueError, match="^replicas must"):
            estimate_mckean_product(config, self.PHI, 1.0, 1, 1.7)


class TestKolmogorovTail:
    def test_against_scipy_on_a_grid_with_zero(self):
        for lam in [0.0, 1e-3, 0.011, 0.02, 0.04, 0.0424, 0.0425, 0.05, 0.1, 0.3, 0.5, 0.8, 1.0, 1.5, 2.0, 3.0, 5.0]:
            assert abs(montecarlo._kolmogorov_sf(lam) - stats.kstwobign.sf(lam)) <= 4e-15

    def test_alternating_series_keeps_its_bits(self):
        # Above the switch the p-value is the 100-term alternating sum, clipped to [0, 1].
        ks = np.arange(1, 101)
        for lam in [0.04244, 0.05, 0.1, 0.37, 0.9, 1.3, 2.2, 4.0, 7.5]:
            p = 2.0 * float(np.sum((-1.0) ** (ks - 1) * np.exp(-2.0 * ks**2 * lam**2)))
            assert montecarlo._kolmogorov_sf(lam) == min(max(p, 0.0), 1.0)

    def test_near_perfect_sample(self):
        # Quantile-matched lifetimes: statistic 1/(2n), lam about 0.011 at n = 2000.
        n = 2000
        times = -np.log1p(-(np.arange(n) + 0.5) / n) / 2.0
        stat, pvalue = lifetime_ks(times, 2.0)
        assert stat == pytest.approx(0.5 / n)
        assert pvalue == 1.0
