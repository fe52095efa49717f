"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro.coding.gf import PrimeField
from repro.coding.subspace import Subspace
from repro.core.branching import one_club_drift
from repro.core.parameters import SystemParameters
from repro.core.scenario import PeerClass, RateSchedule, ScenarioSpec, make_scenario
from repro.core.stability import analyze, delta_s, piece_threshold, Stability
from repro.core.state import SystemState
from repro.core.transitions import outgoing_transitions, total_exit_rate
from repro.core.types import PieceSet, all_types
from repro.swarm.drawbuf import DEFAULT_BLOCK_SIZE
from repro.swarm.gossip import CensusSpec
from repro.swarm.kernel import ArraySwarmKernel
from repro.swarm.policies import RarestFirstSelection, make_policy, registered_policies
from repro.swarm.swarm import make_simulator, run_swarm

# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

MAX_K = 4


@st.composite
def piece_sets(draw, num_pieces=None):
    k = num_pieces if num_pieces is not None else draw(st.integers(1, MAX_K))
    mask = draw(st.integers(0, (1 << k) - 1))
    return PieceSet.from_mask(mask, k)


@st.composite
def piece_set_pairs(draw):
    k = draw(st.integers(1, MAX_K))
    return draw(piece_sets(k)), draw(piece_sets(k))


@st.composite
def system_parameters(draw):
    k = draw(st.integers(1, 3))
    seed_rate = draw(st.floats(0.0, 5.0))
    peer_rate = draw(st.floats(0.1, 3.0))
    gamma = draw(st.one_of(st.floats(0.2, 5.0), st.just(math.inf)))
    num_arrival_types = draw(st.integers(1, 3))
    arrival_rates = {}
    for _ in range(num_arrival_types):
        type_c = draw(piece_sets(k))
        if type_c.is_complete and math.isinf(gamma):
            continue
        arrival_rates[type_c] = draw(st.floats(0.05, 4.0))
    assume(arrival_rates)
    return SystemParameters(
        num_pieces=k,
        seed_rate=seed_rate,
        peer_rate=peer_rate,
        seed_departure_rate=gamma,
        arrival_rates=arrival_rates,
    )


@st.composite
def rate_schedules(draw):
    """Piecewise-constant schedules, biased toward shapes with real thinning."""
    kind = draw(st.sampled_from(["constant", "pulse", "outage", "step"]))
    if kind == "constant":
        return RateSchedule.constant(draw(st.floats(0.5, 3.0)))
    if kind == "pulse":
        start = draw(st.floats(0.5, 2.0))
        return RateSchedule.pulse(start, start + draw(st.floats(0.5, 3.0)), draw(st.floats(2.0, 6.0)))
    if kind == "outage":
        start = draw(st.floats(0.5, 2.0))
        return RateSchedule.outage(start, start + draw(st.floats(0.5, 3.0)))
    return RateSchedule.step([(0.0, 1.0), (draw(st.floats(0.5, 3.0)), draw(st.floats(0.0, 4.0)))])


@st.composite
def scenario_specs(draw):
    """Heterogeneous scenarios: 1-3 peer classes plus arrival/seed schedules."""
    params = draw(system_parameters())
    num_classes = draw(st.integers(1, 3))
    classes = []
    for index in range(num_classes):
        gamma = draw(st.one_of(st.floats(0.3, 4.0), st.just(math.inf)))
        mix = None
        if draw(st.booleans()):
            types = {}
            for _ in range(draw(st.integers(1, 2))):
                type_c = draw(piece_sets(params.num_pieces))
                if type_c.is_complete and math.isinf(gamma):
                    continue
                types[type_c] = draw(st.floats(0.1, 3.0))
            mix = types or None
        classes.append(
            PeerClass(
                name=f"class-{index}",
                contact_rate=draw(st.floats(0.2, 3.0)),
                seed_departure_rate=gamma,
                arrival_fraction=draw(st.floats(0.1, 2.0)),
                arrival_mix=mix,
            )
        )
    # The base mix must be valid for any immediate-departure class inheriting it.
    full = PieceSet.full(params.num_pieces)
    if any(cls.immediate_departure and cls.arrival_mix is None for cls in classes):
        assume(params.arrival_rates.get(full, 0.0) == 0.0)
    return ScenarioSpec(
        name="hetero-property",
        params=params,
        classes=tuple(classes),
        arrival_schedule=draw(rate_schedules()),
        seed_schedule=draw(rate_schedules()),
    )


@st.composite
def system_states(draw, max_count=6):
    k = draw(st.integers(1, 3))
    counts = {}
    for type_c in all_types(k):
        value = draw(st.integers(0, max_count))
        if value:
            counts[type_c] = value
    return SystemState(counts, k)


# ---------------------------------------------------------------------------
# PieceSet lattice properties
# ---------------------------------------------------------------------------


class TestPieceSetProperties:
    @given(piece_set_pairs())
    def test_union_is_superset_of_both(self, pair):
        a, b = pair
        union = a.union(b)
        assert a.issubset(union) and b.issubset(union)
        assert len(union) == len(a) + len(b) - len(a.intersection(b))

    @given(piece_set_pairs())
    def test_difference_disjoint_from_other(self, pair):
        a, b = pair
        assert a.difference(b).intersection(b).is_empty

    @given(piece_sets())
    def test_missing_is_complement(self, a):
        missing = a.missing()
        assert a.intersection(missing).is_empty
        assert a.union(missing).is_complete

    @given(piece_set_pairs())
    def test_useful_from_matches_containment(self, pair):
        a, b = pair
        useful = a.useful_from(b)
        assert useful.is_empty == b.issubset(a)
        assert a.can_be_helped_by(b) == (not useful.is_empty)

    @given(piece_sets(), st.integers(1, MAX_K))
    def test_add_remove_roundtrip(self, a, piece):
        assume(piece <= a.num_pieces)
        assume(piece not in a)
        assert a.add(piece).remove(piece) == a

    @given(piece_set_pairs())
    def test_subset_antisymmetry(self, pair):
        a, b = pair
        if a.issubset(b) and b.issubset(a):
            assert a == b

    @given(piece_sets())
    def test_mask_roundtrip(self, a):
        assert PieceSet.from_mask(a.mask, a.num_pieces) == a


# ---------------------------------------------------------------------------
# SystemState invariants
# ---------------------------------------------------------------------------


class TestSystemStateProperties:
    @given(system_states())
    def test_population_decomposes_over_helpers(self, state):
        """E_C + x_{H_C} = n for every target C."""
        for target in all_types(state.num_pieces):
            assert state.downward_count(target) + state.helper_count(target) == state.total_peers

    @given(system_states(), st.integers(1, 3))
    def test_piece_counts_consistent(self, state, piece):
        assume(piece <= state.num_pieces)
        assert (
            state.peers_with_piece(piece) + state.peers_missing_piece(piece)
            == state.total_peers
        )

    @given(system_states())
    def test_add_then_remove_is_identity(self, state):
        type_c = PieceSet.empty(state.num_pieces)
        assert state.add_peer(type_c).remove_peer(type_c) == state

    @given(system_states())
    def test_vector_roundtrip(self, state):
        from repro.core.types import canonical_type_order

        order = canonical_type_order(state.num_pieces)
        assert SystemState.from_vector(state.to_vector(order), order, state.num_pieces) == state


# ---------------------------------------------------------------------------
# Transition-rate invariants
# ---------------------------------------------------------------------------


class TestTransitionProperties:
    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(system_parameters(), system_states())
    def test_rates_nonnegative_and_population_step_one(self, params, state):
        assume(state.num_pieces == params.num_pieces)
        total = 0.0
        for transition in outgoing_transitions(state, params):
            assert transition.rate > 0
            assert abs(transition.target.total_peers - state.total_peers) <= 1
            total += transition.rate
        assert total == pytest.approx(total_exit_rate(state, params))

    @settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
    @given(system_parameters(), system_states())
    def test_downloads_preserve_piece_monotonicity(self, params, state):
        """Every non-arrival transition only adds pieces to peers (or removes seeds)."""
        assume(state.num_pieces == params.num_pieces)
        before = state.piece_counts()
        for transition in outgoing_transitions(state, params):
            after = transition.target.piece_counts()
            for piece in before:
                # Counts can only drop by a departure of a complete peer.
                assert after[piece] >= before[piece] - 1


# ---------------------------------------------------------------------------
# Stability-theory properties
# ---------------------------------------------------------------------------


class TestStabilityProperties:
    @settings(max_examples=60)
    @given(system_parameters())
    def test_eq3_eq4_equivalence(self, params):
        """The per-piece threshold condition (3) matches the sign of Delta (4)."""
        assume(params.mu_over_gamma < 1.0)
        for piece in range(1, params.num_pieces + 1):
            delta = delta_s(params, PieceSet.full(params.num_pieces).remove(piece))
            threshold = piece_threshold(params, piece)
            if params.lambda_total < threshold:
                assert delta < 1e-9
            elif params.lambda_total > threshold:
                assert delta > -1e-9

    @settings(max_examples=60)
    @given(system_parameters())
    def test_branching_drift_equals_delta(self, params):
        assume(params.mu_over_gamma < 1.0)
        for piece in range(1, params.num_pieces + 1):
            assert one_club_drift(params, piece) == pytest.approx(
                delta_s(params, PieceSet.full(params.num_pieces).remove(piece))
            )

    @settings(max_examples=40)
    @given(system_parameters(), st.floats(1.2, 4.0))
    def test_scaling_arrivals_never_helps(self, params, factor):
        """If a system is already unstable, scaling up arrivals keeps it unstable."""
        report = analyze(params)
        assume(report.verdict is Stability.UNSTABLE)
        scaled = analyze(params.scaled_arrivals(factor))
        assert scaled.verdict is Stability.UNSTABLE

    @settings(max_examples=40)
    @given(system_parameters(), st.floats(0.5, 5.0))
    def test_more_seed_capacity_never_hurts(self, params, extra):
        """Adding fixed-seed capacity can only enlarge the margin."""
        assume(params.mu_over_gamma < 1.0)
        before = analyze(params).margin
        after = analyze(params.with_seed_rate(params.seed_rate + extra)).margin
        assert after >= before - 1e-9

    @settings(max_examples=40)
    @given(system_parameters())
    def test_gamma_below_mu_always_stable_when_pieces_enter(self, params):
        assume(params.all_pieces_can_enter())
        slow = params.with_departure_rate(params.peer_rate * 0.5)
        assert analyze(slow).verdict is Stability.STABLE

    @settings(max_examples=40)
    @given(system_parameters())
    def test_verdict_is_exclusive(self, params):
        report = analyze(params)
        assert report.is_stable + report.is_unstable <= 1


# ---------------------------------------------------------------------------
# Backend equivalence: object simulator vs. array kernel
# ---------------------------------------------------------------------------


class TestBackendEquivalence:
    """The array kernel and the object simulator share RNG consumption, so a
    common seed must yield bit-identical trajectories on both backends."""

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        system_parameters(),
        st.integers(0, 2**31 - 1),
        st.sampled_from(registered_policies()),
        st.sampled_from([1.0, 2.5]),
        st.booleans(),
    )
    def test_backends_produce_identical_trajectories(
        self, params, seed, policy_name, retry_speedup, track_groups
    ):
        runs = {}
        for backend in ("object", "array"):
            runs[backend] = run_swarm(
                params,
                horizon=6.0,
                seed=seed,
                policy=make_policy(policy_name),
                backend=backend,
                retry_speedup=retry_speedup,
                track_groups=track_groups,
                max_events=300,
            )
        obj, arr = runs["object"], runs["array"]
        assert arr.final_population == obj.final_population
        assert arr.final_state == obj.final_state
        assert arr.final_state.piece_counts() == obj.final_state.piece_counts()
        assert arr.final_time == obj.final_time
        assert arr.horizon_reached == obj.horizon_reached
        assert arr.metrics.population == obj.metrics.population
        assert arr.metrics.one_club_size == obj.metrics.one_club_size
        assert arr.metrics.num_seeds == obj.metrics.num_seeds
        assert arr.metrics.min_piece_count == obj.metrics.min_piece_count
        assert arr.metrics.total_downloads == obj.metrics.total_downloads
        assert arr.metrics.wasted_contacts == obj.metrics.wasted_contacts
        assert arr.metrics.total_seed_uploads == obj.metrics.total_seed_uploads
        assert arr.metrics.sojourn_times == obj.metrics.sojourn_times
        assert arr.metrics.download_times == obj.metrics.download_times
        assert arr.metrics.group_snapshots == obj.metrics.group_snapshots

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(system_parameters(), st.integers(0, 2**31 - 1), st.integers(1, 30))
    def test_backends_agree_from_seeded_one_club(self, params, seed, club_size):
        initial = SystemState.one_club(params.num_pieces, club_size)
        results = [
            run_swarm(
                params,
                horizon=4.0,
                seed=seed,
                backend=backend,
                initial_state=initial,
                max_events=200,
            )
            for backend in ("object", "array")
        ]
        assert results[0].final_state == results[1].final_state
        assert results[0].metrics.population == results[1].metrics.population
        assert results[0].metrics.one_club_size == results[1].metrics.one_club_size
        assert results[0].metrics.min_piece_count == results[1].metrics.min_piece_count
        assert results[0].metrics.num_seeds == results[1].metrics.num_seeds

    @settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(scenario_specs(), st.integers(0, 2**31 - 1), st.sampled_from([1.0, 2.5]))
    def test_backends_agree_on_heterogeneous_scenarios(
        self, scenario, seed, retry_speedup
    ):
        """Per-class rates, per-class mixes and thinned schedules all go
        through the shared driver, so the full time series — population,
        one-club size, min piece count, seeds — must stay bit-identical."""
        runs = {
            backend: run_swarm(
                scenario.params,
                horizon=6.0,
                seed=seed,
                backend=backend,
                scenario=scenario,
                retry_speedup=retry_speedup,
                max_events=300,
            )
            for backend in ("object", "array")
        }
        obj, arr = runs["object"], runs["array"]
        assert arr.final_population == obj.final_population
        assert arr.final_state == obj.final_state
        assert arr.final_time == obj.final_time
        assert arr.metrics.population == obj.metrics.population
        assert arr.metrics.one_club_size == obj.metrics.one_club_size
        assert arr.metrics.min_piece_count == obj.metrics.min_piece_count
        assert arr.metrics.num_seeds == obj.metrics.num_seeds
        assert arr.metrics.total_downloads == obj.metrics.total_downloads
        assert arr.metrics.thinned_events == obj.metrics.thinned_events
        assert arr.metrics.wasted_contacts == obj.metrics.wasted_contacts
        assert arr.metrics.sojourn_times == obj.metrics.sojourn_times
        assert arr.metrics.download_times == obj.metrics.download_times

    def test_backends_agree_on_named_scenarios(self):
        """The ISSUE's acceptance pair: flash crowd and heterogeneous classes
        must be bit-identical across backends from a shared seed."""
        from repro.core.scenario import make_scenario

        for name in ("flash-crowd", "heterogeneous-classes"):
            scenario = make_scenario(name)
            runs = {
                backend: run_swarm(
                    scenario.params,
                    horizon=50.0,
                    seed=2026,
                    backend=backend,
                    scenario=scenario,
                    max_events=8000,
                )
                for backend in ("object", "array")
            }
            obj, arr = runs["object"], runs["array"]
            assert arr.final_state == obj.final_state, name
            assert arr.metrics.population == obj.metrics.population, name
            assert arr.metrics.one_club_size == obj.metrics.one_club_size, name
            assert arr.metrics.min_piece_count == obj.metrics.min_piece_count, name
            assert arr.metrics.thinned_events == obj.metrics.thinned_events, name


#: The batch walk's shapes, each run on a pre-seeded one-club of 200 peers
#: under rarest-first: long wasted runs, so the walk really runs.
WALK_SHAPES = {
    "homogeneous": None,
    "free-rider": make_scenario("free-rider"),
    "tracker-overlay": make_scenario("sparse-overlay", topology="tracker", degree=6),
    "gossip-0.05": make_scenario(
        "flash-crowd", census=CensusSpec.gossip(exchange_rate=0.05)
    ),
    "gossip-0.9": make_scenario(
        "flash-crowd", census=CensusSpec.gossip(exchange_rate=0.9)
    ),
    "gossip-sparse-overlay": make_scenario("sparse-overlay", census="gossip"),
    "flash-crowd": make_scenario("flash-crowd"),
}


def _exact(value):
    """A comparable, bit-exact form of a snapshot fragment."""
    if isinstance(value, dict):
        return {key: _exact(item) for key, item in value.items()}
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return [_exact(item) for item in value]
    return value


def _outcome(result):
    m = result.metrics
    return (
        m.sample_times,
        m.population,
        m.num_seeds,
        m.one_club_size,
        m.min_piece_count,
        m.census_error,
        m.census_staleness,
        m.total_arrivals,
        m.total_departures,
        m.total_downloads,
        m.total_seed_uploads,
        m.wasted_contacts,
        m.thinned_events,
        m.neighbor_useful_ticks,
        m.neighbor_useless_ticks,
        m.sojourn_times,
        m.download_times,
        result.final_state,
        result.final_time,
        result.events_executed,
    )


class TestBatchWalkBackendEquivalence:
    """The array kernel's batch walk on captured swarms: object vs. array
    (default block) vs. array at ``draw_block_size=1`` (no batching at all)
    must agree on every metric and on the final snapshot — gossip estimate
    rows, last-update times and exchange counts included."""

    @pytest.mark.parametrize("shape", sorted(WALK_SHAPES))
    def test_walk_is_trajectory_invisible(self, shape, monkeypatch):
        scenario = WALK_SHAPES[shape]
        if scenario is not None:
            params = scenario.params
        else:
            params = SystemParameters.flash_crowd(
                num_pieces=6, arrival_rate=2.0, seed_rate=0.5
            )
        # Count the events the scalar walk applied: everything the stage
        # applied minus the thinned batches and what the vector tier
        # classified (an upper bound on what it applied).
        applied = {"stage": 0, "vector": 0, "thinned": 0}

        def counting(name, method):
            def wrapper(self, *args):
                result = method(self, *args)
                applied[name] += result if name == "vector" else result[0]
                return result

            return wrapper

        for name, attr in (
            ("stage", "_batch_stage"),
            ("vector", "_wasted_prefix"),
            ("thinned", "_batch_thinned"),
        ):
            monkeypatch.setattr(
                ArraySwarmKernel, attr, counting(name, getattr(ArraySwarmKernel, attr))
            )
        initial = SystemState.one_club(params.num_pieces, 200)
        runs = {}
        for label, backend, block in (
            ("object", "object", None),
            ("array", "array", DEFAULT_BLOCK_SIZE),
            ("array-scalar", "array", 1),
        ):
            simulator = make_simulator(
                params,
                policy=RarestFirstSelection(),
                seed=np.random.default_rng(17),
                backend=backend,
                scenario=scenario,
                draw_block_size=block,
            )
            result = simulator.run(30.0, initial_state=initial, max_events=6000)
            runs[label] = (_outcome(result), simulator.capture_state())
            if label == "array":
                walked = applied["stage"] - applied["vector"] - applied["thinned"]
                assert walked > 0, shape
        assert runs["object"][0] == runs["array"][0] == runs["array-scalar"][0]
        # Draw look-ahead (buffer remainder, generator position) depends on
        # the block size; everything else in the snapshot must not.
        snapshots = {
            label: {
                key: _exact(value)
                for key, value in snapshot.items()
                if key not in ("draws", "rng_state")
            }
            for label, (_, snapshot) in runs.items()
        }
        assert snapshots["array"] == snapshots["array-scalar"]
        for key in ("gossip", "overlay", "metrics", "time", "run"):
            assert snapshots["object"][key] == snapshots["array"][key], key


# ---------------------------------------------------------------------------
# GF(p) subspace properties
# ---------------------------------------------------------------------------


@st.composite
def subspace_pairs(draw):
    prime = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(2, 4))
    field = PrimeField(prime)
    num_vectors_a = draw(st.integers(0, dim))
    num_vectors_b = draw(st.integers(0, dim))
    vectors_a = [
        [draw(st.integers(0, prime - 1)) for _ in range(dim)] for _ in range(num_vectors_a)
    ]
    vectors_b = [
        [draw(st.integers(0, prime - 1)) for _ in range(dim)] for _ in range(num_vectors_b)
    ]
    return Subspace(field, dim, vectors_a), Subspace(field, dim, vectors_b)


class TestSubspaceProperties:
    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(subspace_pairs())
    def test_dimension_formula(self, pair):
        a, b = pair
        total = a.sum(b)
        intersection_dim = a.intersection_dimension(b)
        assert total.dimension == a.dimension + b.dimension - intersection_dim
        assert 0 <= intersection_dim <= min(a.dimension, b.dimension)
        assert total.contains_subspace(a) and total.contains_subspace(b)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(subspace_pairs())
    def test_sum_is_commutative(self, pair):
        a, b = pair
        assert a.sum(b) == b.sum(a)

    @settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
    @given(subspace_pairs())
    def test_containment_iff_sum_unchanged(self, pair):
        a, b = pair
        assert a.contains_subspace(b) == (a.sum(b).dimension == a.dimension)

    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    @given(subspace_pairs(), st.integers(0, 2**31 - 1))
    def test_random_vector_membership_and_usefulness(self, pair, seed):
        a, b = pair
        rng = np.random.default_rng(seed)
        vector = a.random_vector(rng)
        assert a.contains(vector)
        if b.is_useful(vector):
            assert not b.contains(vector)
            assert b.add_vector(vector).dimension == b.dimension + 1
        else:
            assert b.add_vector(vector).dimension == b.dimension
