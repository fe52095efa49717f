"""Gossip census: spec validation, protocol unit tests, determinism battery.

The determinism battery mirrors the repo-wide contract for every new
stochastic feature: object/array bit-identity under a shared seed,
``DRAW_BLOCK_SIZE=1`` vs. default equality, mid-run suspend → pickle →
restore exactness (estimates included), and stacked-lane == solo.  The
``census="oracle"`` spec must additionally be a *no-op*: bit-identical
to never mentioning the census at all.
"""

import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.swarm.policies as policies_module
from repro.core.scenario import base_params, make_scenario
from repro.core.state import SystemState
from repro.fleet import resume_fleet, run_fleet
from repro.fleet.spec import FleetSpec, FixedSampler, ScenarioWeight
from repro.swarm.gossip import (
    CENSUS_KINDS,
    CensusSpec,
    GossipCensus,
    GossipState,
    build_gossip,
)
from repro.swarm.policies import (
    OracleCensus,
    RarestFirstSelection,
    SwarmView,
)
from repro.swarm.stacked import StackedSwarmKernel
from repro.swarm.swarm import make_simulator, run_swarm


def metrics_tuple(result):
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
        m.culled_peers,
        m.sojourn_times,
        m.download_times,
        result.final_time,
        result.final_population,
        result.events_executed,
    )


def gossip_scenarios():
    """One scenario per gossip-relevant family (module-level so hypothesis
    samples prebuilt specs without re-running factories per example)."""
    return [
        make_scenario("flash-crowd", census="gossip"),
        make_scenario("flash-crowd", census=CensusSpec.gossip(exchange_rate=1.0)),
        make_scenario(
            "flash-crowd",
            census=CensusSpec.gossip(exchange_rate=0.1, damping=0.5),
        ),
        # Gossip over a sparse overlay: exchanges ride the adjacency draws.
        make_scenario("sparse-overlay", census="gossip"),
        make_scenario(
            "sparse-overlay", topology="tracker", degree=6, census="gossip"
        ),
        # Heterogeneous classes + gossip: per-class ticker walk.
        make_scenario("free-rider", leech_fraction=0.4, census="gossip"),
        # Churn-heavy: exercises swap-remove of estimate rows.
        make_scenario("high-churn", census="gossip"),
    ]


GOSSIP_SCENARIOS = gossip_scenarios()


class TestCensusSpec:
    def test_kinds_and_defaults(self):
        assert CENSUS_KINDS == ("oracle", "gossip")
        spec = CensusSpec()
        assert spec.is_oracle
        assert build_gossip(spec, 3) is None
        assert build_gossip(None, 3) is None
        assert build_gossip(CensusSpec.gossip(), 3) is not None

    def test_validation(self):
        with pytest.raises(ValueError, match="census kind"):
            CensusSpec(kind="telepathy")
        with pytest.raises(ValueError, match="exchange_rate"):
            CensusSpec.gossip(exchange_rate=1.5)
        with pytest.raises(ValueError, match="damping"):
            CensusSpec.gossip(damping=0.0)
        with pytest.raises(TypeError, match="census"):
            CensusSpec.coerce(42)

    def test_coerce(self):
        assert CensusSpec.coerce("oracle") == CensusSpec.oracle()
        assert CensusSpec.coerce("gossip") == CensusSpec.gossip()
        spec = CensusSpec.gossip(exchange_rate=0.2)
        assert CensusSpec.coerce(spec) is spec

    def test_frozen_hashable_picklable(self):
        spec = CensusSpec.gossip(exchange_rate=0.25, damping=0.5)
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert hash(spec) == hash(CensusSpec.gossip(exchange_rate=0.25, damping=0.5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            spec.damping = 1.0

    def test_scenario_field_coerces_and_describes(self):
        spec = make_scenario("flash-crowd", census="gossip")
        assert isinstance(spec.census, CensusSpec)
        assert spec.has_gossip
        assert not spec.is_trivial
        assert "gossip census" in spec.describe()
        oracle = make_scenario("flash-crowd")
        assert oracle.census.is_oracle
        assert not oracle.has_gossip


class TestGossipProtocol:
    """Draw-free unit behaviour of the flow-updating state."""

    def make_state(self, num_pieces=3, **kwargs):
        return GossipState(CensusSpec.gossip(**kwargs), num_pieces, capacity=2)

    def test_arrival_sets_indicator(self):
        state = self.make_state()
        state.on_arrival(0, 0b101, time=1.0)
        assert state.n == 1
        assert state.est[0].tolist() == [1.0, 0.0, 1.0]
        assert state.last_update[0] == 1.0

    def test_piece_receipt_moves_own_value(self):
        state = self.make_state()
        state.on_arrival(0, 0b000, time=0.0)
        state.on_piece(0, piece=2, time=2.0)
        assert state.est[0].tolist() == [0.0, 1.0, 0.0]
        assert state.last_update[0] == 2.0

    def test_exchange_conserves_mass(self):
        state = self.make_state(damping=0.5)
        state.on_arrival(0, 0b111, time=0.0)
        state.on_arrival(1, 0b000, time=0.0)
        before = state.est[:2].sum(axis=0).copy()
        state.exchange(0, 1, time=1.0)
        assert np.allclose(state.est[:2].sum(axis=0), before)
        assert state.exchanges == 1
        # damping=0.5 moves each a quarter of the way to the average.
        assert np.allclose(state.est[0], [0.75, 0.75, 0.75])
        assert np.allclose(state.est[1], [0.25, 0.25, 0.25])

    def test_full_average_at_damping_one(self):
        state = self.make_state()
        state.on_arrival(0, 0b001, time=0.0)
        state.on_arrival(1, 0b010, time=0.0)
        state.exchange(0, 1, time=1.0)
        assert np.allclose(state.est[0], state.est[1])
        assert np.allclose(state.est[0], [0.5, 0.5, 0.0])

    def test_swap_remove_matches_backend_discipline(self):
        state = self.make_state()
        for slot, mask in enumerate((0b001, 0b010, 0b100)):
            state.on_arrival(slot, mask, time=float(slot))
        state.on_departure(0)  # last row (0b100) swaps into slot 0
        assert state.n == 2
        assert state.est[0].tolist() == [0.0, 0.0, 1.0]
        assert state.est[1].tolist() == [0.0, 1.0, 0.0]

    def test_bulk_arrivals_match_scalar_loop(self):
        bulk = self.make_state()
        bulk.on_bulk_arrivals(0, 5, 0b011, time=3.0)
        scalar = self.make_state()
        for slot in range(5):
            scalar.on_arrival(slot, 0b011, time=3.0)
        assert bulk.n == scalar.n == 5
        assert np.array_equal(bulk.est[:5], scalar.est[:5])
        assert np.array_equal(bulk.last_update[:5], scalar.last_update[:5])

    def test_repeated_exchanges_converge_to_truth(self):
        """Full mixing drives every estimate to the population mean, so the
        scaled census converges on the oracle counts and rarest-first picks
        the same piece either way."""
        rng = np.random.default_rng(7)
        masks = [0b001, 0b011, 0b011, 0b111, 0b110, 0b010, 0b011, 0b111]
        state = self.make_state()
        for slot, mask in enumerate(masks):
            state.on_arrival(slot, mask, time=0.0)
        n = len(masks)
        for _ in range(4000):
            a, b = rng.choice(n, size=2, replace=False)
            state.exchange(int(a), int(b), time=1.0)
        truth = {
            k: sum((mask >> (k - 1)) & 1 for mask in masks) for k in (1, 2, 3)
        }
        state.focus(0, total_peers=n, time=1.0)
        census = GossipCensus(state)
        for k in (1, 2, 3):
            assert census.count(k) == pytest.approx(truth[k], abs=1e-6)
        assert np.allclose(
            census.counts_array(), [truth[1], truth[2], truth[3]], atol=1e-6
        )
        policy = RarestFirstSelection()
        view = SwarmView(num_pieces=3, census=census, total_peers=n, time=1.0)
        oracle_view = SwarmView(
            num_pieces=3, census=OracleCensus(truth), total_peers=n, time=1.0
        )
        wanted, held = 0b111, 0b000
        pick_rng = np.random.default_rng(0)
        assert policy.select_piece_mask(
            held, wanted, view, pick_rng
        ) == policy.select_piece_mask(
            held, wanted, oracle_view, np.random.default_rng(0)
        )

    def test_focus_and_staleness(self):
        state = self.make_state()
        state.on_arrival(0, 0b001, time=0.0)
        state.on_arrival(1, 0b010, time=4.0)
        state.focus(1, total_peers=2, time=10.0)
        census = GossipCensus(state)
        assert census.staleness() == 6.0
        assert census.count(2) == 2.0  # est 1.0 × 2 peers
        assert state.mean_staleness(10.0) == pytest.approx(8.0)

    def test_mean_error_zero_when_exact(self):
        state = self.make_state()
        state.on_arrival(0, 0b010, time=0.0)
        # A single peer's indicator *is* the population mean.
        assert state.mean_error({1: 0, 2: 1, 3: 0}, total_peers=1) == 0.0


class TestCensusSourceAPI:
    def test_oracle_census_reads_live_mapping(self):
        counts = {1: 3, 2: 0}
        census = OracleCensus(counts)
        assert census.count(1) == 3
        assert census.count(99) == 0
        assert census.staleness() == 0.0
        counts[1] = 7
        assert census.count(1) == 7

    def test_view_piece_count_delegates(self):
        view = SwarmView(
            num_pieces=2, census=OracleCensus({1: 4, 2: 1}), total_peers=5, time=0.0
        )
        assert view.piece_count(1) == 4

    def test_mask_shim_warns_once_per_process(self, monkeypatch):
        monkeypatch.setattr(policies_module, "_MASK_SHIM_WARNED", False)
        from repro.swarm.policies import CallablePolicy

        policy = CallablePolicy(
            lambda downloader, uploader, view, rng: max(
                downloader.useful_from(uploader)
            )
        )
        view = SwarmView(
            num_pieces=3,
            census=OracleCensus({1: 1, 2: 1, 3: 1}),
            total_peers=3,
            time=0.0,
        )
        rng = np.random.default_rng(0)
        with pytest.warns(DeprecationWarning, match="select_piece_mask"):
            policy.select_piece_mask(0b001, 0b110, view, rng)
        import warnings as _warnings

        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            policy.select_piece_mask(0b001, 0b110, view, rng)


class TestGossipBackendEquivalence:
    """Bit-identity of the two backends on every gossip scenario family."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        st.sampled_from(GOSSIP_SCENARIOS),
        st.integers(0, 2**31 - 1),
    )
    def test_backends_bit_identical_on_gossip(self, scenario, seed):
        runs = {
            backend: run_swarm(
                scenario.params,
                horizon=6.0,
                seed=seed,
                scenario=scenario,
                backend=backend,
                max_events=300,
            )
            for backend in ("object", "array")
        }
        assert metrics_tuple(runs["object"]) == metrics_tuple(runs["array"])

    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(0, 2**31 - 1))
    def test_oracle_census_is_bit_identical_to_unspecified(self, seed):
        """``census="oracle"`` must be a pure spelling of the default: the
        trajectory (and the empty census series) match a run of the same
        scenario that never mentions the census, on both backends."""
        plain = make_scenario("flash-crowd")
        explicit = make_scenario("flash-crowd", census="oracle")
        assert explicit.census.is_oracle
        for backend in ("object", "array"):
            a = run_swarm(
                plain.params, horizon=8.0, seed=seed, scenario=plain,
                backend=backend, max_events=400,
            )
            b = run_swarm(
                explicit.params, horizon=8.0, seed=seed, scenario=explicit,
                backend=backend, max_events=400,
            )
            assert metrics_tuple(a) == metrics_tuple(b)
            assert b.metrics.census_error == []
            assert math.isnan(b.metrics.summary()["mean_census_error"])

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_block_size_invariance(self, backend):
        for scenario in GOSSIP_SCENARIOS:
            small = make_simulator(
                scenario.params,
                seed=np.random.default_rng(3),
                backend=backend,
                scenario=scenario,
                draw_block_size=1,
            )
            default = make_simulator(
                scenario.params,
                seed=np.random.default_rng(3),
                backend=backend,
                scenario=scenario,
            )
            assert metrics_tuple(small.run(12.0)) == metrics_tuple(
                default.run(12.0)
            )

    def test_backends_agree_from_seeded_one_club(self):
        scenario = make_scenario("flash-crowd", census="gossip")
        initial = SystemState.one_club(scenario.params.num_pieces, 20)
        runs = [
            run_swarm(
                scenario.params,
                horizon=5.0,
                seed=11,
                scenario=scenario,
                backend=backend,
                initial_state=initial,
                max_events=400,
            )
            for backend in ("object", "array")
        ]
        assert metrics_tuple(runs[0]) == metrics_tuple(runs[1])
        # The pre-seeded club populates the estimate rows: error series is
        # recorded and finite.
        assert runs[0].metrics.census_error
        assert all(math.isfinite(v) for v in runs[0].metrics.census_error)


class TestGossipMetrics:
    def test_summary_reports_error_and_staleness(self):
        scenario = make_scenario("flash-crowd", census="gossip")
        result = run_swarm(
            scenario.params,
            horizon=15.0,
            seed=2,
            scenario=scenario,
            backend="array",
            max_events=4000,
        )
        summary = result.metrics.summary()
        assert math.isfinite(summary["mean_census_error"])
        assert math.isfinite(summary["mean_census_staleness"])
        assert summary["mean_census_staleness"] >= 0.0
        assert len(result.metrics.census_error) == len(
            result.metrics.sample_times
        )

    def test_higher_exchange_rate_tracks_census_more_closely(self):
        """More gossip → lower estimate staleness (averaged over seeds)."""

        def mean_staleness(rate, seed):
            scenario = make_scenario(
                "flash-crowd", census=CensusSpec.gossip(exchange_rate=rate)
            )
            result = run_swarm(
                scenario.params,
                horizon=20.0,
                seed=seed,
                scenario=scenario,
                backend="array",
                max_events=6000,
            )
            return result.metrics.mean_census_staleness()

        seeds = (1, 2, 3)
        lazy = np.mean([mean_staleness(0.05, s) for s in seeds])
        chatty = np.mean([mean_staleness(0.9, s) for s in seeds])
        assert chatty < lazy


class TestGossipCheckpoint:
    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_suspend_pickle_restore_is_exact(self, backend):
        for scenario in (
            make_scenario("flash-crowd", census="gossip"),
            make_scenario("sparse-overlay", census="gossip"),
        ):
            full = make_simulator(
                scenario.params,
                seed=np.random.default_rng(5),
                backend=backend,
                scenario=scenario,
            )
            reference = metrics_tuple(full.run(20.0))
            part = make_simulator(
                scenario.params,
                seed=np.random.default_rng(5),
                backend=backend,
                scenario=scenario,
            )
            part.run(20.0, suspend_after_events=150)
            snapshot = pickle.loads(pickle.dumps(part.capture_state()))
            fresh = make_simulator(
                scenario.params,
                seed=np.random.default_rng(999),
                backend=backend,
                scenario=scenario,
            )
            fresh.restore_state(snapshot)
            assert metrics_tuple(fresh.run(20.0, resume=True)) == reference

    def test_restore_rejects_census_mismatch(self):
        scenario = make_scenario("flash-crowd", census="gossip")
        sim = make_simulator(
            scenario.params,
            seed=np.random.default_rng(1),
            backend="array",
            scenario=scenario,
        )
        sim.run(5.0, suspend_after_events=50)
        snapshot = sim.capture_state()
        oracle = make_scenario("flash-crowd")  # same name, oracle census
        plain = make_simulator(
            oracle.params,
            seed=np.random.default_rng(1),
            backend="array",
            scenario=oracle,
        )
        with pytest.raises(ValueError, match="census"):
            plain.restore_state(snapshot)

    def test_restore_rejects_parameter_mismatch(self):
        scenario = make_scenario(
            "flash-crowd", census=CensusSpec.gossip(exchange_rate=0.3)
        )
        sim = make_simulator(
            scenario.params,
            seed=np.random.default_rng(1),
            backend="array",
            scenario=scenario,
        )
        sim.run(5.0, suspend_after_events=50)
        snapshot = sim.capture_state()
        other = make_scenario(
            "flash-crowd", census=CensusSpec.gossip(exchange_rate=0.8)
        )
        target = make_simulator(
            other.params,
            seed=np.random.default_rng(1),
            backend="array",
            scenario=other,
        )
        with pytest.raises(ValueError, match="exchange_rate"):
            target.restore_state(snapshot)


class TestStackedGossip:
    def test_stacked_lanes_equal_solo_on_gossip(self):
        for scenario in (
            make_scenario("flash-crowd", census="gossip"),
            make_scenario("sparse-overlay", census="gossip"),
        ):
            stack = StackedSwarmKernel()
            seeds = list(range(21, 29))
            for seed in seeds:
                stack.add_lane(
                    scenario.params,
                    seed=np.random.default_rng(seed),
                    scenario=scenario,
                )
            stacked = stack.run_all(15.0)
            for index, seed in enumerate(seeds):
                solo = make_simulator(
                    scenario.params,
                    seed=np.random.default_rng(seed),
                    backend="array",
                    scenario=scenario,
                )
                assert metrics_tuple(stacked[index]) == metrics_tuple(
                    solo.run(15.0)
                ), (scenario.name, seed)

    def test_stacked_gossip_lanes_equal_solo_on_captured_club(self, monkeypatch):
        """Pre-seeded 200-peer clubs give long wasted runs, so gossip lanes
        really batch through their solo walk (spied); lane results and
        final estimate rows must still equal solo runs."""
        from repro.swarm.kernel import ArraySwarmKernel

        walked = [0]
        stage = ArraySwarmKernel._batch_stage

        def spy(self, *args):
            result = stage(self, *args)
            walked[0] += result[0]
            return result

        monkeypatch.setattr(ArraySwarmKernel, "_batch_stage", spy)
        configs = [
            (make_scenario("flash-crowd", census=CensusSpec.gossip(exchange_rate=0.05)), 61),
            (make_scenario("flash-crowd", census=CensusSpec.gossip(exchange_rate=0.9)), 62),
            (make_scenario("sparse-overlay", census="gossip"), 63),
            (None, 64),
            (make_scenario("flash-crowd", census="gossip"), 65),
        ]
        run_kwargs = dict(max_events=4000)

        def params_of(scenario):
            return base_params() if scenario is None else scenario.params

        def initial_of(scenario):
            return SystemState.one_club(params_of(scenario).num_pieces, 200)

        stack = StackedSwarmKernel()
        for scenario, seed in configs:
            stack.add_lane(
                params_of(scenario),
                seed=np.random.default_rng(seed),
                scenario=scenario,
                policy=RarestFirstSelection(),
            )
        stacked = stack.run_all(
            30.0, initial_states=[initial_of(s) for s, _ in configs], **run_kwargs
        )
        if stack.lane(0).draws.block_size > 1:
            # (DRAW_BLOCK_SIZE=1 leaves no pending block to walk.)
            assert walked[0] > 0
        for index, (scenario, seed) in enumerate(configs):
            solo = make_simulator(
                params_of(scenario),
                policy=RarestFirstSelection(),
                seed=np.random.default_rng(seed),
                backend="array",
                scenario=scenario,
            )
            result = solo.run(30.0, initial_state=initial_of(scenario), **run_kwargs)
            assert metrics_tuple(stacked[index]) == metrics_tuple(result), index
            lane_gossip = stack.lane(index).capture_state()["gossip"]
            solo_gossip = solo.capture_state()["gossip"]
            assert pickle.dumps(lane_gossip) == pickle.dumps(solo_gossip), index

    def test_stacked_mixed_gossip_and_plain_lanes(self):
        """Gossip lanes fall back to scalar dispatch while plain lanes keep
        the cross-lane window classification — in the same stack."""
        gossip = make_scenario("flash-crowd", census="gossip")
        overlay_gossip = make_scenario("sparse-overlay", census="gossip")
        stack = StackedSwarmKernel()
        configs = [(gossip, 41), (None, 42), (overlay_gossip, 43), (None, 44)]
        for scenario, seed in configs:
            stack.add_lane(
                base_params() if scenario is None else scenario.params,
                seed=np.random.default_rng(seed),
                scenario=scenario,
            )
        stacked = stack.run_all(15.0)
        for index, (scenario, seed) in enumerate(configs):
            solo = make_simulator(
                base_params() if scenario is None else scenario.params,
                seed=np.random.default_rng(seed),
                backend="array",
                scenario=scenario,
            )
            assert metrics_tuple(stacked[index]) == metrics_tuple(
                solo.run(15.0)
            )


class TestGossipFleetSmoke:
    def _spec(self):
        return FleetSpec(
            name="gossip-smoke",
            num_swarms=6,
            sampler=FixedSampler.of(arrival_rate=1.2, seed_rate=1.0),
            scenario_mix=(
                ScenarioWeight.of("flash-crowd", census="gossip"),
                ScenarioWeight.of(
                    "sparse-overlay", census="gossip", weight=0.5
                ),
            ),
            horizon=25.0,
            max_events=4000,
            backend="array",
            initial_club_size=15,
        )

    def test_gossip_fleet_kill_midrun_and_resume(self, tmp_path):
        spec = self._spec()
        uninterrupted = run_fleet(spec, seed=19, workers=1)
        path = tmp_path / "gossip.ckpt"
        run_fleet(
            spec,
            seed=19,
            workers=1,
            checkpoint_path=path,
            stop_after_swarms=3,
        )
        resumed = resume_fleet(path, workers=2)
        assert resumed.fingerprint() == uninterrupted.fingerprint()
        assert resumed == uninterrupted

    def test_gossip_fleet_stacked_matches_per_swarm(self):
        spec = self._spec()
        per_swarm = run_fleet(spec, seed=23, workers=1)
        stacked = run_fleet(spec, seed=23, workers=1, stacked=True)
        assert stacked.fingerprint() == per_swarm.fingerprint()


class TestGossipExperiment:
    def test_e14_smoke_produces_grid_and_baseline(self):
        from repro.experiments import run_gossip_census_experiment

        result = run_gossip_census_experiment(
            scenarios=("flash-crowd",),
            exchange_rates=(0.9,),
            swarms_per_cell=2,
            horizon=10.0,
            max_events=1500,
            seed=3,
        )
        baseline = result.baseline("flash-crowd")
        assert baseline.is_oracle
        assert math.isnan(baseline.mean_staleness)
        cell = result.cell("flash-crowd", 0.9)
        assert cell.swarms == 2
        assert math.isfinite(cell.mean_staleness)
        assert math.isfinite(cell.mean_error)
        report = result.report()
        assert "oracle" in report and "gossip r=0.9" in report
        assert isinstance(result.capture_shift("flash-crowd", 0.9), float)


class TestUnifiedEntryPoints:
    """The run_* family rejects unsupported keywords with one phrasing."""

    REJECTION = r"does not support"

    def test_run_swarm_rejects_workers_and_stacked(self):
        params = base_params()
        with pytest.raises(ValueError, match=self.REJECTION):
            run_swarm(params, horizon=1.0, seed=0, workers=4)
        with pytest.raises(ValueError, match=self.REJECTION):
            run_swarm(params, horizon=1.0, seed=0, stacked=True)

    def test_run_scenario_rejects_stacked(self):
        from repro.experiments.runner import run_scenario

        with pytest.raises(ValueError, match=self.REJECTION):
            run_scenario("flash-crowd", horizon=1.0, stacked=True)

    def test_run_fleet_rejects_backend_override(self):
        spec = FleetSpec(name="x", num_swarms=1, horizon=1.0)
        with pytest.raises(ValueError, match=self.REJECTION):
            run_fleet(spec, backend="array")

    def test_run_adaptive_fleet_rejects_backend_override(self):
        from repro.fleet.adaptive import run_adaptive_fleet

        with pytest.raises(ValueError, match=self.REJECTION):
            run_adaptive_fleet(None, backend="object")

    def test_stacked_requires_array_uses_uniform_phrase(self):
        from repro.fleet.scheduler import FleetScheduler

        spec = FleetSpec(name="x", num_swarms=1, horizon=1.0, backend="object")
        with pytest.raises(ValueError, match=self.REJECTION):
            FleetScheduler(spec, stacked=True)
