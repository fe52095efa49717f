"""Checkpoint round-trips: snapshot -> restore -> continue is bit-identical.

The contract under test (see ``_SwarmEventLoop`` in ``repro.swarm.swarm``):
suspending a run after ``k`` events, capturing the simulator state,
restoring it into a *fresh* simulator built with the same constructor
arguments, and resuming must reproduce the exact trajectory — every metrics
series, the final state, the final clock — of an uninterrupted run, on both
backends, on plain parameters and on scenarios with real Poisson thinning.
"""

import pickle

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.parameters import SystemParameters
from repro.core.scenario import make_scenario
from repro.core.state import SystemState
from repro.swarm.drawbuf import DEFAULT_BLOCK_SIZE
from repro.swarm.gossip import CensusSpec
from repro.swarm.kernel import ArraySwarmKernel
from repro.swarm.policies import RarestFirstSelection
from repro.swarm.swarm import _SwarmEventLoop, make_simulator, run_swarm

BACKENDS = ("object", "array")


def _assert_same_outcome(resumed, uninterrupted):
    assert resumed.final_state == uninterrupted.final_state
    assert resumed.final_time == uninterrupted.final_time
    assert resumed.final_population == uninterrupted.final_population
    assert resumed.horizon_reached == uninterrupted.horizon_reached
    assert resumed.events_executed == uninterrupted.events_executed
    for series in (
        "sample_times",
        "population",
        "num_seeds",
        "one_club_size",
        "min_piece_count",
        "sojourn_times",
        "download_times",
    ):
        assert getattr(resumed.metrics, series) == getattr(
            uninterrupted.metrics, series
        ), series
    assert resumed.metrics.total_arrivals == uninterrupted.metrics.total_arrivals
    assert resumed.metrics.total_downloads == uninterrupted.metrics.total_downloads
    assert resumed.metrics.wasted_contacts == uninterrupted.metrics.wasted_contacts
    assert resumed.metrics.thinned_events == uninterrupted.metrics.thinned_events


def _round_trip(params, backend, seed, suspend_after, scenario=None, club=10):
    """Uninterrupted run vs. suspend -> pickle -> restore -> resume."""
    kwargs = dict(seed=seed, backend=backend, scenario=scenario)
    initial = SystemState.one_club(params.num_pieces, club)
    uninterrupted = make_simulator(params, **kwargs).run(
        12.0, initial_state=initial, max_events=800
    )
    first = make_simulator(params, **kwargs)
    segment = first.run(
        12.0,
        initial_state=initial,
        max_events=800,
        suspend_after_events=suspend_after,
    )
    if not segment.suspended:
        # The run ended (horizon or cap) before the suspension point; the
        # segment already is the whole run.
        _assert_same_outcome(segment, uninterrupted)
        return None
    assert not segment.horizon_reached
    # The suspended segment must not have flushed trailing samples.
    assert len(segment.metrics.sample_times) <= len(
        uninterrupted.metrics.sample_times
    )
    snapshot = pickle.loads(pickle.dumps(first.capture_state()))
    fresh = make_simulator(params, **kwargs)
    fresh.restore_state(snapshot)
    resumed = fresh.run(12.0, resume=True, max_events=800)
    _assert_same_outcome(resumed, uninterrupted)
    return snapshot


class TestCheckpointRoundTrip:
    @settings(
        max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 300),
        st.sampled_from(BACKENDS),
        st.sampled_from([2, 4, 7]),
    )
    def test_plain_parameters_round_trip(self, seed, suspend_after, backend, k):
        params = SystemParameters.flash_crowd(
            num_pieces=k, arrival_rate=2.0, seed_rate=1.0, seed_departure_rate=2.0
        )
        _round_trip(params, backend, seed, suspend_after)

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 300),
        st.sampled_from(BACKENDS),
    )
    def test_thinned_schedule_round_trip(self, seed, suspend_after, backend):
        """A flash-crowd pulse keeps Poisson thinning on the hot path, so the
        snapshot also has to preserve the thinning RNG consumption."""
        scenario = make_scenario("flash-crowd", surge_start=1.0, surge_end=6.0)
        _round_trip(
            scenario.params, backend, seed, suspend_after, scenario=scenario
        )

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        st.integers(0, 2**31 - 1),
        st.integers(1, 300),
        st.sampled_from(BACKENDS),
    )
    def test_heterogeneous_scenario_round_trip(self, seed, suspend_after, backend):
        """Per-class member/seed/sped lists must survive the snapshot."""
        scenario = make_scenario("free-rider", leech_fraction=0.5)
        _round_trip(
            scenario.params, backend, seed, suspend_after, scenario=scenario
        )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_snapshot_is_reusable(self, backend, flash_crowd_stable):
        """Restoring the same snapshot twice yields the same continuation."""
        sim = make_simulator(flash_crowd_stable, seed=5, backend=backend)
        sim.run(10.0, suspend_after_events=20, max_events=500)
        snapshot = sim.capture_state()
        outcomes = []
        for _ in range(2):
            fresh = make_simulator(flash_crowd_stable, seed=99, backend=backend)
            fresh.restore_state(snapshot)
            outcomes.append(fresh.run(10.0, resume=True, max_events=500))
        _assert_same_outcome(outcomes[0], outcomes[1])

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_suspension_can_repeat(self, backend, flash_crowd_stable):
        """Multiple suspend/resume segments still match one straight run."""
        kwargs = dict(seed=17, backend=backend)
        uninterrupted = make_simulator(flash_crowd_stable, **kwargs).run(
            10.0, max_events=400
        )
        sim = make_simulator(flash_crowd_stable, **kwargs)
        result = sim.run(10.0, suspend_after_events=40, max_events=400)
        for bound in (120, 250):
            if not result.suspended:
                break
            result = sim.run(
                10.0, resume=True, suspend_after_events=bound, max_events=400
            )
        if result.suspended:
            result = sim.run(10.0, resume=True, max_events=400)
        _assert_same_outcome(result, uninterrupted)


def _mid_walk_offsets(monkeypatch, make, horizon, initial, max_events):
    """Event counts that fall strictly inside a run the batch walk applied.

    Spies on one uninterrupted run: every scalar ``_apply_event`` is one
    event and every ``_batch_stage`` call applies a run of them, so the
    event count at each stage entry is known.  Returns offsets from the
    first, a middle and the last run of at least three events.
    """
    events = [0]
    runs = []
    stage = ArraySwarmKernel._batch_stage
    apply_event = _SwarmEventLoop._apply_event

    def spy_stage(self, *args):
        result = stage(self, *args)
        if result[0] >= 3:
            runs.append((events[0], result[0]))
        events[0] += result[0]
        return result

    def spy_apply(self, rates):
        events[0] += 1
        return apply_event(self, rates)

    with monkeypatch.context() as patch:
        patch.setattr(ArraySwarmKernel, "_batch_stage", spy_stage)
        patch.setattr(_SwarmEventLoop, "_apply_event", spy_apply)
        make().run(horizon, initial_state=initial, max_events=max_events)
    picked = [runs[0], runs[len(runs) // 2], runs[-1]] if runs else []
    return sorted({start + length // 2 for start, length in picked})


class TestMidWalkSuspendResume:
    """Suspending inside a run the batch walk would have applied in one go
    (gossip's five-draw stride, overlay targets, per-class tickers), then
    pickling, restoring and resuming, must be bit-identical to never
    stopping — estimate rows, overlay and final snapshot included."""

    @pytest.mark.parametrize(
        "scenario",
        [
            make_scenario("flash-crowd", census=CensusSpec.gossip(exchange_rate=0.5)),
            make_scenario("sparse-overlay", topology="tracker", degree=6),
            make_scenario("sparse-overlay", census="gossip"),
            make_scenario("free-rider"),
        ],
        ids=["gossip", "tracker-overlay", "gossip-overlay", "free-rider"],
    )
    def test_suspend_inside_a_walk_is_exact(self, scenario, monkeypatch):
        horizon, max_events = 30.0, 3000
        initial = SystemState.one_club(scenario.params.num_pieces, 200)

        def make(seed=23):
            # An explicit block size: the walk needs a pending block, even
            # when the suite runs with DRAW_BLOCK_SIZE=1.
            return make_simulator(
                scenario.params,
                policy=RarestFirstSelection(),
                seed=np.random.default_rng(seed),
                backend="array",
                scenario=scenario,
                draw_block_size=DEFAULT_BLOCK_SIZE,
            )

        offsets = _mid_walk_offsets(monkeypatch, make, horizon, initial, max_events)
        assert offsets, "no walk long enough to suspend inside"
        straight = make()
        reference = straight.run(horizon, initial_state=initial, max_events=max_events)
        final = straight.capture_state()
        for offset in offsets:
            first = make()
            segment = first.run(
                horizon,
                initial_state=initial,
                max_events=max_events,
                suspend_after_events=offset,
            )
            assert segment.suspended and segment.events_executed == offset
            snapshot = pickle.loads(pickle.dumps(first.capture_state()))
            fresh = make(seed=999)
            fresh.restore_state(snapshot)
            resumed = fresh.run(horizon, resume=True, max_events=max_events)
            _assert_same_outcome(resumed, reference)
            assert resumed.metrics.census_error == reference.metrics.census_error
            assert (
                resumed.metrics.neighbor_useless_ticks
                == reference.metrics.neighbor_useless_ticks
            )
            after = fresh.capture_state()
            for key in ("gossip", "overlay", "backend_state", "time", "metrics"):
                assert pickle.dumps(after[key]) == pickle.dumps(final[key]), (
                    offset,
                    key,
                )


class TestSnapshotValidation:
    def test_backend_mismatch_rejected(self, flash_crowd_stable):
        snapshot = make_simulator(
            flash_crowd_stable, seed=1, backend="object"
        ).capture_state()
        kernel = make_simulator(flash_crowd_stable, seed=1, backend="array")
        with pytest.raises(ValueError, match="backend"):
            kernel.restore_state(snapshot)

    def test_num_pieces_mismatch_rejected(self, flash_crowd_stable):
        snapshot = make_simulator(flash_crowd_stable, seed=1).capture_state()
        other = SystemParameters.flash_crowd(
            num_pieces=5, arrival_rate=1.0, seed_rate=2.0
        )
        with pytest.raises(ValueError, match="K="):
            make_simulator(other, seed=1).restore_state(snapshot)

    def test_scenario_mismatch_rejected(self):
        scenario = make_scenario("flash-crowd")
        snapshot = make_simulator(
            scenario.params, seed=1, scenario=scenario
        ).capture_state()
        with pytest.raises(ValueError, match="scenario"):
            make_simulator(scenario.params, seed=1).restore_state(snapshot)

    def test_format_mismatch_rejected(self, flash_crowd_stable):
        sim = make_simulator(flash_crowd_stable, seed=1)
        snapshot = sim.capture_state()
        snapshot["format"] = 999
        with pytest.raises(ValueError, match="format"):
            sim.restore_state(snapshot)

    def test_resume_requires_suspended_run(self, flash_crowd_stable):
        sim = make_simulator(flash_crowd_stable, seed=1)
        with pytest.raises(RuntimeError, match="resume"):
            sim.run(5.0, resume=True)
        sim.run(5.0, max_events=50)  # completes (or caps) -> not resumable
        with pytest.raises(RuntimeError, match="resume"):
            sim.run(5.0, resume=True)

    def test_resume_horizon_must_match(self, flash_crowd_stable):
        sim = make_simulator(flash_crowd_stable, seed=1)
        sim.run(5.0, suspend_after_events=5)
        with pytest.raises(ValueError, match="horizon"):
            sim.run(6.0, resume=True)

    def test_run_swarm_defaults_unaffected(self, flash_crowd_stable):
        """The legacy one-shot entry point never reports a suspension."""
        result = run_swarm(flash_crowd_stable, horizon=4.0, seed=3, max_events=100)
        assert not result.suspended
        assert result.events_executed <= 100
