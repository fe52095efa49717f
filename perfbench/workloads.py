"""The three end-to-end workloads of the benchmark.

Each workload is one experiment a researcher runs, called through its
public entry point with pinned arguments (the entry point's defaults at
the time the benchmark was written, so a later change of a default does
not silently change the workload).  The seed given on the command line is
the experiment's master seed; the program sees nothing else.

Entry points are called through their modules (``scheduler.run_fleet``,
not a name bound at import) so the traced pass's wrappers apply.
"""

from __future__ import annotations

import hashlib
import os
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Tuple

from repro.experiments import fleet as fleet_exp
from repro.experiments import gossip as gossip_exp
from repro.fleet import adaptive, checkpoint, persistence, scheduler
from repro.fleet import result as fleet_result
from repro.fleet import spec as fleet_spec
from repro.swarm.gossip import CensusSpec


@dataclass
class Outcome:
    """What one run of a workload produced, reduced for checking."""

    #: Value identity of the outputs (fleet fingerprints / E14 cells);
    #: ``None`` when the run raised.
    identity: Any
    swarms: int
    failed_swarms: int = 0
    #: Simulated events; ``None`` when the run raised.
    events: Optional[int] = None
    problems: List[str] = field(default_factory=list)

    @property
    def digest(self) -> str:
        return hashlib.sha256(repr(self.identity).encode("utf-8")).hexdigest()[:16]


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class Workload:
    name = ""
    workers = 1
    #: Mis-sizing guards: a run outside these did not do the intended work.
    swarm_range: Tuple[int, int] = (1, 1)
    event_range: Tuple[int, int] = (1, 1)
    #: Fleet records built per swarm (0 for runs outside the fleet layer).
    records_per_swarm = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def setup(self) -> None:
        """Spec construction and task materialisation (timed in a fresh
        interpreter as ``setup_s``)."""

    def reference(self) -> Outcome:
        """The outputs through the plainest path: ``workers=1``, one solo
        kernel per swarm, no checkpoint."""
        raise NotImplementedError

    def run(self, work: Path) -> Outcome:
        """One timed repetition; ``work`` is an empty scratch directory."""
        raise NotImplementedError


def check(workload: Workload, outcome: Outcome, reference: Outcome) -> List[str]:
    """Every reason ``outcome`` is not a correct run of ``workload``."""
    problems = list(outcome.problems)
    if outcome.identity is None:
        return problems or ["no output"]
    if outcome.identity != reference.identity:
        problems.append(
            f"fingerprint {outcome.digest} differs from the reference "
            f"{reference.digest}"
        )
    low, high = workload.swarm_range
    if not low <= outcome.swarms <= high:
        problems.append(f"{outcome.swarms} swarms, expected {low}..{high}")
    low, high = workload.event_range
    if outcome.events is None or not low <= outcome.events <= high:
        problems.append(f"{outcome.events} events, expected {low}..{high}")
    return problems


# -- E14: gossip census sweep -----------------------------------------------------

GOSSIP_SWEEP = dict(
    scenarios=("flash-crowd", "sparse-overlay"),
    exchange_rates=(0.05, 0.35, 0.9),
    damping=1.0,
    swarms_per_cell=8,
    num_pieces=5,
    arrival_rate=1.2,
    seed_rate=1.0,
    horizon=60.0,
    initial_club_size=30,
    max_events=20_000,
    max_population=5_000,
    backend="array",
)


@contextmanager
def _counted_swarms():
    """Record the events of every ``run_swarm`` call the sweep makes.

    The sweep's cells carry neither a swarm nor an event count of the work
    actually done, so the name the experiment module calls is rebound to a
    counter for the duration (it only reads the results).
    """
    events: List[int] = []
    inner = gossip_exp.run_swarm

    def counted(*args, **kwargs):
        result = inner(*args, **kwargs)
        events.append(result.events_executed)
        return result

    gossip_exp.run_swarm = counted
    try:
        yield events
    finally:
        gossip_exp.run_swarm = inner


def _gossip_run(seed: int) -> Outcome:
    with _counted_swarms() as events:
        result = gossip_exp.run_gossip_census_experiment(**GOSSIP_SWEEP, seed=seed)
    # Oracle cells carry NaN staleness, so floats are compared by repr.
    identity = tuple(
        (key, cell.swarms, cell.captured, repr(cell.mean_staleness), repr(cell.mean_error))
        for key, cell in result.cells.items()
    )
    return Outcome(identity=identity, swarms=len(events), events=sum(events))


class GossipCensus(Workload):
    """E14 at its defaults: the only workload that exercises ``swarm.gossip``
    (gossip switches batching off, so the scalar kernel path runs)."""

    name = "e14-gossip"
    cells = len(GOSSIP_SWEEP["scenarios"]) * (1 + len(GOSSIP_SWEEP["exchange_rates"]))
    swarm_range = (cells * 8, cells * 8)
    event_range = (100_000, 600_000)
    records_per_swarm = 0

    def setup(self) -> None:
        # The sweep's own per-cell construction: its policy and scenarios.
        sweep = GOSSIP_SWEEP
        gossip_exp.make_policy("rarest-first")
        for name in sweep["scenarios"]:
            for census in ["oracle"] + [
                CensusSpec.gossip(exchange_rate=rate, damping=sweep["damping"])
                for rate in sweep["exchange_rates"]
            ]:
                gossip_exp.make_scenario(
                    name,
                    census=census,
                    num_pieces=sweep["num_pieces"],
                    arrival_rate=sweep["arrival_rate"],
                    seed_rate=sweep["seed_rate"],
                )

    def reference(self) -> Outcome:
        return _gossip_run(self.seed)

    def run(self, work: Path) -> Outcome:
        return _gossip_run(self.seed)


# -- adaptive boundary mapping on the stacked kernel ------------------------------


def adaptive_spec() -> adaptive.AdaptiveFleetSpec:
    """``run_adaptive_phase_diagram``'s default spec."""
    return adaptive.AdaptiveFleetSpec(
        name="adaptive-phase-diagram",
        arrival_rates=(0.8, 1.6, 2.4, 3.2),
        seed_rates=(0.5, 1.5),
        scenario_mix=fleet_exp.DEFAULT_MIX,
        num_pieces=5,
        swarm_budget=64,
        round_size=16,
        min_rounds=2,
        patience=2,
        variance_tol=0.01,
        boundary_boost=4.0,
        horizon=60.0,
        max_events=20_000,
        max_population=5_000,
        backend="array",
        initial_club_size=30,
    )


def _adaptive_outcome(result) -> Outcome:
    outcome = Outcome(
        identity=result.fingerprint(),
        swarms=len(result.fleet.records),
        failed_swarms=result.fleet.failed_count,
        events=result.fleet.total_events,
    )
    if not result.complete:
        outcome.problems.append("adaptive run stopped without a stopping rule")
    return outcome


class AdaptiveStacked(Workload):
    """Adaptive boundary mapping, stacked, checkpointed, ``workers=1``: the
    only workload dominated by the stacked batch path."""

    name = "adaptive-stacked"
    swarm_range = (16, 64)
    event_range = (40_000, 400_000)

    def setup(self) -> None:
        adaptive_spec().execution_spec()

    def reference(self) -> Outcome:
        return _adaptive_outcome(
            adaptive.run_adaptive_fleet(adaptive_spec(), seed=self.seed, workers=1)
        )

    def run(self, work: Path) -> Outcome:
        return _adaptive_outcome(
            adaptive.run_adaptive_fleet(
                adaptive_spec(),
                seed=self.seed,
                workers=1,
                stacked=True,
                checkpoint_path=work / "adaptive.ckpt",
            )
        )


# -- many short swarms: pool, log and checkpoint, kill and resume ----------------

RESUME_SWARMS = 2_000
RESUME_STOP = RESUME_SWARMS // 2
RESUME_SUSPEND_EVENTS = 20
RESUME_LOG = dict(rotate_every=256, compact_after=2)


def resume_spec() -> fleet_spec.FleetSpec:
    return fleet_spec.FleetSpec(
        name="fleet-resume",
        num_swarms=RESUME_SWARMS,
        sampler=fleet_spec.RandomSampler.of(
            {"arrival_rate": (1.0, 3.0), "seed_rate": (0.5, 2.0)}, num_pieces=5
        ),
        scenario_mix=(
            fleet_spec.ScenarioWeight.of(None, weight=2.0),
            fleet_spec.ScenarioWeight.of("flash-crowd"),
            fleet_spec.ScenarioWeight.of("free-rider"),
        ),
        horizon=60.0,
        max_events=100,
    )


def _fleet_outcome(result) -> Outcome:
    return Outcome(
        identity=result.fingerprint(),
        swarms=len(result.records),
        failed_swarms=result.failed_count,
        events=result.total_events,
    )


class FleetResume(Workload):
    """2000 short swarms on a process pool with log rotation, compaction and
    a checkpoint per chunk, stopped halfway (one swarm suspended mid-run),
    resumed and rebuilt from the log: per-swarm fixed costs, pool dispatch
    and the log/checkpoint write and recovery paths."""

    name = "fleet-resume"
    #: At least two workers, so the pool path is the one measured.
    workers = max(2, nproc())
    swarm_range = (RESUME_SWARMS, RESUME_SWARMS)
    event_range = (RESUME_SWARMS * 50, RESUME_SWARMS * 100)

    def setup(self) -> None:
        fleet_spec.materialize_tasks(resume_spec(), self.seed)

    def reference(self) -> Outcome:
        return _fleet_outcome(scheduler.run_fleet(resume_spec(), seed=self.seed, workers=1))

    def run(self, work: Path) -> Outcome:
        path = work / "fleet.ckpt"
        partial = scheduler.run_fleet(
            resume_spec(),
            seed=self.seed,
            workers=self.workers,
            checkpoint_path=path,
            stop_after_swarms=RESUME_STOP,
            suspend_after_events=RESUME_SUSPEND_EVENTS,
            **RESUME_LOG,
        )
        problems = []
        if partial.complete or len(partial.records) != RESUME_STOP:
            problems.append(f"stopped after {len(partial.records)} swarms, not {RESUME_STOP}")
        if checkpoint.load_checkpoint(path).in_flight is None:
            problems.append("checkpoint carried no in-flight swarm snapshot")
        resumed = scheduler.resume_fleet(path, workers=self.workers, **RESUME_LOG)
        log = checkpoint.default_log_path(path)
        if fleet_result.FleetResult.from_log(log) != resumed:
            problems.append("FleetResult.from_log differs from the resumed result")
        if not persistence.compact_path(log).exists():
            problems.append("the fleet log was never compacted")
        outcome = _fleet_outcome(resumed)
        outcome.problems.extend(problems)
        return outcome


WORKLOADS = {
    workload.name: workload
    for workload in (GossipCensus, AdaptiveStacked, FleetResume)
}
