"""The traced entry points of each layer and the per-layer metrics.

Layers are the package's module names.  Every span is named
``<layer>.<call>``; the metrics below are derived from the per-name span
table of one traced repetition (see :mod:`spans`).  A ``_s`` metric is
self time unless its definition below says otherwise.
"""

from __future__ import annotations

import pickle
from typing import Dict, Iterable, List, Tuple

from repro.fleet.persistence import record_to_json
from spans import SpanStats, Target


def _records(args, kwargs):
    return "records", args[1]


def _checkpoint(args, kwargs):
    return "checkpoint", args[1]


TARGETS: Tuple[Target, ...] = (
    # swarm.kernel — the solo event loop and its construction
    Target("repro.swarm.swarm:run_swarm", "swarm.kernel.run_swarm"),
    Target("repro.swarm.swarm:make_simulator", "swarm.kernel.make_simulator"),
    Target(
        "repro.swarm.kernel:ArraySwarmKernel.run", "swarm.kernel.run",
        value_of=lambda result: result.events_executed,
    ),
    # swarm.stacked — many lanes in one kernel
    Target(
        "repro.swarm.stacked:StackedSwarmKernel.run_all", "swarm.stacked.run_all",
        value_of=lambda results: sum(r.events_executed for r in results),
    ),
    Target("repro.swarm.stacked:StackedSwarmKernel.add_lane", "swarm.stacked.add_lane"),
    # swarm.topology — overlay wiring and contact-target draws
    Target("repro.swarm.topology:OverlayState.on_arrival", "swarm.topology.on_arrival"),
    Target("repro.swarm.topology:OverlayState.on_departure", "swarm.topology.on_departure"),
    Target("repro.swarm.topology:OverlayState.draw_target", "swarm.topology.draw_target"),
    # swarm.gossip — census estimate exchange and maintenance
    Target("repro.swarm.gossip:GossipState.exchange", "swarm.gossip.exchange"),
    Target("repro.swarm.gossip:GossipState.focus", "swarm.gossip.focus"),
    Target("repro.swarm.gossip:GossipState.on_arrival", "swarm.gossip.on_arrival"),
    Target("repro.swarm.gossip:GossipState.on_bulk_arrivals", "swarm.gossip.on_bulk_arrivals"),
    Target("repro.swarm.gossip:GossipState.on_piece", "swarm.gossip.on_piece"),
    Target("repro.swarm.gossip:GossipState.on_departure", "swarm.gossip.on_departure"),
    # fleet.spec — task materialisation
    Target("repro.fleet.spec:materialize_tasks", "fleet.spec.materialize_tasks"),
    Target("repro.fleet.spec:task_for_point", "fleet.spec.task_for_point"),
    # fleet.result — per-swarm records and fleet identity
    Target("repro.fleet.result:record_from_result", "fleet.result.record_from_result"),
    Target("repro.fleet.result:FleetResult.fingerprint", "fleet.result.fingerprint"),
    Target("repro.fleet.result:FleetResult.from_log", "fleet.result.from_log"),
    # fleet.persistence — the JSONL log write and read paths
    Target(
        "repro.fleet.persistence:FleetLogWriter.append", "fleet.persistence.append",
        defer=_records,
    ),
    Target("repro.fleet.persistence:compact_log", "fleet.persistence.compact_log"),
    Target("repro.fleet.persistence:read_log", "fleet.persistence.read_log"),
    # Every durable write of the fleet layers (log, rotation, compaction,
    # checkpoints) ends in os.fsync; it is charged to the persistence layer.
    Target("os:fsync", "fleet.persistence.fsync"),
    # fleet.checkpoint
    Target(
        "repro.fleet.checkpoint:save_checkpoint", "fleet.checkpoint.save",
        defer=_checkpoint,
    ),
    Target("repro.fleet.checkpoint:load_checkpoint", "fleet.checkpoint.load"),
    # experiments.runner — fan-out (one span per result the caller waits for)
    Target("repro.experiments.runner:map_tasks", "experiments.runner.map_tasks", kind="map"),
    # drivers
    Target("repro.fleet.scheduler:run_fleet", "fleet.scheduler.run_fleet"),
    Target("repro.fleet.scheduler:resume_fleet", "fleet.scheduler.resume_fleet"),
    Target("repro.fleet.scheduler:FleetScheduler.run", "fleet.scheduler.run"),
    Target("repro.fleet.scheduler:FleetScheduler.resume", "fleet.scheduler.resume"),
    Target("repro.fleet.adaptive:run_adaptive_fleet", "fleet.adaptive.run_adaptive_fleet"),
    Target(
        "repro.fleet.adaptive:AdaptiveFleetDriver.run", "fleet.adaptive.run",
        value_of=lambda result: len(result.rounds),
    ),
    Target("repro.experiments.gossip:run_gossip_census_experiment", "experiments.gossip.run_gossip_census_experiment"),
)

#: Per-layer metric name -> unit, in BENCHMARK.json order.
METRICS: Dict[str, str] = {
    "swarm.kernel.run_s": "s",
    "swarm.kernel.runs": "count",
    "swarm.kernel.events": "count",
    "swarm.kernel.events_per_s": "1/s",
    "swarm.kernel.build_s": "s",
    "swarm.stacked.run_all_s": "s",
    "swarm.stacked.add_lane_s": "s",
    "swarm.stacked.lanes": "count",
    "swarm.stacked.events_per_s": "1/s",
    "swarm.topology.on_arrival_s": "s",
    "swarm.topology.on_arrival_calls": "count",
    "swarm.topology.on_departure_s": "s",
    "swarm.topology.draw_target_s": "s",
    "swarm.topology.draw_target_calls": "count",
    "swarm.gossip.exchange_s": "s",
    "swarm.gossip.exchange_calls": "count",
    "swarm.gossip.focus_calls": "count",
    "swarm.gossip.update_s": "s",
    "fleet.spec.materialize_s": "s",
    "fleet.result.record_s": "s",
    "fleet.result.records": "count",
    "fleet.result.fingerprint_s": "s",
    "fleet.persistence.append_s": "s",
    "fleet.persistence.appends": "count",
    "fleet.persistence.bytes_written": "B",
    "fleet.persistence.fsyncs": "count",
    "fleet.persistence.fsync_s": "s",
    "fleet.persistence.compact_s": "s",
    "fleet.persistence.read_s": "s",
    "fleet.checkpoint.save_s": "s",
    "fleet.checkpoint.saves": "count",
    "fleet.checkpoint.bytes": "B",
    "fleet.checkpoint.load_s": "s",
    "experiments.runner.wait_s": "s",
    "experiments.runner.tasks": "count",
    "experiments.runner.task_bytes": "B",
    "experiments.runner.result_bytes": "B",
    "experiments.runner.worker_busy": "fraction",
    "fleet.scheduler.self_s": "s",
    "fleet.adaptive.self_s": "s",
    "fleet.adaptive.rounds": "count",
    "experiments.self_s": "s",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "host.wall_s": "s",
    "host.cpu_s": "s",
    "host.events_per_s": "1/s",
    "host.ref_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "fraction",
    "trace.spans": "count",
}

_GOSSIP_UPDATES = (
    "swarm.gossip.focus",
    "swarm.gossip.on_arrival",
    "swarm.gossip.on_bulk_arrivals",
    "swarm.gossip.on_piece",
    "swarm.gossip.on_departure",
)


def deferred_sizes(deferred: Iterable[Tuple[int, str, object]]) -> Dict[str, float]:
    """Total byte sizes of the arguments and results kept aside during a run.

    ``records``: encoded JSONL bytes appended to the fleet log;
    ``checkpoint``: pickled checkpoint bytes; ``tasks`` / ``result``:
    pickled bytes a process pool sends each way.
    """
    sizes: Dict[str, float] = {}
    for _index, kind, payload in deferred:
        if kind == "records":
            size = sum(
                len((record_to_json(record) + "\n").encode("utf-8"))
                for record in payload
            )
        else:
            size = len(pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL))
        sizes[kind] = sizes.get(kind, 0.0) + size
    return sizes


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def derive(
    table: Dict[str, SpanStats],
    sizes: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics of one traced repetition (trace-level metrics and
    the worker/setup figures measured outside the spans are added by the
    caller)."""

    def stat(name: str) -> SpanStats:
        return table.get(name, SpanStats())

    def self_s(*names: str) -> float:
        return sum(stat(name).self_s for name in names)

    run = stat("swarm.kernel.run")
    run_all = stat("swarm.stacked.run_all")
    return {
        "swarm.kernel.run_s": self_s("swarm.kernel.run", "swarm.kernel.run_swarm"),
        "swarm.kernel.runs": run.calls,
        "swarm.kernel.events": run.value,
        # Throughput over the inclusive time of the solo event loop.
        "swarm.kernel.events_per_s": _ratio(run.value, run.total_s),
        "swarm.kernel.build_s": self_s("swarm.kernel.make_simulator"),
        "swarm.stacked.run_all_s": run_all.self_s,
        "swarm.stacked.add_lane_s": self_s("swarm.stacked.add_lane"),
        "swarm.stacked.lanes": stat("swarm.stacked.add_lane").calls,
        "swarm.stacked.events_per_s": _ratio(run_all.value, run_all.total_s),
        "swarm.topology.on_arrival_s": self_s("swarm.topology.on_arrival"),
        "swarm.topology.on_arrival_calls": stat("swarm.topology.on_arrival").calls,
        "swarm.topology.on_departure_s": self_s("swarm.topology.on_departure"),
        "swarm.topology.draw_target_s": self_s("swarm.topology.draw_target"),
        "swarm.topology.draw_target_calls": stat("swarm.topology.draw_target").calls,
        "swarm.gossip.exchange_s": self_s("swarm.gossip.exchange"),
        "swarm.gossip.exchange_calls": stat("swarm.gossip.exchange").calls,
        "swarm.gossip.focus_calls": stat("swarm.gossip.focus").calls,
        "swarm.gossip.update_s": self_s(*_GOSSIP_UPDATES),
        "fleet.spec.materialize_s": self_s(
            "fleet.spec.materialize_tasks", "fleet.spec.task_for_point"
        ),
        "fleet.result.record_s": self_s("fleet.result.record_from_result"),
        "fleet.result.records": stat("fleet.result.record_from_result").calls,
        "fleet.result.fingerprint_s": self_s("fleet.result.fingerprint"),
        "fleet.persistence.append_s": self_s("fleet.persistence.append"),
        "fleet.persistence.appends": stat("fleet.persistence.append").calls,
        "fleet.persistence.bytes_written": sizes.get("records", 0.0),
        "fleet.persistence.fsyncs": stat("fleet.persistence.fsync").calls,
        "fleet.persistence.fsync_s": self_s("fleet.persistence.fsync"),
        "fleet.persistence.compact_s": self_s("fleet.persistence.compact_log"),
        "fleet.persistence.read_s": self_s("fleet.persistence.read_log"),
        "fleet.checkpoint.save_s": self_s("fleet.checkpoint.save"),
        "fleet.checkpoint.saves": stat("fleet.checkpoint.save").calls,
        "fleet.checkpoint.bytes": sizes.get("checkpoint", 0.0),
        "fleet.checkpoint.load_s": self_s("fleet.checkpoint.load"),
        "experiments.runner.wait_s": self_s("experiments.runner.map_tasks"),
        "experiments.runner.tasks": stat("experiments.runner.map_tasks").value,
        "experiments.runner.task_bytes": sizes.get("tasks", 0.0),
        "experiments.runner.result_bytes": sizes.get("result", 0.0),
        "fleet.scheduler.self_s": self_s(
            "fleet.scheduler.run_fleet", "fleet.scheduler.resume_fleet",
            "fleet.scheduler.run", "fleet.scheduler.resume",
        ),
        "fleet.adaptive.self_s": self_s(
            "fleet.adaptive.run_adaptive_fleet", "fleet.adaptive.run"
        ),
        "fleet.adaptive.rounds": stat("fleet.adaptive.run").value,
        "experiments.self_s": self_s("experiments.gossip.run_gossip_census_experiment"),
    }


def layer_table(
    parent: Dict[str, SpanStats], workers: Dict[str, SpanStats], wall_s: float
) -> List[str]:
    """Self time per layer (module) of one traced repetition, largest first.

    Rows of the benchmark process add up to the repetition's wall time;
    pool-worker rows are busy time summed over the workers.
    """
    lines = [f"{'layer':<28} {'self_s':>9} {'share':>7} {'calls':>9}"]
    for label, table in (("", parent), ("worker: ", workers)):
        layers: Dict[str, List[float]] = {}
        for name, entry in table.items():
            layer = label + name.rsplit(".", 1)[0]
            totals = layers.setdefault(layer, [0.0, 0])
            totals[0] += entry.self_s
            totals[1] += entry.calls
        for layer, (total, calls) in sorted(layers.items(), key=lambda kv: -kv[1][0]):
            lines.append(
                f"{layer:<28} {total:9.4f} {_ratio(total, wall_s):7.1%} {calls:9d}"
            )
        if not label:
            rest = wall_s - sum(total for total, _calls in layers.values())
            lines.append(
                f"{'(outside traced calls)':<28} {rest:9.4f} {_ratio(rest, wall_s):7.1%}"
            )
    return lines
