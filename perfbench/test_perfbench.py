"""Tests of the benchmark's own machinery (no workload is timed here).

Run with ``PYTHONPATH=src python -m pytest -q perfbench``.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import hostref  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _span(tracer, name, parent, start, end, pid=None, run_id=0):
    index = len(tracer)
    tracer.name.append(tracer.name_id(name))
    tracer.parent.append(parent)
    tracer.start.append(start)
    tracer.end.append(end)
    tracer.value.append(0.0)
    tracer.pid.append(tracer.home if pid is None else pid)
    tracer.run.append(run_id)
    return index


class TestSelfTime:
    def test_nested_spans(self):
        tracer = spans.Tracer()
        root = _span(tracer, "a.root", -1, 0.0, 10.0)
        child = _span(tracer, "b.child", root, 1.0, 5.0)
        _span(tracer, "c.leaf", child, 2.0, 3.0)
        _span(tracer, "c.leaf", child, 3.5, 4.0)
        _span(tracer, "b.child", root, 6.0, 7.0)
        own = tracer.self_times()
        assert own == pytest.approx([10.0 - 4.0 - 1.0, 4.0 - 1.5, 1.0, 0.5, 1.0])
        table = tracer.table()
        assert table["b.child"].calls == 2
        assert table["b.child"].self_s == pytest.approx(2.5 + 1.0)
        assert table["b.child"].total_s == pytest.approx(5.0)
        assert table["c.leaf"].self_s == pytest.approx(1.5)
        # Self times partition the root's wall time.
        assert sum(own) == pytest.approx(10.0)

    def test_worker_children_are_not_subtracted(self):
        tracer = spans.Tracer()
        wait = _span(tracer, "experiments.runner.map_tasks", -1, 0.0, 4.0)
        _span(tracer, "swarm.kernel.run", wait, 0.5, 3.5, pid=tracer.home + 1)
        assert tracer.self_times()[wait] == pytest.approx(4.0)
        assert set(tracer.table(workers=False)) == {"experiments.runner.map_tasks"}
        assert set(tracer.table(workers=True)) == {"swarm.kernel.run"}

    def test_table_filters_by_run(self):
        tracer = spans.Tracer()
        _span(tracer, "a.x", -1, 0.0, 1.0, run_id=0)
        _span(tracer, "a.x", -1, 0.0, 2.0, run_id=1)
        assert tracer.table(1)["a.x"].total_s == pytest.approx(2.0)

    def test_worker_spans_merge_under_their_origin(self, tmp_path):
        parent = spans.Tracer(spool=tmp_path)
        wait = _span(parent, "experiments.runner.map_tasks", -1, 0.0, 4.0)
        worker = spans.Tracer(spool=tmp_path)
        worker.home = worker.owner = -1  # as if inherited by a forked worker
        worker.stack.append(wait)
        assert worker.adopt_fork()
        # A pool worker runs (and ships) several tasks in turn.
        for _ in range(2):
            task = worker.open(worker.name_id(spans.TASK_SPAN))
            inner = worker.open(worker.name_id("swarm.kernel.run"))
            worker.close(inner)
            worker.close(task)
            worker.ship()
            assert len(worker) == 0
        assert parent.collect_workers() == 4
        assert list(parent.parent) == [-1, wait, 1, wait, 3]
        assert [parent.names[n] for n in parent.name[3:]] == [
            spans.TASK_SPAN, "swarm.kernel.run"
        ]
        assert not list(tmp_path.iterdir())


def _small_swarm():
    from repro.core.parameters import SystemParameters
    from repro.swarm import swarm

    params = SystemParameters.flash_crowd(4, arrival_rate=2.0, seed_rate=1.0)
    return swarm.run_swarm(params, horizon=20.0, seed=3, backend="array")


class TestInstall:
    def test_every_binding_restored(self):
        before = spans.bindings(layers.TARGETS)
        installed = spans.install(spans.Tracer(), layers.TARGETS)
        try:
            assert not installed.missing
            assert spans.bindings(layers.TARGETS) != before
            assert hasattr(os.fsync, "__wrapped__")
        finally:
            spans.restore(installed)
        assert spans.bindings(layers.TARGETS) == before
        assert not hasattr(os.fsync, "__wrapped__")
        assert spans._ACTIVE is None
        from repro.swarm.kernel import ArraySwarmKernel

        assert "run" not in vars(ArraySwarmKernel)

    def test_traced_calls_are_out_of_band(self):
        plain = _small_swarm()
        tracer = spans.Tracer()
        installed = spans.install(tracer, layers.TARGETS)
        try:
            traced = _small_swarm()
        finally:
            spans.restore(installed)
        assert traced.final_state == plain.final_state
        assert traced.events_executed == plain.events_executed
        table = tracer.table()
        assert table["swarm.kernel.run"].value == plain.events_executed
        assert table["swarm.kernel.make_simulator"].calls == 1
        metrics = layers.derive(table, {})
        assert set(metrics) <= set(layers.METRICS)
        assert metrics["swarm.kernel.events"] == plain.events_executed

    def test_unknown_target_is_reported(self):
        installed = spans.install(
            spans.Tracer(), [spans.Target("repro.swarm.swarm:no_such_call", "x.y")]
        )
        spans.restore(installed)
        assert installed.missing == ["repro.swarm.swarm:no_such_call"]


class _Stub(workloads.Workload):
    name = "stub"
    swarm_range = (10, 10)
    event_range = (100, 200)

    def __init__(self, outcome):
        super().__init__(seed=0)
        self.outcome = outcome

    def run(self, work):
        return self.outcome


def _outcome(identity=("fleet", 1), failed=0, events=150):
    return workloads.Outcome(identity=identity, swarms=10, failed_swarms=failed, events=events)


class TestChecks:
    def test_matching_outcome_passes(self):
        assert workloads.check(_Stub(None), _outcome(), _outcome()) == []

    def test_tampered_fingerprint_is_rejected(self):
        problems = workloads.check(_Stub(None), _outcome(("fleet", 2)), _outcome())
        assert len(problems) == 1 and "differs from the reference" in problems[0]

    def test_mis_sized_runs_are_rejected(self):
        stub = _Stub(None)
        assert workloads.check(stub, _outcome(events=50), _outcome())
        short = _outcome()
        short.swarms = 9
        assert workloads.check(stub, short, _outcome())

    def test_failed_fraction_counting(self, tmp_path):
        reference = _outcome()
        good = run.run_rep(_Stub(_outcome(failed=3)), reference, tmp_path, run_id=0)
        bad = run.run_rep(_Stub(_outcome(("fleet", 9))), reference, tmp_path, run_id=1)
        assert good.failed_swarms == 3 and not good.problems
        assert bad.failed_swarms == 10 and bad.problems
        assert run.tally([good]) == (10, 3, True)
        assert run.tally([good, bad]) == (20, 13, False)

    def test_raising_run_counts_every_swarm(self, tmp_path):
        class Raising(_Stub):
            def run(self, work):
                raise RuntimeError("boom")

        rep = run.run_rep(Raising(None), _outcome(), tmp_path)
        assert rep.failed_swarms == 10
        assert "raised RuntimeError: boom" in rep.problems[0]


class TestHostRef:
    def test_times_around_a_repetition(self):
        host = hostref.HostRef()
        host.times, host.cpu_times = [1.0, 3.0, 8.0], [0.5, 1.5, 4.0]
        assert host.around(1) == (5.5, 2.75)
        host.measure()
        assert len(host.times) == len(host.cpu_times) == 4 and host.times[-1] > 0

    def test_different_work_is_rejected(self, monkeypatch):
        host = hostref.HostRef()
        monkeypatch.setattr(hostref, "work", lambda: host.checksum + 1)
        with pytest.raises(RuntimeError, match="reference computation"):
            host.measure()


def test_benchmark_json_names_every_printed_metric():
    import json

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.METRICS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
