"""End-to-end experiment benchmark.

Usage (from the repository root)::

    python3 perfbench/run.py --workload e14-gossip --seed 1 --seconds 24 --trace 0

One invocation runs one workload (see ``workloads.py``) as a closed loop:
the next repetition starts only after the previous one finished, until
``--seconds`` have been measured.  Before timing, the workload's outputs
are computed once through the plainest path (``workers=1``, per-swarm, no
checkpoint); every timed repetition must reproduce them exactly.

The host's speed drifts (see ``hostref.py``), so a fixed reference
computation is timed between every two repetitions, and the end-to-end
times are stated as multiples of it (unit ``ref``); the raw seconds are
printed and recorded beside them.

``--trace 0`` prints the end-to-end metrics: the time ratios are means
over the repetitions, because the program's speed on this kind of host is
sometimes bimodal from one repetition to the next, and a median then
flips between the two modes from run to run.  ``--trace 1`` alternates
untraced and traced repetitions and prints the per-layer metrics of the
traced ones plus the tracing overhead; the spans are written to
``perfbench/out/``.

The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count swarms, so ``failed / attempted`` is the failed fraction.
The exit code is nonzero when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostref  # noqa: E402
import layers  # noqa: E402  (needs the package on the path)
import spans  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

END_TO_END = {
    "wall_ref": "ref",
    "events_per_ref": "1/ref",
    "cpu_ref": "ref",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Rep:
    """One timed repetition."""

    traced: bool
    wall_s: float
    cpu_s: float
    children_cpu_s: float
    swarms: int
    failed_swarms: int
    events: int
    digest: str
    problems: List[str] = field(default_factory=list)
    layers: Dict[str, float] = field(default_factory=dict)
    #: The reference computation's wall and CPU time around this
    #: repetition (the mean of the measurements just before and after it).
    ref_s: float = 0.0
    ref_cpu_s: float = 0.0


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def reset_peak_rss() -> None:
    """Reset this process's resident-set high-water mark (Linux; elsewhere
    the peak then covers the reference run too)."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_kb() -> float:
    """Largest resident set of this process and of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    own = int(line.split()[1])
    except OSError:
        pass
    return max(own, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def environment(workload, seed: int, reference) -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload.name,
        "seed": seed,
        "nproc": workloads.nproc(),
        "workers": workload.workers,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "reference_digest": reference.digest,
        "reference_swarms": reference.swarms,
        "reference_events": reference.events,
    }


def run_rep(workload, reference, work: Path, tracer=None, run_id: int = 0) -> Rep:
    rep_dir = work / f"rep-{run_id}"
    rep_dir.mkdir(parents=True)
    installed = None
    if tracer is not None:
        before = spans.bindings(layers.TARGETS)
        tracer.run_id = run_id
        installed = spans.install(tracer, layers.TARGETS)
    self_cpu = _cpu(resource.RUSAGE_SELF)
    children_cpu = _cpu(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    try:
        outcome = workload.run(rep_dir)
    except Exception as error:  # noqa: BLE001 — a failed run is a result
        traceback.print_exc(file=sys.stderr)
        outcome = workloads.Outcome(
            identity=None,
            swarms=workload.swarm_range[1],
            problems=[f"raised {type(error).__name__}: {error}"],
        )
    wall = time.perf_counter() - start
    children_cpu = _cpu(resource.RUSAGE_CHILDREN) - children_cpu
    self_cpu = _cpu(resource.RUSAGE_SELF) - self_cpu
    problems = workloads.check(workload, outcome, reference)
    if installed is not None:
        spans.restore(installed)
        if spans.bindings(layers.TARGETS) != before:
            problems.append("a traced entry point was not restored")
        if installed.missing:
            problems.append(f"entry points not found: {installed.missing}")
    shutil.rmtree(rep_dir, ignore_errors=True)
    layer_metrics: Dict[str, float] = {}
    if tracer is not None:
        tracer.collect_workers()
        layer_metrics = layers.derive(
            tracer.table(run_id), layers.deferred_sizes(tracer.deferred)
        )
        tracer.deferred.clear()
        # Every fleet swarm record is built by a traced call, so a short
        # count means spans were lost (e.g. a worker that did not ship them).
        records = layer_metrics["fleet.result.records"]
        if records != outcome.swarms * workload.records_per_swarm:
            problems.append(f"trace holds {records:.0f} records for {outcome.swarms} swarms")
    return Rep(
        traced=tracer is not None,
        wall_s=wall,
        cpu_s=self_cpu + children_cpu,
        children_cpu_s=children_cpu,
        swarms=outcome.swarms,
        failed_swarms=outcome.swarms if problems else outcome.failed_swarms,
        events=outcome.events or 0,
        digest=outcome.digest,
        problems=problems,
        layers=layer_metrics,
    )


def measure_setup(name: str, seed: int) -> List[Dict[str, float]]:
    """Set-up in fresh interpreters: wall time plus the probe's own split."""
    probes = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
        )
        wall = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{done.stderr}")
        probe = json.loads(done.stdout.strip().splitlines()[-1])
        probe["wall_s"] = wall
        probes.append(probe)
    return probes


def tally(reps: List[Rep]) -> Tuple[int, int, bool]:
    """Swarms attempted, swarms failed, and whether every check passed.

    A swarm fails when its record says so, or when its repetition failed
    an output check (then every swarm of that repetition counts).
    """
    attempted = sum(rep.swarms for rep in reps)
    failed = sum(rep.failed_swarms for rep in reps)
    return attempted, failed, not any(rep.problems for rep in reps)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: List[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir()
    tracer = spans.Tracer(spool=work) if args.trace else None
    try:
        reference = workload.reference()
        host = hostref.HostRef()
        reps: List[Rep] = []
        reset_peak_rss()
        start = time.perf_counter()
        host.measure()
        while True:
            traced = tracer is not None and len(reps) % 2 == 1
            rep = run_rep(workload, reference, work, tracer if traced else None, len(reps))
            host.measure()
            rep.ref_s, rep.ref_cpu_s = host.around(len(reps))
            reps.append(rep)
            if rep.problems:
                print(f"rep {len(reps) - 1}: {'; '.join(rep.problems)}", file=sys.stderr)
                break
            # Stop when another repetition would end closer past the
            # budget than this one ends short of it, so runs measure about
            # --seconds whatever the repetition length.
            enough = not args.trace or any(r.traced for r in reps)
            if enough and time.perf_counter() - start + rep.wall_s / 2 >= args.seconds:
                break
        peak_kb = peak_rss_kb()
        probes = measure_setup(workload.name, args.seed)
        if tracer is not None:
            tracer.write(OUT / f"{workload.name}-seed{args.seed}-spans.tsv.gz")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    plain = [rep for rep in reps if not rep.traced]
    traced = [rep for rep in reps if rep.traced]
    attempted, failed, correct = tally(reps)
    raw = {
        "host.wall_s": median([rep.wall_s for rep in plain]),
        "host.cpu_s": median([rep.cpu_s for rep in plain]),
        "host.events_per_s": median([rep.events / rep.wall_s for rep in plain]),
        "host.ref_s": median(host.times),
    }
    if args.trace:
        metrics = {
            name: median([rep.layers.get(name, 0.0) for rep in traced])
            for name in layers.METRICS
        }
        metrics["setup.import_s"] = median([p["import_s"] for p in probes])
        metrics["setup.build_s"] = median([p["build_s"] for p in probes])
        metrics["experiments.runner.worker_busy"] = median(
            [rep.children_cpu_s / (workload.workers * rep.wall_s) for rep in plain]
        )
        # Compared in reference units, so host drift between the traced
        # and untraced repetitions does not read as tracing cost.
        share = median([r.wall_s / r.ref_s for r in traced]) / median(
            [r.wall_s / r.ref_s for r in plain]
        ) - 1
        metrics["trace.overhead_s"] = share * raw["host.wall_s"]
        metrics["trace.overhead_share"] = share
        metrics["trace.spans"] = len(tracer) / max(len(traced), 1)
        metrics.update(raw)
        units = layers.METRICS
    else:
        metrics = {
            "wall_ref": mean([rep.wall_s / rep.ref_s for rep in plain]),
            "events_per_ref": mean([rep.events * rep.ref_s / rep.wall_s for rep in plain]),
            "cpu_ref": mean([rep.cpu_s / rep.ref_cpu_s for rep in plain]),
            "peak_rss_mb": peak_kb * 1024 / 1e6,
            "setup_s": median([probe["wall_s"] for probe in probes]),
        }
        units = END_TO_END

    record = {
        "env": environment(workload, args.seed, reference),
        "trace": args.trace,
        "seconds": args.seconds,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_fraction": failed / attempted if attempted else 0.0,
        "metrics": metrics,
        "host": raw,
        "reps": [rep.__dict__ for rep in reps],
        "setup_probes": probes,
    }
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print(f"workload {workload.name}  seed {args.seed}  reference {reference.digest}  "
          f"reps {len(plain)} untraced + {len(traced)} traced")
    for name, value in metrics.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    if not args.trace:
        for name, value in raw.items():
            print(f"  {name:<36} {value:>16.6g} {layers.METRICS[name]}")
    print(f"  {'failed_fraction':<36} {record['failed_fraction']:>16.6g} fraction")
    if traced:
        last = traced[-1]
        run_id = reps.index(last)
        print(f"self time by layer, traced rep {run_id} ({last.wall_s:.3f} s wall):")
        for line in layers.layer_table(
            tracer.table(run_id, workers=False),
            tracer.table(run_id, workers=True),
            last.wall_s,
        ):
            print("  " + line)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
