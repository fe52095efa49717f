"""Gossip smoke benchmark: both backends on the gossip-census workload.

Measures events/second of the object simulator and the array kernel on the
shared ``GOSSIP_BENCH_WORKLOAD`` (10 000 one-club peers, ``K = 10``,
policies reading the flow-updating gossip census), asserting the gossip
subsystem's invariants: the backends stay trajectory-identical from a
shared seed with the extra per-tick gossip uniform in the draw stream, and
the array kernel keeps a clear lead even though an active gossip census
disables its cross-event batch stage (every event takes the scalar path, so
this workload is the honest price of the estimator — measured ~9x over
object, against ~400x for the batchable reference workload).  The numbers
land in the ``"gossip"`` section of ``BENCH_swarm.json`` via the
session-finish hook in ``conftest.py``, so gossip-path regressions are
visible per-PR next to the oracle-census baselines.
"""

from conftest import (
    GOSSIP_BENCH_WORKLOAD,
    measure_gossip_throughput,
    run_once,
)


def test_gossip_throughput_smoke(benchmark, capsys):
    object_run = measure_gossip_throughput("object")
    array_run = run_once(benchmark, measure_gossip_throughput, backend="array")
    speedup = array_run["events_per_second"] / object_run["events_per_second"]
    with capsys.disabled():
        print()
        print(
            f"gossip smoke ({GOSSIP_BENCH_WORKLOAD['initial_one_club']} "
            f"peers, K={GOSSIP_BENCH_WORKLOAD['num_pieces']}, "
            f"exchange_rate {GOSSIP_BENCH_WORKLOAD['exchange_rate']}): "
            f"object {object_run['events_per_second']:,.0f} ev/s, "
            f"array {array_run['events_per_second']:,.0f} ev/s "
            f"({speedup:.1f}x)"
        )
    # Trajectory equivalence holds with the gossip draw in the stream too.
    assert array_run["final_population"] == object_run["final_population"]
    # Gossip swarms batch through the kernel's scalar walk only (no vector
    # tier: exchanges mutate the estimates the sample grid reads), so the
    # margin is far below the homogeneous one — it must still keep the
    # kernel clearly ahead.
    assert speedup >= 3.0
