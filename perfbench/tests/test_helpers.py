"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import latquot  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from clock import SpeedClock  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


def test_percentile_interpolates_between_ranks():
    values = list(range(10, 0, -1))  # 10..1, unsorted on purpose
    assert run.percentile(values, 0.5) == pytest.approx(5.5)
    assert run.percentile(values, 0.9) == pytest.approx(9.1)
    assert run.percentile(values, 0.0) == 1
    assert run.percentile(values, 1.0) == 10
    assert run.percentile([7.0], 0.9) == 7.0
    with pytest.raises(ValueError):
        run.percentile([], 0.5)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ("root", 0.0, 10.0, -1, 0),
        ("child", 1.0, 4.0, 0, 0),
        ("grandchild", 2.0, 3.0, 1, 0),
        ("child", 5.0, 6.0, 0, 0),
        ("other_op", 11.0, 12.5, -1, 1),
    ]
    assert self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 1.0, 1.5])


def test_tracer_counts_calls_and_restores_the_library():
    original = latquot.lattice_core.contains, latquot.exactnum.MatQ.inverse
    tracer = Tracer()
    tracer.install(latquot)
    try:
        lattice = latquot.from_basis(latquot.MatQ([[2, 0], [0, 3]]))
        assert latquot.contains(lattice, [2, 3])
        assert latquot.lattice_core.contains(lattice, [4, 6])
    finally:
        tracer.uninstall()
    assert (latquot.lattice_core.contains, latquot.exactnum.MatQ.inverse) == original
    table = tracer.layer_metrics(wall=1.0)
    assert table["lattice_core.contains.calls"] == 2
    assert table["lattice_core.from_basis.calls"] == 1
    assert table["exactnum.inverse.calls"] == 2
    assert table["exactnum.inverse.repeat_frac"] == 0.5
    # every inverse span is a child of a contains span
    names = tracer.names
    for name_id, _, _, parent, _ in tracer.spans:
        if names[name_id] == "exactnum.inverse":
            assert names[tracer.spans[parent][0]] == "lattice_core.contains"


def fingerprint(ops) -> list:
    """What the program receives: the call's bound arguments, or argv plus files."""
    out = []
    for op in ops:
        if op.call is not None:
            out.append((op.kind, repr(op.call.__defaults__)))
        else:
            files = [Path(a).read_text() for a in op.argv if a.endswith(".json")]
            out.append((op.kind, op.argv, files))
    return out


@pytest.mark.parametrize("workload", sorted(workloads.BUILDERS))
def test_identical_seed_gives_identical_inputs(workload):
    build = workloads.BUILDERS[workload]
    first = fingerprint(build(3, latquot, ROOT))
    again = fingerprint(build(3, latquot, ROOT))
    other = fingerprint(build(4, latquot, ROOT))
    assert first == again
    if workload != "cli":  # the golden half of the cli workload is fixed
        assert first != other
    else:
        assert first[1::2] != other[1::2]


def test_deadline_counts_a_slow_call_as_failed_not_wrong(monkeypatch):
    monkeypatch.setattr(run, "DEADLINE_S", 0.05)
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        ops = [
            workloads.Op("fast", lambda: 1, lambda r: r == 1),
            workloads.Op("slow", lambda: time.sleep(2), lambda r: True),
        ]
        tally = run.Tally(SpeedClock())
        started = time.perf_counter()
        run.run_ops(ops, run.Runner("synthetic"), tally, count=4)
        assert time.perf_counter() - started < 1.0
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert (tally.attempted, tally.failed, tally.deadline, tally.wrong) == (4, 2, 2, 0)
    assert len(tally.latencies()) == 2


def test_registry_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    traced = set(Tracer().layer_metrics(wall=1.0)) | set(run.TRACE_EXTRAS)
    assert {m["name"] for m in spec["per_layer"]} == traced
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)
