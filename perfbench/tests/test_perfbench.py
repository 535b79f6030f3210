"""Tests of the benchmark itself: span arithmetic, smoke runs, and the output contract."""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import Tracer, self_times, summarize  # noqa: E402

WORKLOADS = ("hinge-train", "mf30-crf", "raster-kl")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_self_times_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 1.0, 4.0])


def test_summary_adds_self_time_per_name():
    tr = Tracer()
    for name, parent, start, end in [
        ("root", -1, 0.0, 10.0), ("leaf", 0, 1.0, 2.0), ("leaf", 0, 3.0, 5.0), ("mid", 0, 6.0, 9.0),
        ("leaf", 3, 7.0, 8.5),
    ]:
        tr.name_idx.append(tr._name_id(name))
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    s = summarize(tr)
    assert s["root"] == {"calls": 1, "total_s": 10.0, "self_s": 4.0}
    assert s["leaf"] == {"calls": 3, "total_s": 4.5, "self_s": 4.5}
    assert s["mid"] == {"calls": 1, "total_s": 3.0, "self_s": 1.5}
    assert sum(row["self_s"] for row in s.values()) == pytest.approx(10.0)


def test_excluded_time_leaves_self_and_inclusive_times():
    tr = Tracer()
    for name, parent, start, end in [("root", -1, 0.0, 10.0), ("leaf", 0, 2.0, 6.0)]:
        tr.name_idx.append(tr._name_id(name))
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    tr.excluded.append((1, 1.5))  # a probe run while "leaf" was innermost
    s = summarize(tr)
    assert s["leaf"]["self_s"] == pytest.approx(2.5)
    assert s["leaf"]["total_s"] == pytest.approx(2.5)
    assert s["root"]["self_s"] == pytest.approx(6.0)
    assert s["root"]["total_s"] == pytest.approx(8.5)


def test_wrapped_calls_nest_through_the_stack():
    tr = Tracer()

    def inner(x):
        return x + 1

    inner_t = tr.wrap(inner, "inner")

    def outer(x):
        return inner_t(inner_t(x))

    assert tr.wrap(outer, "outer")(1) == 3
    names = [tr.names[i] for i in tr.name_idx]
    assert names == ["outer", "inner", "inner"]
    assert list(tr.parent) == [-1, 0, 0]
    s = summarize(tr)
    assert s["outer"]["self_s"] + s["inner"]["self_s"] == pytest.approx(s["outer"]["total_s"])


def run_bench(work, workload, trace, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--smoke", "--work", str(work)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    work = tmp_path_factory.mktemp("perfbench")
    runs = {}

    def get(workload, trace):
        if (workload, trace) not in runs:
            proc = run_bench(work, workload, trace)
            assert proc.returncode == 0, proc.stderr
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            report = json.loads((work / f"{workload}-trace{trace}.json").read_text())
            runs[workload, trace] = result, report
        return runs[workload, trace]

    return get


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_reports_every_end_to_end_metric(smoke, workload):
    result, report = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_add_up_to_command_wall_time(smoke, workload):
    result, report = smoke(workload, 1)
    assert result["correct"]
    spec = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    closure = report["closure"]
    # The two sides differ only by the root wrappers' own entry and exit.
    # The overhead is a difference of two wall times, hence the 1 ms floor.
    tolerance = max(abs(closure["overhead_s_per_pass"]) * closure["traced_passes"], 1e-3)
    assert closure["self_time_sum_s"] == pytest.approx(closure["traced_command_wall_s"], abs=tolerance)

    m = {k: v["value"] for k, v in result["metrics"].items()}
    if workload == "mf30-crf":
        assert m["engine.backward_unrolled.calls"] == 0
        assert m["engine.tape_records"] == 0
        assert m["meanfield.sweeps"] > 0
    else:
        assert m["engine.backward_unrolled.calls"] > 0
        assert m["engine.tape_records"] == m["engine.block_activations.calls"]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__", "tests"))
    proc = run_bench(tmp_path / "work", "hinge-train", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
