"""Self-tests of the benchmark: python3 -m pytest -q bench"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from spans import Tracer, inclusive_times, self_times  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCHMARKED = ("c2-oracle-sweep", "c2-lyapunov-steady", "c1-fine-snapshots")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", BENCHMARKED)
def test_generator_is_deterministic_per_seed(name, tmp_path):
    from sveair.config import load_config

    first = run.generate_config(name, 7)
    assert first == run.generate_config(name, 7)
    assert first != run.generate_config(name, 8)
    path = tmp_path / "w.cfg"
    path.write_text(first, encoding="utf-8")
    cfg = load_config(path)
    workload = run.WORKLOADS[name]
    assert len(cfg.d_list) == workload.masses
    assert all(10.0 <= d <= 1e7 for d in cfg.d_list)
    assert len(cfg.snapshot_times) == workload.snapshots
    assert cfg.run_oracle == workload.oracle and cfg.run_lyapunov == workload.lyapunov
    assert run.n_nodes(workload) == round(workload.theta_max / workload.h) + 1


def test_metric_names_match_the_declaration():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(BENCHMARKED)
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
    assert declared == run.END_TO_END
    declared = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
    assert declared == run.PER_LAYER
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.match(metric["name"]) and UNIT.match(metric["unit"])
    assert 0 < min(m["bound"] for m in spec["end_to_end"])
    assert max(m["bound"] for m in spec["end_to_end"]) <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_self_time_is_span_minus_children():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["leaf", 1.5, 2.0, 1],
        ["a", 5.0, 6.0, 0],
    ]
    own = self_times(spans)
    assert own == pytest.approx({"root": 6.0, "a": 3.5, "leaf": 0.5})
    assert sum(own.values()) == pytest.approx(10.0)
    assert inclusive_times(spans) == pytest.approx({"root": 10.0, "a": 4.0, "leaf": 0.5})


def test_tracer_records_parents_and_counts():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))

    def bump(tr, args, kwargs, result):
        tr.counts["calls"] += 1

    inner = tracer.wrap("inner", lambda x: x + 1, bump)
    outer = tracer.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert [span[0] for span in tracer.spans] == ["outer", "inner"]
    assert tracer.spans[1][3] == 0 and tracer.spans[0][3] == -1
    assert tracer.counts["calls"] == 1
    assert self_times(tracer.spans) == {"outer": 2.0, "inner": 1.0}
    index = tracer.begin("x")
    tracer.begin("y")
    with pytest.raises(RuntimeError):
        tracer.end(index)


def test_reference_changes_per_column():
    ref = {"run_d10.csv": {"rows": 3, "columns": {"t": [0.0, 1.0, 2.0], "S": [4.0, 2.0, 0.0]}},
           "run_d1e6.csv": {"rows": 3, "columns": {"t": [0.0, 1.0, 2.0], "S": [1.0, 1.0, 1.0]}}}
    cur = json.loads(json.dumps(ref))
    cur["run_d1e6.csv"]["columns"]["S"][1] = 1.5
    changes = run.reference_changes(ref, cur)
    assert changes == {"run_d*.csv:t": 0.0, "run_d*.csv:S": pytest.approx(1 / 3)}
    del cur["run_d10.csv"]
    assert run.reference_changes(ref, cur)["run_d*.csv:t"] == float("inf")


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace, declared", [("0", run.END_TO_END), ("1", run.PER_LAYER)])
def test_smoke_workload_through_the_cli(trace, declared):
    done = _bench("--workload", "smoke", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(declared)
    for name, item in result["metrics"].items():
        assert item["unit"] == declared[name][0]
    if trace == "1":
        assert result["metrics"]["runner.passes_per_ic"]["value"] == 2.0
        assert result["metrics"]["solver.steps"]["value"] == 2 * 2 * 40


def test_fails_without_the_engine(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = _bench("--workload", "c2-oracle-sweep", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
