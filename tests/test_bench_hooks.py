"""The benchmark tracer's hooks still match the engine's names.

`bench/child.py` wraps engine functions by name to time them; a rename in
the engine would otherwise surface only when the benchmark runs.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# Installs the tracer, then builds an endemic Lyapunov evaluator, whose
# steady state and weights must run through the wrapped module functions.
# The evaluator uses the steady state it is given, so no fixed point is
# built and `diagnostics.fixed_point` records no span.
SCRIPT = """
import child, spans
from sveair import build_grid, diagnostics, reproduction, scenarios

tracer = spans.Tracer()
child._install_tracer(tracer)
params = scenarios.builtin_scenario("table2-c2", build_grid(0.5, 720.0))
_, steady = reproduction.matching_steady_state(params)
diagnostics.LyapunovEvaluator(params, steady)
print(" ".join(sorted({span[0] for span in tracer.spans})))
"""


# Installs the tracer, then runs a tiny oracle scenario through the runner,
# whose renewal march must run through the wrapped `volterra.solve_renewal`.
ORACLE_SCRIPT = """
import child, spans
from sveair.config import ScenarioConfig
from sveair.runner import run_scenario

tracer = spans.Tracer()
child._install_tracer(tracer)
cfg = ScenarioConfig(h=0.5, theta_max=720.0, t_max=20.0, oracle_t_max=15.0,
                     d_list=(100.0,), band=(100.0, 300.0), run_oracle=True)
run_scenario(cfg, out_dir="out")
names = [span[0] for span in tracer.spans]
print(names.count("volterra.solve_renewal"), int(tracer.counts["volterra.steps"]))
"""


# Installs the tracer, then runs a tiny scenario with snapshots through the
# runner, whose every CSV must go through the wrapped `io.write_csv`: one span
# per file, and the rows and bytes it counts are those of the files.
CSV_SCRIPT = """
import pathlib
import child, spans
from sveair.config import ScenarioConfig
from sveair.runner import run_scenario

tracer = spans.Tracer()
child._install_tracer(tracer)
cfg = ScenarioConfig(h=0.5, theta_max=720.0, t_max=20.0, d_list=(10.0, 100.0),
                     band=(100.0, 300.0), snapshot_times=(5.0, 20.0))
run_scenario(cfg, out_dir="out")
files = sorted(pathlib.Path("out").glob("*.csv"))
names = [span[0] for span in tracer.spans]
rows = sum(len(path.read_text().splitlines()) - 1 for path in files)
size = sum(path.stat().st_size for path in files)
print(len(files), names.count("io.write_csv"), rows, int(tracer.counts["io.rows_written"]),
      size == tracer.counts["io.bytes_written"])
"""


# Installs the tracer over a simulate that records the observer it is handed,
# then runs an endemic Lyapunov pass. The traced observer must still declare
# the evaluator's prefixes, or traced runs would time a full-J rebuild, and
# its L series must be the untraced observer's bit for bit.
OBSERVER_SCRIPT = """
import child, spans
from sveair import build_grid, diagnostics, reproduction, scenarios, solver

engine = solver.simulate
received = []

def recording_simulate(*args, **kwargs):
    received.append(kwargs["observer"])
    return engine(*args, **kwargs)

solver.simulate = recording_simulate
tracer = spans.Tracer()
child._install_tracer(tracer)
params = scenarios.builtin_scenario("table2-c2", build_grid(1.0, 32400.0))
_, steady = reproduction.matching_steady_state(params)
init = scenarios.steady_scaled_initial_state(params, steady, steady.s_star,
                                             steady.v_star, 1e3)
_, traced, _ = diagnostics.monitor_lyapunov(init, params, steady, 2.0)
(observer,) = received
evaluator = diagnostics.LyapunovEvaluator(params, steady)
nodes = evaluator.nodes
untraced = []
engine(init, params, 2.0, observer=evaluator.observer([], untraced))
print(hasattr(observer, "__wrapped__"), observer.nodes == nodes,
      max(nodes) < params.grid.n_nodes, int(tracer.counts["diagnostics.observer_calls"]),
      traced.tolist() == untraced)
"""


def _run(script, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", script], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_tracer_wraps_existing_names(tmp_path):
    assert _run(SCRIPT, tmp_path) == ["diagnostics.weights", "reproduction.steady_state"]


def test_tracer_times_the_oracle_of_a_run(tmp_path):
    # One initial condition, one renewal march over the 15-day window at h = 0.5.
    assert _run(ORACLE_SCRIPT, tmp_path) == ["1", "30"]


def test_traced_observer_keeps_its_prefixes(tmp_path):
    # Wrapped by the tracer, declaring prefixes shorter than J, called at
    # t = 0, 1 and 2, and giving the untraced L series.
    assert _run(OBSERVER_SCRIPT, tmp_path) == ["True", "True", "True", "3", "True"]


def test_tracer_counts_every_csv_of_a_run(tmp_path):
    # r0.csv, two run_d*.csv and four snapshot_*.csv: 1 + 2 * 21 + 4 * 1441 rows.
    assert _run(CSV_SCRIPT, tmp_path) == ["7", "7", "5807", "5807", "True"]
