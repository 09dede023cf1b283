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
# fixed point and weights must run through the wrapped module functions.
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


def test_tracer_wraps_existing_names(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT / "bench")])
    proc = subprocess.run([sys.executable, "-c", SCRIPT], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "diagnostics.fixed_point", "diagnostics.weights", "reproduction.steady_state",
    ]
