"""End-to-end and per-layer benchmark of `sveair run`.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed generates the workload's config file; the engine sees only that
file. Each repetition runs `sveair run` on it in a fresh child process, one
child at a time with one BLAS thread, until the time budget is spent, and
every repetition's outputs are checked. The last line of standard output is one JSON object: with --trace 0 it carries the
end-to-end metrics, with --trace 1 the per-layer metrics of a traced run
(interleaved with untraced repetitions to measure the tracing overhead).
Machine facts and per-repetition numbers go to .bench_out/results/.

Only the standard library is used here; the engine is run from src/ of the
checkout this file lives in.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import random
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import inclusive_times, self_times

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".bench_out"
REFERENCE_DIR = BENCH_DIR / "reference"

REFERENCE_SEED = 1
REFERENCE_ROWS = 17
BALANCE_BOUND = 1e-3  # acceptance bound on TimeSeries.balance_error
MIN_REPETITIONS = 2  # byte-identity is checked across repetitions of one seed
MAX_REPETITIONS = 64
CHILD_TIMEOUT_S = 150.0
THETA_MAX = 32400.0  # the engine's default maximum age, 90 years


@dataclass(frozen=True)
class Workload:
    why: str
    builtin: str
    masses: int
    t_max: float
    h: float = 0.5
    theta_max: float = THETA_MAX
    init_mode: str = "band"
    oracle: bool = False
    lyapunov: bool = False
    snapshots: int = 0


# Sizes are cut from the shipped configs so that one repetition takes
# about 4 s on a 2-core machine: a 36 s run then holds eight or more, and
# its median shrugs off the transient slow-downs of a shared host.
WORKLOADS = {
    "c2-oracle-sweep": Workload(
        why="endemic band seed with the renewal oracle: stepper with the S/V "
            "limiter engaged plus volterra; bypasses observer, fixed point, snapshots",
        builtin="table2-c2", masses=1, t_max=1500.0, oracle=True,
    ),
    "c2-lyapunov-steady": Workload(
        why="endemic steady-scaled seed with Lyapunov on: fixed point in set-up "
            "and a full-density observer every sample; bypasses volterra",
        builtin="table2-c2", masses=1, t_max=600.0, h=1.0, init_mode="steady-scaled",
        lyapunov=True,
    ),
    "c1-fine-snapshots": Workload(
        why="disease-free at h=0.25 (J=129,601) with density snapshots: large-array "
            "stepper, limiter idle, io-heavy; bypasses volterra, observer, fixed point",
        builtin="table2-c1", masses=1, t_max=200.0, h=0.25, snapshots=3,
    ),
    # Not a benchmark workload: a one-second run for the self-tests.
    "smoke": Workload(
        why="tiny grid for the self-tests",
        builtin="table2-c2", masses=2, t_max=20.0, theta_max=20000.0, oracle=True,
        snapshots=2,
    ),
}

# name -> (unit, better); BENCHMARK.json declares the same names.
END_TO_END = {
    "run_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "node_steps_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "solver.simulate_s": ("s", "lower"),
    "solver.steps": ("count", "lower"),
    "solver.node_steps": ("count", "lower"),
    "solver.ns_per_node_step": ("ns", "lower"),
    "solver.limiter_events": ("count", "lower"),
    "runner.passes_per_ic": ("ratio", "lower"),
    "diagnostics.observer_s": ("s", "lower"),
    "diagnostics.observer_calls": ("count", "lower"),
    "diagnostics.us_per_sample": ("us", "lower"),
    "diagnostics.weights_s": ("s", "lower"),
    "diagnostics.fixed_point_s": ("s", "lower"),
    "volterra.solve_renewal_s": ("s", "lower"),
    "volterra.us_per_step": ("us", "lower"),
    "io.write_csv_s": ("s", "lower"),
    "io.rows_written": ("count", "lower"),
    "io.bytes_written": ("B", "lower"),
    "io.us_per_row": ("us", "lower"),
    "config.load_s": ("s", "lower"),
    "runner.build_model_s": ("s", "lower"),
    "reproduction.steady_state_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "oracle_rel_dev_max": ("ratio", "lower"),
    "lyapunov_violations": ("count", "lower"),
}


def n_nodes(workload: Workload) -> int:
    """Age-grid node count, as sveair.grid.build_grid computes it."""
    return int(math.floor(workload.theta_max / workload.h + 1e-9)) + 1


def n_steps(workload: Workload) -> int:
    return int(round(workload.t_max / workload.h))


def generate_config(name: str, seed: int) -> str:
    """Config text of a workload; the seed draws the seed masses
    log-uniformly from [10, 1e7] and the snapshot days."""
    workload = WORKLOADS[name]
    rng = random.Random(seed)
    masses = [10.0 ** rng.uniform(1.0, 7.0) for _ in range(workload.masses)]
    lines = [
        f"# {name}, seed {seed}",
        f"scenario.builtin = {workload.builtin}",
        f"grid.h = {workload.h!r}",
        f"grid.theta_max = {workload.theta_max!r}",
        f"run.t_max = {workload.t_max!r}",
        f"init.mode = {workload.init_mode}",
        "init.d_list = " + ",".join(repr(d) for d in masses),
        f"toggles.run_oracle = {str(workload.oracle).lower()}",
        f"toggles.run_lyapunov = {str(workload.lyapunov).lower()}",
    ]
    if workload.snapshots:
        days = sorted(rng.sample(range(1, int(workload.t_max) + 1), workload.snapshots))
        lines.append("run.snapshot_times = " + ",".join(str(d) for d in days))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------- children


@dataclass
class Repetition:
    traced: bool
    run_s: float
    exit_code: int
    peak_rss_mb: float
    record: dict | None
    stdout: str
    stderr: str
    digests: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    oracle_rel_dev_max: float = 0.0
    lyapunov_violations: int = 0
    setup_s: float = math.nan


def child_env() -> dict:
    """The child's environment: the engine from src/ and one BLAS thread.

    One thread stays under the nproc cap. On a 2-vCPU machine whose
    hypervisor steals a few percent of the time, two OpenBLAS threads made
    the wall time of one repetition swing by 14% (IQR over median, eight
    runs) against 3% with one thread, for a 14% gain in the median.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(config: Path, out_dir: Path, traced: bool, env: dict) -> Repetition:
    """Spawn one `sveair run` and reap it with its own resource usage."""
    out_dir.mkdir(parents=True)
    sidecar = out_dir / "child.json"
    stdout_path = out_dir / "stdout.txt"
    mode = "traced" if traced else "plain"
    with open(stdout_path, "wb") as out, open(out_dir / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), mode, str(config),
             str(out_dir / "products"), str(sidecar), repr(start)],
            stdout=out, stderr=err, env=env, cwd=ROOT,
        )
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        run_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    record = None
    if sidecar.is_file():
        record = json.loads(sidecar.read_text(encoding="utf-8"))
    rep = Repetition(
        traced=traced, run_s=run_s, exit_code=proc.returncode,
        peak_rss_mb=usage.ru_maxrss / 1024.0, record=record,
        stdout=stdout_path.read_text(encoding="utf-8", errors="replace"),
        stderr=(out_dir / "stderr.txt").read_text(encoding="utf-8", errors="replace"),
    )
    if record is not None and "setup_end" in record:
        rep.setup_s = record["setup_end"] - start
    if record is not None and "spans" in record:
        # Writing the sidecar and interpreter shutdown, up to the reaping.
        record["spans"].append(["process.exit", record["main_end"], start + run_s, -1])
    return rep


_RUN_LINE = re.compile(r"^run d=\S+: (\S+) .*balance_error=(\S+) ", re.MULTILINE)


def check_repetition(rep: Repetition, products: Path) -> None:
    """Output checks; every problem found is appended to rep.problems."""
    if rep.exit_code != 0:
        last = rep.stderr.strip().splitlines()[-1:] or [""]
        rep.problems.append(f"exit status {rep.exit_code} {last[0]}".rstrip())
    if rep.record is None:
        rep.problems.append("no timing record from the child")
    elif not rep.traced and "setup_end" not in rep.record:
        rep.problems.append("set-up never finished")
    runs = _RUN_LINE.findall(rep.stdout)
    if not runs:
        rep.problems.append("no run lines in the report")
    for status, balance in runs:
        if status != "ok":
            rep.problems.append(f"run status {status}")
        elif not float(balance) <= BALANCE_BOUND:
            rep.problems.append(f"balance_error {balance} > {BALANCE_BOUND}")
    if not products.is_dir():
        return
    for path in sorted(products.glob("*.csv")):
        data = path.read_bytes()
        rep.digests[path.name] = hashlib.sha256(data).hexdigest()
        if path.name.startswith("snapshot_") and b",-" in data:
            rep.problems.append(f"negative density in {path.name}")
        if path.name.startswith("oracle_compare_"):
            rel_dev = _column(data, "rel_dev")
            rep.oracle_rel_dev_max = max([rep.oracle_rel_dev_max, *rel_dev])
        if path.name.startswith("lyapunov_"):
            rep.lyapunov_violations += int(sum(_column(data, "violation_flag")))


def _column(data: bytes, name: str) -> list[float]:
    lines = data.decode("utf-8").splitlines()
    index = lines[0].split(",").index(name)
    return [float(line.split(",")[index]) for line in lines[1:]]


# ----------------------------------------------------------------- metrics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(rep: Repetition, workload: Workload) -> dict:
    """End-to-end metrics of one untraced repetition; the node-steps are
    the sweep's nominal ones, initial conditions x steps x J."""
    node_steps = workload.masses * n_steps(workload) * n_nodes(workload)
    return {
        "run_s": rep.run_s,
        "setup_s": rep.setup_s,
        "node_steps_per_s": node_steps / (rep.run_s - rep.setup_s),
        "peak_rss_mb": rep.peak_rss_mb,
    }


def layer_metrics(record: dict) -> dict:
    """Named per-layer metrics of one traced repetition."""
    spans = record["spans"]
    own = self_times(spans)
    total = inclusive_times(spans)
    counts = record["counts"]

    def per(value: float, count: float, scale: float) -> float:
        return value / count * scale if count else 0.0

    simulate_s = own.get("solver.simulate", 0.0)
    observer_s = own.get("diagnostics.observer", 0.0)
    renewal_s = own.get("volterra.solve_renewal", 0.0)
    csv_s = own.get("io.write_csv", 0.0)
    return {
        "solver.simulate_s": simulate_s,
        "solver.steps": counts.get("solver.steps", 0),
        "solver.node_steps": counts.get("solver.node_steps", 0),
        "solver.ns_per_node_step": per(simulate_s, counts.get("solver.node_steps", 0), 1e9),
        "solver.limiter_events": counts.get("solver.limiter_events", 0),
        "runner.passes_per_ic": per(counts.get("solver.sweep_calls", 0),
                                    counts.get("runner.initial_conditions", 0), 1.0),
        "diagnostics.observer_s": observer_s,
        "diagnostics.observer_calls": counts.get("diagnostics.observer_calls", 0),
        "diagnostics.us_per_sample": per(observer_s,
                                         counts.get("diagnostics.observer_calls", 0), 1e6),
        "diagnostics.weights_s": own.get("diagnostics.weights", 0.0),
        "diagnostics.fixed_point_s": total.get("diagnostics.fixed_point", 0.0),
        "volterra.solve_renewal_s": renewal_s,
        "volterra.us_per_step": per(renewal_s, counts.get("volterra.steps", 0), 1e6),
        "io.write_csv_s": csv_s,
        "io.rows_written": counts.get("io.rows_written", 0),
        "io.bytes_written": counts.get("io.bytes_written", 0),
        "io.us_per_row": per(csv_s, counts.get("io.rows_written", 0), 1e6),
        "config.load_s": own.get("config.load", 0.0),
        "runner.build_model_s": own.get("runner.build_model", 0.0),
        "reproduction.steady_state_s": own.get("reproduction.steady_state", 0.0),
    }


def median_of(dicts: list[dict], name: str) -> float:
    return statistics.median(d[name] for d in dicts)


# ---------------------------------------------------------------- reference


def _sample_rows(n_rows: int) -> list[int]:
    if n_rows <= REFERENCE_ROWS:
        return list(range(n_rows))
    step = (n_rows - 1) / (REFERENCE_ROWS - 1)
    return sorted({round(k * step) for k in range(REFERENCE_ROWS)})


def compact_outputs(products: Path) -> dict:
    """Evenly spaced rows (first and last included) of every output CSV."""
    files = {}
    for path in sorted(products.glob("*.csv")):
        lines = path.read_text(encoding="utf-8").splitlines()
        header, rows = lines[0].split(","), lines[1:]
        picked = [rows[k].split(",") for k in _sample_rows(len(rows))]
        files[path.name] = {
            "rows": len(rows),
            "columns": {col: [float(r[j]) for r in picked] for j, col in enumerate(header)},
        }
    return files


def _relative_change(old: float, new: float) -> float:
    if old == new:
        return 0.0
    return abs(new - old) / max(abs(old), abs(new))


def reference_changes(reference: dict, current: dict) -> dict:
    """Largest relative change per output kind and column, e.g.
    'run_d*.csv:beta', over the sampled rows."""
    changes: dict[str, float] = {}
    for name, ref in reference.items():
        kind = re.sub(r"_d.+?(_t[^_]+)?\.csv$",
                      lambda m: "_d*" + ("_t*" if m.group(1) else "") + ".csv", name)
        cur = current.get(name)
        for col, old in ref["columns"].items():
            key = f"{kind}:{col}"
            if cur is None or cur["rows"] != ref["rows"] or col not in cur["columns"]:
                changes[key] = math.inf
                continue
            worst = max(_relative_change(a, b) for a, b in zip(old, cur["columns"][col]))
            changes[key] = max(changes.get(key, 0.0), worst)
    return changes


# ------------------------------------------------------------ machine facts


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read().strip()
    except OSError:
        return None


def _cpu_model() -> str:
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _caches() -> dict:
    """'L2' -> '2 x 2048K' from the per-CPU cache descriptions."""
    seen: dict[tuple, str] = {}
    base = Path("/sys/devices/system/cpu")
    for index in sorted(base.glob("cpu[0-9]*/cache/index[0-9]*")):
        level = _read(str(index / "level"))
        kind = _read(str(index / "type"))
        if level in ("2", "3") and kind in ("Unified", "Data"):
            seen[(level, _read(str(index / "shared_cpu_list")))] = _read(str(index / "size"))
    out: dict[str, str] = {}
    for level in ("2", "3"):
        sizes = [size for (lvl, _), size in seen.items() if lvl == level]
        if sizes:
            out[f"L{level}"] = f"{len(sizes)} x {sizes[0]}"
    return out


def _git_commit() -> str | None:
    head = _read(str(ROOT / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[5:]
    commit = _read(str(ROOT / ".git" / ref))
    if commit:
        return commit
    for line in (_read(str(ROOT / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def machine_facts(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _caches(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "seed": seed,
    }


# --------------------------------------------------------------------- main


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's outputs as the workload's reference "
                             f"(seed {REFERENCE_SEED} only)")
    return parser


def measure(name: str, seed: int, seconds: float, traced: bool, run_dir: Path):
    """Repetitions until the budget is spent; returns (config text, reps)."""
    config_text = generate_config(name, seed)
    config = run_dir / "workload.cfg"
    config.write_text(config_text, encoding="utf-8")
    env = child_env()
    reps: list[Repetition] = []
    iteration_s: list[float] = []
    deadline = time.perf_counter() + seconds
    batch = 2 if traced else 1
    while len(reps) < MAX_REPETITIONS:
        pair = len(reps) // 2
        for k in range(batch):
            began = time.perf_counter()
            # The traced repetition leads every other pair.
            is_traced = traced and k == pair % 2
            out_dir = run_dir / f"rep{len(reps):02d}"
            rep = run_child(config, out_dir, is_traced, env)
            check_repetition(rep, out_dir / "products")
            if reps and rep.digests != reps[0].digests:
                rep.problems.append("outputs differ from the first repetition")
            if reps:
                shutil.rmtree(out_dir)
            reps.append(rep)
            iteration_s.append(time.perf_counter() - began)
        # Stop at the whole number of repetitions that ends nearest the budget.
        if len(reps) >= MIN_REPETITIONS and (
            time.perf_counter() + batch * statistics.median(iteration_s) / 2 > deadline
        ):
            break
    return config_text, reps


def traced_values(reps: list[Repetition], plain: list[Repetition]) -> dict:
    """Per-layer medians over the traced repetitions, plus the overhead;
    prints every span's self time and the self-time balance."""
    records = [rep.record for rep in reps if rep.traced and rep.record is not None]
    if not records:
        return {}
    own = [self_times(record["spans"]) for record in records]
    print("span self times (median over traced repetitions):")
    for span in sorted({span for times in own for span in times}):
        print(f"  {span:<34}{statistics.median(t.get(span, 0.0) for t in own):>12.6f} s")
    self_sum = statistics.median(sum(times.values()) for times in own)
    traced_run_s = statistics.median(rep.run_s for rep in reps if rep.traced)
    plain_run_s = statistics.median(rep.run_s for rep in plain)
    overhead = traced_run_s - plain_run_s
    gap = plain_run_s - self_sum
    print(f"self times sum to {self_sum:.4f} s; untraced run_s {plain_run_s:.4f} s, "
          f"traced {traced_run_s:.4f} s; untraced minus sum {gap:+.4f} s, "
          f"{'within' if abs(gap) <= abs(overhead) + 1e-3 else 'outside'} "
          f"trace.overhead_s {overhead:+.4f} s")
    layers = [layer_metrics(record) for record in records]
    values = {metric: median_of(layers, metric) for metric in layers[0]}
    values["trace.overhead_s"] = overhead
    return values


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "sveair" / "cli.py").is_file():
        print(f"error: engine sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.write_reference and args.seed != REFERENCE_SEED:
        print(f"error: the reference is recorded for seed {REFERENCE_SEED}", file=sys.stderr)
        return 2
    name, workload = args.workload, WORKLOADS[args.workload]
    traced = args.trace == 1
    compileall.compile_dir(str(SRC), quiet=1)
    run_dir = OUT_ROOT / f"{name}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    if run_dir.exists():
        shutil.rmtree(run_dir)
    run_dir.mkdir(parents=True)
    try:
        config_text, reps = measure(name, args.seed, args.seconds, traced, run_dir)
        products = run_dir / "rep00" / "products"
        current = compact_outputs(products) if products.is_dir() else {}
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    failed = sum(1 for rep in reps if rep.problems)
    facts = machine_facts(args.seed)
    print(f"workload {name} seed {args.seed} trace {args.trace}: {len(reps)} repetitions")
    print("why: " + workload.why)
    print("machine: " + json.dumps(facts))
    for k, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"check failed, repetition {k}: {problem}")

    plain = [rep for rep in reps if not rep.traced]
    e2e = [end_to_end(rep, workload) for rep in plain if not rep.problems] or [
        end_to_end(rep, workload) for rep in plain]
    oracle_dev = max(rep.oracle_rel_dev_max for rep in reps)
    violations = max(rep.lyapunov_violations for rep in reps)
    print(f"{'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'n':>4}  unit")
    for metric, (unit, _better) in END_TO_END.items():
        q1, q2, q3 = quartiles([d[metric] for d in e2e])
        print(f"{metric:<28}{q2:>14.6g}{q1:>14.6g}{q3:>14.6g}{len(e2e):>4}  {unit}")
    print(f"{'failed_ratio':<28}{failed / len(reps):>14.6g}"
          f"{'':>28}{len(reps):>4}  ratio ({failed}/{len(reps)})")
    print(f"{'oracle_rel_dev_max':<28}{oracle_dev:>14.6g}{'':>32}  ratio")
    print(f"{'lyapunov_violations':<28}{violations:>14d}{'':>32}  count")

    if traced:
        values = traced_values(reps, plain)
        values["oracle_rel_dev_max"] = oracle_dev
        values["lyapunov_violations"] = violations
        metrics = {metric: {"value": values.get(metric, math.nan), "unit": unit}
                   for metric, (unit, _better) in PER_LAYER.items()}
        for metric, item in metrics.items():
            print(f"  {metric:<34}{item['value']:>16.6g} {item['unit']}")
    else:
        metrics = {metric: {"value": median_of(e2e, metric), "unit": unit}
                   for metric, (unit, _better) in END_TO_END.items()}

    reference_path = REFERENCE_DIR / f"{name}.json"
    if args.write_reference:
        if failed:
            print("reference not written: a repetition failed its checks")
        else:
            reference_path.parent.mkdir(parents=True, exist_ok=True)
            reference_path.write_text(
                json.dumps({"workload": name, "seed": args.seed, "files": current},
                           indent=1, sort_keys=True) + "\n", encoding="utf-8")
            print(f"reference written to {reference_path.relative_to(ROOT)}")
    elif reference_path.is_file():
        reference = json.loads(reference_path.read_text(encoding="utf-8"))
        if reference["seed"] == args.seed:
            print("largest relative change against the reference (information, not a gate):")
            for key, change in sorted(reference_changes(reference["files"], current).items()):
                print(f"  {key:<44}{change:.3g}")
        else:
            print(f"no reference for seed {args.seed} (recorded for seed {reference['seed']})")

    results_dir = OUT_ROOT / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    results_path = results_dir / f"{run_dir.name}-{int(time.time())}.json"
    results_path.write_text(json.dumps({
        "workload": name, "seed": args.seed, "trace": args.trace, "machine": facts,
        "config": config_text, "metrics": metrics,
        "repetitions": [
            {"traced": rep.traced, "run_s": rep.run_s, "setup_s": rep.setup_s,
             "peak_rss_mb": rep.peak_rss_mb, "exit": rep.exit_code, "problems": rep.problems}
            for rep in reps
        ],
    }, indent=1, default=str) + "\n", encoding="utf-8")
    print(f"results written to {results_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
