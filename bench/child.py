"""One `sveair run` in its own process, timed from the parent's spawn.

    python3 child.py plain|traced CONFIG OUT_DIR SIDECAR_JSON SPAWN_TIME

SPAWN_TIME is the parent's time.perf_counter() just before the spawn; on
Linux it reads CLOCK_MONOTONIC, which both processes share, so intervals
that start at the spawn include interpreter start-up and imports.

`plain` leaves the engine untouched apart from one timestamp taken when
runner.initial_states is first entered, the end of set-up (import,
load_config, build_model, matching_steady_state and, with Lyapunov on, the
fixed-point reference). `traced` wraps the public functions of config,
runner, reproduction, solver, volterra, diagnostics and io under every
module name they are imported by, and wraps the observer that simulate
receives. The sidecar JSON receives the timestamps, spans and counters.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _install_setup_mark(marks: dict) -> None:
    from sveair import runner

    original = runner.initial_states

    def initial_states(*args, **kwargs):
        marks.setdefault("setup_end", time.perf_counter())
        return original(*args, **kwargs)

    runner.initial_states = initial_states


def _install_tracer(tracer) -> None:
    import sveair
    from sveair import cli, config, diagnostics, io, reproduction, runner, solver, volterra

    def replace(name, fn, modules, after=None):
        wrapped = tracer.wrap(name, fn, after)
        for module in modules:
            setattr(module, fn.__name__, wrapped)

    def count_ics(tr, args, kwargs, result):
        tr.counts["runner.initial_conditions"] += len(result)

    def count_renewal(tr, args, kwargs, result):
        params = args[1] if len(args) > 1 else kwargs["params"]
        t_max = args[2] if len(args) > 2 else kwargs["t_max"]
        tr.counts["volterra.steps"] += int(round(t_max / params.grid.h))

    def count_observer(tr, args, kwargs, result):
        tr.counts["diagnostics.observer_calls"] += 1

    def count_csv(tr, args, kwargs, result):
        path = args[0] if args else kwargs["path"]
        columns = args[2] if len(args) > 2 else kwargs["columns"]
        tr.counts["io.rows_written"] += len(columns[0])
        tr.counts["io.bytes_written"] += os.path.getsize(path)

    replace("config.load", config.load_config, (config, cli))
    replace("runner.run_scenario", runner.run_scenario, (runner, cli))
    replace("runner.build_model", runner.build_model, (runner,))
    replace("runner.initial_states", runner.initial_states, (runner,), count_ics)
    replace("reproduction.steady_state", reproduction.matching_steady_state, (reproduction,))
    replace("volterra.solve_renewal", volterra.solve_renewal, (volterra, sveair), count_renewal)
    replace("diagnostics.fixed_point", diagnostics.discrete_fixed_point, (diagnostics,))
    replace("diagnostics.monitor_lyapunov", diagnostics.monitor_lyapunov, (diagnostics,))
    replace("diagnostics.weights", diagnostics.lyapunov_weights, (diagnostics, sveair))
    replace("diagnostics.weights", diagnostics.endemic_tail_weights, (diagnostics,))
    replace("diagnostics.monotonicity_check", diagnostics.monotonicity_check,
            (diagnostics, sveair))
    replace("diagnostics.convergence_metric", diagnostics.convergence_metric,
            (diagnostics, sveair))
    replace("io.write_csv", io.write_csv, (io, runner), count_csv)

    simulate = solver.simulate

    def traced_simulate(init, params, t_max, *args, **kwargs):
        observer = kwargs.get("observer")
        if observer is None and len(args) >= 3:
            observer = args[2]
        if observer is not None:
            traced_observer = tracer.wrap("diagnostics.observer", observer, count_observer)
            if "observer" in kwargs:
                kwargs["observer"] = traced_observer
            else:
                args = args[:2] + (traced_observer,) + args[3:]
        index = tracer.begin("solver.simulate")
        try:
            result = simulate(init, params, t_max, *args, **kwargs)
        finally:
            tracer.end(index)
        steps = int(round(t_max / params.grid.h))
        counts = tracer.counts
        counts["solver.calls"] += 1
        if not tracer.inside("diagnostics.fixed_point"):
            counts["solver.sweep_calls"] += 1
        counts["solver.steps"] += steps
        counts["solver.node_steps"] += steps * params.grid.n_nodes
        counts["solver.limiter_events"] += result.clamp_events
        return result

    for module in (solver, runner, diagnostics, sveair):
        module.simulate = traced_simulate


def main(argv: list[str]) -> int:
    mode, config_path, out_dir, sidecar, spawn = argv
    spawn_time = float(spawn)
    record: dict = {"mode": mode}
    if mode == "traced":
        from spans import Tracer

        tracer = Tracer()
        startup = tracer.begin("process.startup", start=spawn_time)
        _install_tracer(tracer)
        tracer.end(startup)
        from sveair import cli

        main_span = tracer.begin("cli.main")
        code = cli.main(["run", "--config", config_path, "--out", out_dir])
        tracer.end(main_span)
        record["spans"] = tracer.spans
        record["counts"] = dict(tracer.counts)
    elif mode == "plain":
        marks: dict = {}
        _install_setup_mark(marks)
        from sveair import cli

        code = cli.main(["run", "--config", config_path, "--out", out_dir])
        record.update(marks)
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    record["exit"] = code
    record["main_end"] = time.perf_counter()
    with open(sidecar, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
