"""Config parsing, the runner's file products, and the CLI."""

import atexit
import gc
import math
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import read_csv, snapshot_recorder
from contact_labeling import contact_labeling_outcomes, write_contact_labeling_report
from sveair import cli, config, diagnostics, io, reproduction, runner, scenarios, volterra
from sveair.config import ScenarioConfig, load_config
from sveair.errors import (
    AbortedRunError, ConfigError, LyapunovDomainError, StabilityError, SveairError,
)
from sveair.io import format_value, write_csv
from sveair.runner import build_model, run_scenario
from sveair.solver import simulate

CONFIGS = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
TINY = """
scenario.builtin = table2-c2
grid.h = 0.5
grid.theta_max = 720      # two 360-day years of age
run.t_max = 10
run.sample_every = 1
run.snapshot_times = 5
init.d_list = 10,100
init.band = 100,300
output.dir = out
"""


def write_cfg(tmp_path, text, name="scenario.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def on_tiny(lines):
    """TINY with each `key = value` line of `lines` in place of its key's
    line, or appended when TINY does not set the key."""
    text = TINY
    for line in lines.splitlines():
        key = line.partition("=")[0].strip()
        text, count = re.subn(rf"^{re.escape(key)} =.*$", lambda _: line, text, flags=re.M)
        if not count:
            text += line + "\n"
    return text


def assert_cli_refuses(tmp_path, capsys, text, key, command="run"):
    """`sveair <command>` on `text` exits 2, names `key` on stderr and
    leaves no output directory; returns stderr."""
    out = tmp_path / "o"
    code = cli.main([command, "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert key in err
    assert not out.exists()
    return err


class TestLoadConfig:
    def test_minimal_file_fills_defaults(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, "scenario.builtin = table2-c2\n"))
        assert cfg.h == 0.5
        assert cfg.theta_max == 32400.0
        assert cfg.t_max == 1500.0
        assert cfg.sample_every == 1.0
        assert cfg.d_list == (10.0, 1e4, 1e6, 4e6, 1e7)
        assert cfg.s0 == cfg.v0 == 2e7
        assert cfg.band == (7200.0, 18000.0)

    # The parser judges no range: the refusals of values run through the
    # CLI, where `run_scenario` judges them before it writes anything.

    def test_zero_step_rejected(self, tmp_path, capsys):
        assert_cli_refuses(tmp_path, capsys, on_tiny("grid.h = 0"), "grid.h")

    def test_unknown_key_named(self, tmp_path):
        with pytest.raises(ConfigError, match="grid.steps"):
            load_config(write_cfg(tmp_path, "grid.steps = 12\n"))
        with pytest.raises(ConfigError, match="params.omega"):
            load_config(write_cfg(tmp_path, "params.omega = 1\n"))
        with pytest.raises(ConfigError, match="params.contact"):
            load_config(write_cfg(tmp_path, "params.contact = c1\n"))
        with pytest.raises(ConfigError, match="toggles.r0_only"):
            load_config(write_cfg(tmp_path, "toggles.r0_only = true\n"))

    def test_parse_error_carries_line_number(self, tmp_path):
        with pytest.raises(ConfigError, match="line 2"):
            load_config(write_cfg(tmp_path, "grid.h = 0.5\nrun.t_max : 10\n"))

    def test_duplicate_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="duplicate"):
            load_config(write_cfg(tmp_path, "grid.h = 0.5\ngrid.h = 0.25\n"))

    def test_missing_profile_file_rejected(self, tmp_path, capsys):
        err = assert_cli_refuses(tmp_path, capsys, on_tiny("params.q_csv = nowhere.csv"),
                                 "params.q_csv")
        assert f"cannot read profile CSV {tmp_path / 'nowhere.csv'}" in err

    def test_profile_override_resolved_and_applied(self, tmp_path):
        data = tmp_path / "q.csv"
        data.write_text("age_days,value\n0,0.25\n32400,0.25\n")
        cfg = load_config(write_cfg(
            tmp_path, "grid.h = 1\ngrid.theta_max = 360\nparams.q_csv = q.csv\n"
        ))
        _, params = build_model(cfg)
        np.testing.assert_array_equal(params.q.values, 0.25)

    def test_scalar_override_ranges(self, tmp_path, capsys):
        for line, key in (("params.epsilon = 1.5", "params.epsilon"),
                          ("params.mu = 0", "params.mu"), ("params.n0 = 0", "params.n0")):
            assert_cli_refuses(tmp_path, capsys, on_tiny(line), key)

    @pytest.mark.parametrize("text, key", [
        ("grid.h = half\n", "grid.h"),
        ("run.t_max = inf\n", "run.t_max"),
        ("toggles.run_oracle = maybe\n", "toggles.run_oracle"),
        ("run.t_max =\n", "run.t_max"),
        ("grid.theta_max = 0.25\n", "grid.theta_max"),
        ("run.t_max = 0\n", "run.t_max"),
        ("run.oracle_t_max = -5\ntoggles.run_oracle = true\n", "run.oracle_t_max"),
        ("init.s0 = -1\n", "init.s0"),
        ("init.v0 = -1\n", "init.v0"),
        ("init.d_list = 10,-1\n", "init.d_list"),
        ("init.band = 300,100\n", "init.band"),
        ("init.band = 100\n", "init.band"),
        ("params.gamma_a = -0.1\n", "params.gamma_a"),
    ])
    def test_refusal_names_the_key(self, tmp_path, capsys, text, key):
        # Refused by the parser or by the run, as a ConfigError either way.
        text = on_tiny(text)
        with pytest.raises(ConfigError, match=re.escape(key)):
            run_scenario(load_config(write_cfg(tmp_path, text)), out_dir=tmp_path / "o")
        assert_cli_refuses(tmp_path, capsys, text, key)

    def test_unreadable_config_path_is_named(self, tmp_path):
        path = tmp_path / "missing.cfg"
        with pytest.raises(ConfigError, match=f"cannot read config {re.escape(str(path))}"):
            load_config(path)

    def test_empty_d_list_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="d_list"):
            load_config(write_cfg(tmp_path, "init.d_list = ,\n"))

    @pytest.mark.parametrize("key, choices", [
        ("scenario.builtin", "('table2-c1', 'table2-c2')"),
        ("init.mode", "('band', 'steady-scaled', 'steady')")])
    def test_choice_key_names_its_choices(self, tmp_path, key, choices):
        with pytest.raises(ConfigError) as info:
            load_config(write_cfg(tmp_path, f"# header\n{key} = bogus\n"))
        assert str(info.value) == f"line 2: {key} must be one of {choices}, got 'bogus'"

    def test_readme_config_block_lists_the_key_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = [line.split(" = ")[0] for line in block.splitlines() if line[:1].isalpha()]
        assert sorted(key for key in keys if not key.startswith("params.")) == sorted(
            config._KEYS)
        # The params.* lines name the override tables in their comments.
        params_text = block[block.index("params."):]
        comments = " ".join(line.partition("#")[2].strip() for line in params_text.splitlines())
        for label, names in (("scalar", config._SCALAR_OVERRIDES),
                             ("profile", config._PROFILE_OVERRIDES)):
            listed = re.search(rf"{label} overrides: ([\w ]+?) \(", comments).group(1)
            assert tuple(listed.split()) == names
        for key in keys:
            if key.startswith("params."):
                assert key[len("params."):] in (
                    config._SCALAR_OVERRIDES + config._PROFILE_OVERRIDES)


class TestDocumentedApi:
    def test_public_names(self):
        import sveair

        assert sveair.__all__ == [
            "AgeGrid", "AgeProfile", "Units", "build_grid", "survival",
            "ParameterSet",
            "R0Breakdown", "SteadyState", "compute_R0",
            "solve_beta_star", "steady_state",
            "State", "TimeSeries", "simulate",
            "RenewalPath", "solve_renewal",
            "LyapunovEvaluator", "LyapunovWeights", "convergence_metric", "lyapunov_weights",
            "monotonicity_check",
        ]
        assert all(hasattr(sveair, name) for name in sveair.__all__)

    def test_readme_library_block_runs(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        assert namespace["result"].final_state.t == 1500.0


def _block_edge_shapes(min_length):
    """(n_cols, length) of a CSV of one to four columns, with a length at or
    across the block edges of a file with that many columns."""
    def lengths(n_cols):
        rows = io._BLOCK_CELLS // n_cols
        candidates = [0, 1, rows - 1, rows, rows + 1, 3 * rows + 17]
        return st.tuples(st.just(n_cols),
                         st.sampled_from([k for k in candidates if k >= min_length]))
    return st.integers(1, 4).flatmap(lengths)


def _age_steps():
    """Age steps h: dyadic m * 2^-k, the decimal steps 0.1, 0.05 and 1/3, and
    steps drawn log-uniformly from [1e-6, 50]."""
    dyadic = st.builds(lambda m, k: m * 2.0 ** -k, st.integers(1, 2**12), st.integers(0, 30))
    drawn = st.floats(math.log(1e-6), math.log(50.0)).map(math.exp)
    return st.one_of(dyadic, st.sampled_from([0.1, 0.05, 1 / 3]), drawn)


class TestCsvRoundTrip:
    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1e-310,
                        2.2250738585072014e-308, 1e16, -1e16, 1e16 - 2.0, 1e16 + 2.0, 0.5,
                        -3.0, 1.7976931348623157e308])

    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        cols = [rng.standard_normal(40) * 10.0 ** rng.integers(-12, 12, 40),
                np.arange(40, dtype=float)]
        path = tmp_path / "table.csv"
        write_csv(path, ["a", "b"], cols)
        header, back = read_csv(path)
        assert header == ["a", "b"]
        np.testing.assert_array_equal(back[0], cols[0])
        np.testing.assert_array_equal(back[1], cols[1])

    def test_lf_endings(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["x"], [np.array([1.5])])
        raw = path.read_bytes()
        assert b"\r" not in raw

    @given(shape=_block_edge_shapes(0), seed=st.integers(0, 2**32 - 1),
           planted=st.lists(st.floats(), max_size=20), h=_age_steps())
    @settings(max_examples=100, deadline=None)
    def test_matches_row_by_row_format_value(self, tmp_path_factory, shape, seed, planted, h):
        n_cols, length = shape
        rows_per_block = io._BLOCK_CELLS // n_cols
        rng = np.random.default_rng(seed)
        special = self.SPECIAL
        cols = []
        for _ in range(n_cols):
            kind = rng.integers(6, size=length)
            col = rng.integers(0, 2**64, size=length, dtype=np.uint64).view(np.float64)
            col = np.where(kind == 0, special[rng.integers(special.size, size=length)], col)
            near = rng.integers(10**16 - 40, 10**16 + 40, size=length) * rng.choice([-1, 1], length)
            col = np.where(kind == 1, near.astype(np.float64), col)
            col = np.where(kind == 2, rng.integers(-1000, 1000, size=length), col)
            col = np.where(kind == 3, rng.standard_normal(length) * 10.0 ** rng.integers(
                -320, 300, size=length), col)
            # Exact zeros of either sign over whole blocks, and a zero run
            # that straddles a block edge.
            signed_zeros = rng.choice([0.0, -0.0], length)
            block = np.arange(length) // rows_per_block
            col = np.where(rng.random(block.max(initial=0) + 1)[block] < 0.4, signed_zeros, col)
            if length > rows_per_block:
                edge = rows_per_block * int(rng.integers(1, (length - 1) // rows_per_block + 1))
                low, high = edge - int(rng.integers(1, 40)), edge + int(rng.integers(1, 40))
                col[low:high] = signed_zeros[low:high]
            cols.append(col)
        # In half the draws the last column holds the nodes j * h of an age
        # grid, with special values planted among them, and arrives
        # formatted, as the runner's age column does.
        ages = bool(length) and rng.random() < 0.5
        if ages:
            cols[-1] = np.arange(length) * h
            spots = rng.integers(length, size=rng.integers(0, 8))
            cols[-1][spots] = special[rng.integers(special.size, size=spots.size)]
        if length:
            for value in planted:
                cols[rng.integers(n_cols)][rng.integers(length)] = value
            if rng.random() < 0.3:
                cols[0] = rng.integers(-2**62, 2**62, size=length)
        # Some other columns arrive formatted too.
        formatted = [rng.random() < 0.3 for _ in cols]
        formatted[-1] |= ages
        given_cols = [io.format_column(col) if done else col
                      for col, done in zip(cols, formatted)]
        for col, given, done in zip(cols, given_cols, formatted):
            if done:
                assert given.tolist() == [format_value(x).encode() for x in col]
        header = [f"c{j}" for j in range(n_cols)]
        path = tmp_path_factory.getbasetemp() / "row_by_row.csv"
        write_csv(path, header, given_cols)
        want = ",".join(header) + "\n" + "".join(
            ",".join(map(format_value, row)) + "\n" for row in zip(*cols))
        assert path.read_bytes() == want.encode()

    # Groups of values that compare equal, format alike or sit one ulp apart:
    # zeros of both signs, NaNs of both signs with distinct payloads and a
    # signalling NaN, both infinities, integral values on either side of
    # +-1e16, and subnormals. A block drawn from one to three groups is mostly
    # duplicates.
    GROUPS = (
        [0.0, -0.0],
        list(np.array([0x7FF8000000000000, 0xFFF8000000000000, 0x7FF80000DEADBEEF,
                       0xFFF8000000000123, 0x7FF0000000000001],
                      dtype=np.uint64).view(np.float64)),
        [np.inf, -np.inf],
        [1e16 - 2.0, 1e16, 1e16 + 2.0, -1e16 + 2.0, -1e16, -1e16 - 2.0, 12345.0, -7.0],
        [5e-324, -5e-324, 1e-310, 2.225073858507201e-308],
    )

    # About 3 s for the 60 examples on a 2-vCPU machine.
    @given(shape=_block_edge_shapes(1), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_repeated_values_match_row_by_row_format_value(self, tmp_path_factory, shape,
                                                           seed):
        # Each block of a pooled column draws its cells from a few groups;
        # the other columns hold random bit patterns, mostly distinct.
        n_cols, length = shape
        rows_per_block = io._BLOCK_CELLS // n_cols
        rng = np.random.default_rng(seed)
        jittered = rng.standard_normal(3) * 10.0 ** rng.integers(-30, 30, 3)
        groups = self.GROUPS + (list(np.concatenate(
            [jittered, np.nextafter(jittered, np.inf), np.nextafter(jittered, -np.inf)])),)
        cols = []
        for _ in range(n_cols):
            if rng.random() < 0.25:
                cols.append(rng.integers(0, 2**64, size=length, dtype=np.uint64)
                            .view(np.float64))
                continue
            col = np.empty(length)
            for low in range(0, length, rows_per_block):
                block = col[low:low + rows_per_block]
                chosen = rng.choice(len(groups), size=int(rng.integers(1, 4)), replace=False)
                values = np.concatenate([groups[k] for k in chosen])
                block[:] = values[rng.integers(values.size, size=block.size)]
            cols.append(col)
        header = [f"c{j}" for j in range(n_cols)]
        path = tmp_path_factory.getbasetemp() / "repeated.csv"
        write_csv(path, header, cols)
        want = ",".join(header) + "\n" + "".join(
            ",".join(map(format_value, row)) + "\n" for row in zip(*cols))
        assert path.read_bytes() == want.encode()

    def test_formatted_column_beside_special_values(self, tmp_path):
        # A formatted column is copied as it is, next to zeros of both
        # signs, NaNs, both infinities and integers on either side of 1e16,
        # formatted here or on the way in.
        special = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 1e16 - 2.0,
                            1e16, 1e16 + 2.0, -1e16, -1e16 - 2.0, 0.30000000000000004])
        theta = np.arange(special.size) * 0.1
        cols = [theta, special, special[::-1]]
        path = tmp_path / "formatted.csv"
        write_csv(path, ["theta", "x", "y"],
                  [io.format_column(theta), special, io.format_column(special[::-1])])
        want = "theta,x,y\n" + "".join(
            ",".join(map(format_value, row)) + "\n" for row in zip(*cols))
        assert path.read_bytes() == want.encode()

    # The writer's transient peak as tracemalloc sees it, numpy's buffers
    # included: 1.4, 1.0 and 2.0 MiB for the three cases below with
    # 8,192-cell blocks; the last is mostly the formatted age column itself,
    # held once in blocks and once joined. Formatting a whole 3001 x 12 file
    # at once is estimated at about 7 MB, and a whole snapshot at tens of MB.
    TRANSIENT_BOUND = 4 * 2**20

    @pytest.mark.parametrize("rows, n_cols", [(3001, 12), (129_601, 4), (129_601, 1)])
    def test_transient_memory_is_bounded(self, tmp_path, rows, n_cols):
        # Distinct values throughout: the run-file shape of a c2 sweep, and
        # a J = 129,601 snapshot whose age column arrives formatted. Alone,
        # the age column is formatted under tracemalloc too.
        rng = np.random.default_rng(5)
        cols = [rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
                for _ in range(n_cols)]
        ages = np.arange(rows) * 0.25
        if n_cols == 4:
            cols[0] = io.format_column(ages)
        tracemalloc.start()
        try:
            if n_cols == 1:
                cols[0] = io.format_column(ages)
            write_csv(tmp_path / "distinct.csv", [f"c{j}" for j in range(n_cols)], cols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < self.TRANSIENT_BOUND


class TestRunner:
    def test_products_and_determinism(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, TINY))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        report1 = run_scenario(cfg, out_dir=out1)
        report2 = run_scenario(cfg, out_dir=out2)
        assert report1.ok
        for name in ("r0.csv", "run_d10.csv", "run_d100.csv",
                     "snapshot_d10_t5.csv", "snapshot_d100_t5.csv"):
            assert (out1 / name).is_file()
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_run_csv_round_trips_timeseries(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, TINY))
        out = tmp_path / "o"
        run_scenario(cfg, out_dir=out)
        header, cols = read_csv(out / "run_d10.csv")
        assert header == ["t", "S", "V", "E", "A", "I", "R", "N",
                          "beta", "eps", "alpha", "iota"]
        assert cols[0][0] == 0.0 and cols[0][-1] == 10.0
        np.testing.assert_array_equal(cols[7], 8e7)

    def test_snapshot_files_match_row_by_row_format_value(self, tmp_path, monkeypatch):
        # Band-seeded densities are mostly exact zeros and a few values
        # repeated over whole age groups, some a few ulps apart: the data
        # that formatting each distinct value once is for.
        # A 30-year grid, so every density column spans more than five
        # blocks of a four-column file.
        text = (TINY.replace("run.snapshot_times = 5", "run.snapshot_times = 0,5,10")
                .replace("grid.theta_max = 720      # two 360-day years of age",
                         "grid.theta_max = 10800"))
        cfg = load_config(write_cfg(tmp_path, text))
        results = []

        def recording_simulate(*args, on_snapshot, **kwargs):
            snapshots = []
            record = snapshot_recorder(snapshots)

            def both(*snap):
                record(*snap)
                on_snapshot(*snap)
            results.append((simulate(*args, on_snapshot=both, **kwargs), snapshots))
            return results[-1][0]

        monkeypatch.setattr(runner, "simulate", recording_simulate)
        out = tmp_path / "o"
        assert run_scenario(cfg, out_dir=out).ok
        assert len(results) == 2
        near_ties = 0
        for label, (result, snapshots) in zip(("10", "100"), results):
            assert [snap.t for snap in snapshots] == [0.0, 5.0, 10.0]
            for snap in snapshots:
                columns = (result.final_state.e.grid.nodes, snap.e, snap.a, snap.i)
                for density in columns[1:]:
                    assert density.size > 5 * (io._BLOCK_CELLS // 4)
                    distinct = np.unique(density)
                    assert distinct.size < density.size / 40
                    near_ties += int(np.sum(np.diff(distinct)[1:] <= 4 * np.spacing(distinct[2:])))
                want = "theta,e,a,i\n" + "".join(
                    ",".join(map(format_value, row)) + "\n" for row in zip(*columns))
                path = out / f"snapshot_d{label}_t{format_value(snap.t)}.csv"
                assert path.read_bytes() == want.encode()
        assert near_ties > 0

    def test_age_column_formatted_once_per_scenario(self, tmp_path, monkeypatch):
        text = TINY.replace("run.snapshot_times = 5", "run.snapshot_times = 0,5,10")
        calls = []

        def counting_format_column(values):
            calls.append(np.array(values))
            return io.format_column(values)

        monkeypatch.setattr(runner, "format_column", counting_format_column)
        out = tmp_path / "o"
        cfg = load_config(write_cfg(tmp_path, text))
        assert run_scenario(cfg, out_dir=out).ok
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], build_model(cfg)[0].nodes)
        # Two masses with three snapshots each share one age column.
        files = sorted(out.glob("snapshot_d*_t*.csv"))
        assert len(files) == 6
        thetas = {tuple(line.split(b",", 1)[0] for line in path.read_bytes().splitlines())
                  for path in files}
        assert len(thetas) == 1

    def test_peak_memory_does_not_grow_with_the_snapshot_count(self, tmp_path):
        # Two `sveair run` children at J = 129,601, one asking for one
        # snapshot and one for eight, each printing its own peak RSS. Held
        # until the pass returns, the seven extra snapshots would cost
        # 7 * 3 * J * 8 B, about 22 MB; streamed, they cost less than one.
        pytest.importorskip("resource")
        one_snapshot = 3 * 129_601 * 8
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
        child = ("import resource, sys\nfrom sveair import cli\n"
                 "code = cli.main(['run', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                 "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, code)\n")
        peaks = []
        for name, times in (("one", "8"), ("eight", "1,2,3,4,5,6,7,8")):
            cfg = write_cfg(tmp_path, "scenario.builtin = table2-c1\ngrid.h = 0.25\n"
                            f"run.t_max = 8\nrun.snapshot_times = {times}\ninit.d_list = 10\n",
                            name=f"{name}.cfg")
            proc = subprocess.run([sys.executable, "-c", child, str(cfg), str(tmp_path / name)],
                                  env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            kib, code = proc.stdout.split()[-2:]
            assert code == "0"
            peaks.append(int(kib) * 1024)
        assert len(list((tmp_path / "eight").glob("snapshot_d10_t*.csv"))) == 8
        assert peaks[1] - peaks[0] < one_snapshot, peaks

    def test_readme_outputs_table_matches_the_written_headers(self, tmp_path):
        text = (TINY + "init.mode = steady-scaled\ntoggles.run_oracle = true\n"
                "toggles.run_lyapunov = true\n")
        out = tmp_path / "o"
        assert run_scenario(load_config(write_cfg(tmp_path, text)), out_dir=out).ok
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Outputs\n", 1)[1].split("\n#", 1)[0]
        rows = re.findall(r"^\| `([^`]+)` \| `([^`]+)` \|$", section, re.M)
        headers = {path.name: path.read_text().split("\n", 1)[0] for path in out.glob("*.csv")}
        described = set()
        for name, columns in rows:
            pattern = re.escape(name).replace("<d>", "[^_]+").replace("<t>", "[^_]+")
            files = [file for file in headers if re.fullmatch(pattern, file)]
            assert files, name
            for file in files:
                assert headers[file] == columns, file
            described.update(files)
        assert described == set(headers)

    def test_r0_only(self, tmp_path):
        cfg = replace(load_config(write_cfg(tmp_path, TINY, name="r0only.cfg")), r0_only=True)
        out = tmp_path / "o"
        report = run_scenario(cfg, out_dir=out)
        assert report.ok and report.runs == ()
        assert (out / "r0.csv").is_file()
        assert not (out / "run_d10.csv").exists()

    def test_oracle_products(self, tmp_path):
        cfg = load_config(write_cfg(tmp_path, TINY + "toggles.run_oracle = true\n",
                                    name="oracle.cfg"))
        out = tmp_path / "o"
        run_scenario(cfg, out_dir=out)
        header, cols = read_csv(out / "oracle_compare_d10.csv")
        assert header == ["t", "beta_pde", "beta_volterra", "rel_dev"]
        assert cols[3][0] == 0.0  # identical functionals of the initial state
        header, _ = read_csv(out / "volterra_d10.csv")
        assert header == ["t", "beta", "eps", "alpha", "iota", "S", "V"]

    def test_lyapunov_product_dfe(self, tmp_path):
        # Tiny transmission overrides force r0 < 1 on the truncated grid so
        # the disease-free Lyapunov monitor runs on band-seeded data.
        beta_csv = tmp_path / "beta_tiny.csv"
        beta_csv.write_text("age_days,value\n0,1e-12\n720,1e-12\n")
        text = (TINY + "toggles.run_lyapunov = true\n"
                + f"params.beta_a_csv = {beta_csv}\nparams.beta_i_csv = {beta_csv}\n")
        cfg = load_config(write_cfg(tmp_path, text, name="lyap.cfg"))
        out = tmp_path / "o"
        run_scenario(cfg, out_dir=out)
        header, cols = read_csv(out / "lyapunov_d10.csv")
        assert header == ["t", "L", "dL_estimate", "violation_flag"]
        assert np.all(cols[1] >= 0.0)

    def test_lyapunov_band_endemic_rejected(self, tmp_path):
        text = TINY + "toggles.run_lyapunov = true\n"
        cfg = load_config(write_cfg(tmp_path, text, name="lyap2.cfg"))
        with pytest.raises(ConfigError, match="steady-scaled"):
            run_scenario(cfg, out_dir=tmp_path / "o")

    def test_zero_steady_scaled_seed_with_lyapunov_rejected(self, tmp_path):
        # d = 0 seeds zero densities, where the endemic L is infinite: the
        # sweep stops before its first pass, not in the middle.
        text = (TINY.replace("init.d_list = 10,100", "init.d_list = 10,0")
                + "init.mode = steady-scaled\ntoggles.run_lyapunov = true\n")
        cfg = load_config(write_cfg(tmp_path, text))
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="^init.d_list: .* d = 0 "):
            run_scenario(cfg, out_dir=out)
        assert not out.exists()
        report = run_scenario(replace(cfg, run_lyapunov=False), out_dir=out)
        assert report.ok and (out / "run_d0.csv").is_file()

    def test_underflowing_seed_later_in_the_sweep_stops_it_before_any_pass(self, tmp_path):
        # d = 1e-300 scales the steady densities to exact zeros at old
        # weighted ages; the earlier seed d = 10 is fine.
        text = (TINY.replace("init.d_list = 10,100", "init.d_list = 10,1e-300")
                + "init.mode = steady-scaled\ntoggles.run_lyapunov = true\n")
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match="^init.d_list: .* d = 1e-300 "):
            run_scenario(load_config(write_cfg(tmp_path, text)), out_dir=out)
        assert not (out / "run_d10.csv").exists()
        assert not (out / "lyapunov_d10.csv").exists()

    def test_band_over_every_weighted_node_is_monitored(self, tmp_path):
        # The band covers the whole 720-day grid, so the endemic L is finite.
        text = (TINY.replace("init.band = 100,300", "init.band = 0,721")
                .replace("run.t_max = 10", "run.t_max = 200")
                + "toggles.run_lyapunov = true\n")
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
        assert code == 0
        for label in ("10", "100"):
            _, cols = read_csv(out / f"lyapunov_d{label}.csv")
            assert cols[0][-1] == 200.0 and np.all(np.isfinite(cols[1]))
            assert not cols[3].any()

    @given(
        case=st.sampled_from([("table2-c2", "band"), ("table2-c2", "steady-scaled"),
                              ("table2-c2", "steady"), ("disease-free", "band")]),
        d_list=st.lists(st.one_of(st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 1e-250]),
                                  st.integers(-323, 7).map(lambda k: 10.0 ** k),
                                  st.floats(0.0, 1e7)),
                        min_size=1, max_size=2, unique_by=runner._d_label),
        # Half-day nodes; a band from node 0 over 1442 nodes covers the grid.
        low=st.one_of(st.just(0), st.integers(0, 1440)),
        width=st.one_of(st.just(1442), st.integers(1, 1500)),
        s0=st.one_of(st.just(0.0), st.floats(1e-300, 1e8)),
        v0=st.one_of(st.just(0.0), st.floats(1e-300, 1e8)),
    )
    @example(case=("table2-c2", "band"), d_list=[10.0], low=0, width=1442, s0=2e7, v0=2e7)
    @example(case=("table2-c2", "steady-scaled"), d_list=[10.0, 1e-300], low=0, width=1,
             s0=2e7, v0=2e7)
    @example(case=("table2-c2", "steady-scaled"), d_list=[10.0, 1e-200], low=0, width=1,
             s0=2e7, v0=2e7)
    @example(case=("disease-free", "band"), d_list=[0.0, 10.0], low=200, width=400,
             s0=2e7, v0=2e7)
    @settings(max_examples=60, deadline=None)
    def test_sweep_refused_before_any_pass_exactly_when_l_of_a_seed_raises(
            self, tmp_path_factory, case, d_list, low, width, s0, v0):
        tmp_path = tmp_path_factory.mktemp("verdict")
        builtin, mode = case
        text = TINY.replace("run.t_max = 10", "run.t_max = 5")
        if builtin == "disease-free":
            # Tiny transmission puts r0 below 1 on the 720-day grid.
            beta_csv = write_cfg(tmp_path, "age_days,value\n0,1e-12\n720,1e-12\n", "beta.csv")
            text += f"params.beta_a_csv = {beta_csv}\nparams.beta_i_csv = {beta_csv}\n"
        cfg = replace(load_config(write_cfg(tmp_path, text)), init_mode=mode,
                      d_list=tuple(d_list), band=(0.5 * low, 0.5 * (low + width)),
                      s0=s0, v0=v0, run_lyapunov=True)
        _, params = build_model(cfg)
        _, steady = reproduction.matching_steady_state(params)
        evaluator = diagnostics.LyapunovEvaluator(params, steady)
        raises = False
        for _, init in runner.initial_states(cfg, params, steady):
            try:
                evaluator(init.s, init.v, init.e.values, init.a.values, init.i.values)
            except LyapunovDomainError:
                raises = True
        out = tmp_path / "o"
        if raises:
            with pytest.raises(ConfigError):
                run_scenario(cfg, out_dir=out)
            assert not list(out.glob("run_d*.csv")) and not list(out.glob("lyapunov_*.csv"))
        else:
            report = run_scenario(cfg, out_dir=out)
            assert report.ok
            assert len(list(out.glob("lyapunov_*.csv"))) == len(report.runs)

    def test_repeated_d_label_rejected_before_any_pass(self, tmp_path, capsys):
        # 10, 10.0 and 1e1 would all write run_d10.csv.
        text = TINY.replace("init.d_list = 10,100", "init.d_list = 10,100,10.0,1e1")
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "error: init.d_list lists d = 10 more than once" in captured.err
        assert "run d=" not in captured.out
        assert not list(out.glob("run_d*.csv"))

    def test_repeated_label_check_reads_the_file_label(self, tmp_path, monkeypatch):
        # The check and the file names share one label function.
        monkeypatch.setattr(runner, "_d_label", lambda d: "same")
        cfg = load_config(write_cfg(tmp_path, TINY))
        with pytest.raises(ConfigError, match="d = same more than once"):
            run_scenario(cfg, out_dir=tmp_path / "o")

    def test_steady_scaled_mode_runs(self, tmp_path):
        text = TINY + "init.mode = steady-scaled\ntoggles.run_lyapunov = true\n"
        cfg = load_config(write_cfg(tmp_path, text, name="lyap3.cfg"))
        out = tmp_path / "o"
        report = run_scenario(cfg, out_dir=out)
        assert report.ok
        assert (out / "lyapunov_d10.csv").is_file()

    def test_a_steady_scaled_sweep_builds_one_survival(self, tmp_path, monkeypatch):
        # Three masses share one (3, J) survival, and each seed is the bits
        # of a seed built alone.
        text = TINY.replace("init.d_list = 10,100", "init.d_list = 10,100,1e4")
        cfg = load_config(write_cfg(tmp_path, text + "init.mode = steady-scaled\n"))
        _, params = build_model(cfg)
        _, steady = reproduction.matching_steady_state(params)
        real, calls = reproduction.survivals, []

        def counting_survivals(params):
            calls.append(params)
            return real(params)
        monkeypatch.setattr(reproduction, "survivals", counting_survivals)
        monkeypatch.setattr(scenarios, "survivals", counting_survivals)
        states = runner.initial_states(cfg, params, steady)
        assert len(calls) == 1 and len(states) == 3
        monkeypatch.undo()
        for (_, got), d in zip(states, cfg.d_list, strict=True):
            want = scenarios.steady_scaled_initial_state(params, steady, cfg.s0, cfg.v0, d)
            for name in ("e", "a", "i"):
                assert getattr(got, name).values.tobytes() == getattr(want, name).values.tobytes()

    def test_one_pass_per_initial_condition(self, tmp_path, monkeypatch):
        # The oracle window and the Lyapunov series come from the sweep's
        # own pass, and equal what separate passes compute.
        text = TINY + ("init.mode = steady-scaled\ntoggles.run_oracle = true\n"
                       "toggles.run_lyapunov = true\n")
        cfg = load_config(write_cfg(tmp_path, text, name="both.cfg"))
        seen, calls = {}, Counter()
        real_states = runner.initial_states

        def recording_states(cfg, params, steady):
            seen.update(params=params, steady=steady, states=real_states(cfg, params, steady))
            return seen["states"]

        def counting_simulate(init, *args, **kwargs):
            calls[id(init)] += 1
            return simulate(init, *args, **kwargs)

        monkeypatch.setattr(runner, "initial_states", recording_states)
        for module in (runner, diagnostics):
            monkeypatch.setattr(module, "simulate", counting_simulate)
        out = tmp_path / "o"
        assert run_scenario(cfg, out_dir=out).ok
        assert [calls[id(init)] for _, init in seen["states"]] == [1, 1]
        # The Lyapunov reference is built in closed form, without a pass.
        assert sum(calls.values()) == len(seen["states"])

        params = seen["params"]
        window = min(cfg.oracle_t_max, cfg.t_max)
        for label, init in seen["states"]:
            beta_pde = simulate(init, params, t_max=window,
                                sample_every=params.grid.h).timeseries.beta
            path = volterra.solve_renewal(init, params, t_max=window)
            rel_dev = np.abs(beta_pde - path.beta) / np.max(path.beta)
            _, cols = read_csv(out / f"oracle_compare_d{label}.csv")
            for got, want in zip(cols, (path.t, beta_pde, path.beta, rel_dev), strict=True):
                assert np.array_equal(got, want)

            times, values, _ = diagnostics.monitor_lyapunov(
                init, params, seen["steady"], t_max=cfg.t_max, sample_every=cfg.sample_every)
            flags = np.zeros(values.size)
            for idx, *_rest in diagnostics.monotonicity_check(values, times).intervals:
                flags[idx + 1] = 1.0
            dl = np.concatenate(([0.0], np.diff(values) / np.diff(times)))
            _, cols = read_csv(out / f"lyapunov_d{label}.csv")
            for got, want in zip(cols, (times, values, dl, flags), strict=True):
                assert np.array_equal(got, want)


class TestContactLabelingReport:
    def test_report_written_with_signed_deviations(self, tmp_path):
        # Computed on a coarse grid here purely to exercise the writer; the
        # acceptance suite runs the full-resolution check.
        outcomes = contact_labeling_outcomes(h=2.0)
        path = tmp_path / "report.txt"
        write_contact_labeling_report(path, outcomes)
        text = path.read_text()
        assert "signed relative deviation" in text
        assert "labeling" in text
        assert "verdict" in text


class TestCli:
    def test_exit_hook_is_registered_once(self, tmp_path, monkeypatch):
        # Two runs in one process register gc.freeze with atexit once, and
        # the collector is left as it was when main returns.
        registered = []
        monkeypatch.setattr(cli, "_freeze_at_exit", False)
        monkeypatch.setattr(atexit, "register", registered.append)
        cfg_path = write_cfg(tmp_path, TINY)
        for k in (1, 2):
            assert cli.main(["r0-report", "--config", str(cfg_path),
                             "--out", str(tmp_path / f"o{k}")]) == 0
            assert gc.get_freeze_count() == 0
        assert registered == [gc.freeze]

    def test_subprocess_run_equals_an_in_process_one(self, tmp_path, capsys):
        # `python -m sveair.cli run` exits through the gc.freeze hook; an
        # endemic sweep with Lyapunov on writes the same files, byte for
        # byte, and prints the same lines as cli.main in this process.
        cfg_path = write_cfg(tmp_path, TINY + "init.mode = steady-scaled\n"
                                              "toggles.run_lyapunov = true\n")
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "in")]) == 0
        lines = capsys.readouterr().out
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), *filter(None, [env.get("PYTHONPATH")])])
        proc = subprocess.run(
            [sys.executable, "-m", "sveair.cli", "run", "--config", str(cfg_path),
             "--out", str(tmp_path / "sub")], env=env, capture_output=True, text=True,
            timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == lines and proc.stderr == ""
        names = sorted(p.name for p in (tmp_path / "in").iterdir())
        assert "lyapunov_d100.csv" in names
        assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == names
        for name in names:
            assert (tmp_path / "sub" / name).read_bytes() == (tmp_path / "in" / name).read_bytes()

    def test_run_exit_code_and_stdout(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, TINY)
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 0
        out = capsys.readouterr().out
        assert "r0 =" in out and "run d=10" in out

    def test_run_lines_state_their_checks(self, tmp_path, capsys):
        # With Lyapunov and the oracle on, each run line ends with the
        # number of Lyapunov violations and the largest rel_dev, the values
        # of the run's own lyapunov and oracle_compare files.
        text = (TINY + "init.mode = steady-scaled\ntoggles.run_oracle = true\n"
                "toggles.run_lyapunov = true\n")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out)]) == 0
        runs = [line for line in capsys.readouterr().out.splitlines() if line.startswith("run ")]
        assert len(runs) == 2
        for label, line in zip(("10", "100"), runs):
            fields = re.fullmatch(rf"run d={label}: ok balance_error=\S+ final_convergence_metric"
                                  r"=\S+ lyapunov_violations=(\d+) oracle_rel_dev_max=(\S+)", line)
            assert fields, line
            flags = read_csv(out / f"lyapunov_d{label}.csv")[1][3]
            rel_dev = read_csv(out / f"oracle_compare_d{label}.csv")[1][3]
            assert fields[1] == str(int(flags.sum()))
            assert fields[2] == f"{rel_dev.max():.3g}"
        # Without them the line ends at final_convergence_metric.
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, TINY)),
                         "--out", str(tmp_path / "plain")]) == 0
        for line in capsys.readouterr().out.splitlines():
            if line.startswith("run "):
                assert re.fullmatch(r"run d=\S+: ok balance_error=\S+ "
                                    r"final_convergence_metric=\S+", line)

    def test_r0_report_subcommand(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TINY)
        out = tmp_path / "o"
        assert cli.main(["r0-report", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "r0.csv").is_file()
        assert not (out / "run_d10.csv").exists()

    @pytest.mark.parametrize("path", CONFIGS, ids=lambda path: path.stem)
    def test_shipped_config_loads_and_reports_r0(self, tmp_path, path):
        assert load_config(path).builtin in ("table2-c1", "table2-c2")
        out = tmp_path / "o"
        assert cli.main(["r0-report", "--config", str(path), "--out", str(out)]) == 0
        assert [p.name for p in out.iterdir()] == ["r0.csv"]

    def test_aborted_run_is_reported_and_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # The first seed (d = 10) aborts; the second (d = 100) runs as usual.
        calls = []

        def aborting_simulate(*args, **kwargs):
            calls.append(None)
            if len(calls) == 1:
                raise AbortedRunError("non-finite value at step 3 (t=1.5)", step_index=3)
            return simulate(*args, **kwargs)

        monkeypatch.setattr(runner, "simulate", aborting_simulate)
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, TINY)),
                         "--out", str(out)]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert "run d=10: ABORTED balance_error=nan final_convergence_metric=nan" in lines
        assert any(line.startswith("run d=100: ok ") for line in lines)
        assert sorted(p.name for p in out.iterdir()) == [
            "r0.csv", "run_d100.csv", "snapshot_d100_t5.csv"]

    def test_a_pass_aborting_after_a_snapshot_leaves_no_file(self, tmp_path, capsys,
                                                             monkeypatch):
        # The first seed (d = 10) writes its t = 0 snapshot, then aborts; the
        # file goes with it. The second seed (d = 100) runs as usual.
        out = tmp_path / "o"
        written = []

        def aborting_simulate(*args, on_snapshot, **kwargs):
            def write_then_abort(t, *densities):
                on_snapshot(t, *densities)
                written.append(sorted(path.name for path in out.glob("snapshot_*")))
                if len(written) == 1:
                    raise AbortedRunError("non-finite value at step 3 (t=1.5)", step_index=3)
            return simulate(*args, on_snapshot=write_then_abort, **kwargs)

        monkeypatch.setattr(runner, "simulate", aborting_simulate)
        text = TINY.replace("run.snapshot_times = 5", "run.snapshot_times = 0,5")
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out)]) == 1
        assert written[0] == ["snapshot_d10_t0.csv"]
        lines = capsys.readouterr().out.splitlines()
        assert "run d=10: ABORTED balance_error=nan final_convergence_metric=nan" in lines
        assert any(line.startswith("run d=100: ok ") for line in lines)
        assert sorted(p.name for p in out.iterdir()) == [
            "r0.csv", "run_d100.csv", "snapshot_d100_t0.csv", "snapshot_d100_t5.csv"]

    def test_oracle_compare_subcommand(self, tmp_path):
        cfg_path = write_cfg(tmp_path, TINY)
        out = tmp_path / "o"
        assert cli.main(["oracle-compare", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert (out / "oracle_compare_d100.csv").is_file()

    def test_lyapunov_domain_error_is_reported(self, tmp_path, capsys):
        # V = 0 puts every seed outside the domain; the sweep stops before its first pass.
        text = TINY + "init.mode = steady-scaled\ninit.v0 = 0\ntoggles.run_lyapunov = true\n"
        cfg_path = write_cfg(tmp_path, text)
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "error: S and V must be positive" in capsys.readouterr().err

    def test_lyapunov_subcommand_rejects_a_zero_seed(self, tmp_path, capsys):
        text = (TINY.replace("init.d_list = 10,100", "init.d_list = 0")
                + "init.mode = steady-scaled\n")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["lyapunov", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "error: init.d_list: " in capsys.readouterr().err
        assert not list(out.glob("run_d*.csv"))

    def test_underflowing_steady_scaled_seed_stops_before_any_pass(self, tmp_path, capsys):
        text = (TINY.replace("init.d_list = 10,100", "init.d_list = 1e-300")
                .replace("run.t_max = 10", "run.t_max = 20")
                + "init.mode = steady-scaled\ntoggles.run_lyapunov = true\n")
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(write_cfg(tmp_path, text)), "--out", str(out)])
        assert code == 2
        assert "error: init.d_list: the steady-scaled seed d = 1e-300 " in (
            capsys.readouterr().err)
        assert not out.exists()

    def test_unstable_step_stops_before_r0(self, tmp_path, capsys):
        # At h * max exit rate >= 1 the scheme has no survival, so no r0:
        # r0-report stops with the step bound and writes no r0.csv.
        cfg_path = write_cfg(tmp_path, TINY + "params.gamma_i = 2.5\n")
        out = tmp_path / "o"
        code = cli.main(["r0-report", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "error: h * max exit rate = 1.25 >= 1; reduce h below 0.4 days" in err
        assert not (out / "r0.csv").exists()

    def test_unstable_last_node_stops_run_before_r0(self, tmp_path, capsys):
        # k is 0.2 up to 719.5 days and 2.5 at the last node (720 days)
        # alone, which enters no survival value but sets the share that node
        # passes on out of the grid.
        k_csv = write_cfg(tmp_path, "age_days,value\n0,0.2\n719.5,0.2\n720,2.5\n", "k.csv")
        cfg_path = write_cfg(tmp_path, TINY + f"params.k_csv = {k_csv}\n")
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "reduce h below 0.4 days" in capsys.readouterr().err
        assert not list(out.glob("*.csv"))

    def test_oracle_window_over_cap_stops_before_the_sweep(self, tmp_path, capsys):
        text = TINY.replace("run.t_max = 10", "run.t_max = 2100") + "run.oracle_t_max = 2100\n"
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["oracle-compare", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert "error: run.oracle_t_max" in capsys.readouterr().err
        assert not list(out.glob("run_d*.csv"))

    def test_snapshot_files_are_named_after_the_configured_times(self, tmp_path):
        # 3 * 0.1 and 7 * 0.1 are 0.30000000000000004 and 0.7000000000000001;
        # the file names keep the configured times, the t column the step times.
        text = TINY.replace("grid.h = 0.5", "grid.h = 0.1").replace(
            "run.sample_every = 1", "run.sample_every = 0.1").replace(
            "run.snapshot_times = 5", "run.snapshot_times = 0.3,0.7,0.30000000000000004")
        cfg_path = write_cfg(tmp_path, text.replace("run.t_max = 10", "run.t_max = 1"))
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
        assert sorted(path.name for path in out.glob("snapshot_d10_*.csv")) == [
            "snapshot_d10_t0.3.csv", "snapshot_d10_t0.7.csv"]
        _, cols = read_csv(out / "run_d10.csv")
        assert cols[0][3] == 3 * 0.1 and cols[0][7] == 7 * 0.1

    def test_snapshot_time_outside_the_run_is_rejected(self, tmp_path, capsys):
        text = TINY.replace("run.snapshot_times = 5", "run.snapshot_times = 5,50,-3")
        cfg_path = write_cfg(tmp_path, text)
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert ("error: run.snapshot_times: snapshot times [50.0, -3.0] match no step "
                "of [0, 10]" in capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("line, value", [("run.sample_every = 1", "0.7"),
                                             ("run.t_max = 10", "10.3"),
                                             ("run.snapshot_times = 5", "5.2"),
                                             ("run.oracle_t_max = 200", "5.3")])
    def test_off_grid_time_is_rejected(self, tmp_path, capsys, line, value):
        key = line.split(" = ")[0]
        text = TINY + "run.oracle_t_max = 200\ntoggles.run_oracle = true\n"
        cfg_path = write_cfg(tmp_path, text.replace(line, f"{key} = {value}"))
        out = tmp_path / "o"
        code = cli.main(["run", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        assert (f"error: {key} must be a whole multiple of grid.h = 0.5, got {value}"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_config_error_is_reported(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, "grid.h = -1\n")
        code = cli.main(["run", "--config", str(cfg_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err


# TINY as a ScenarioConfig built in code.
TINY_CFG = ScenarioConfig(h=0.5, theta_max=720.0, t_max=10.0, sample_every=1.0,
                          snapshot_times=(5.0,), d_list=(10.0, 100.0), band=(100.0, 300.0))

# Per judged key: its ScenarioConfig field, values that the key's own rule
# accepts, and values it refuses. A params.* value of None leaves the key out.
JUDGED = {
    "grid.h": ("h", (0.5, 0.25), (0.0, -1.0)),
    "grid.theta_max": ("theta_max", (720.0, 360.0), (0.25,)),
    "run.t_max": ("t_max", (10.0, 5.0), (0.0, 10.3)),
    "run.sample_every": ("sample_every", (1.0, 0.5), (0.0, 0.7)),
    "run.snapshot_times": ("snapshot_times", ((), (5.0,), (0.0, 5.0)),
                           ((5.0, 50.0), (-3.0,), (5.2,))),
    "run.oracle_t_max": ("oracle_t_max", (200.0, 5.0), (-5.0, 5.3)),
    "init.s0": ("s0", (2e7, 0.0), (-1.0,)),
    "init.v0": ("v0", (2e7, 0.0), (-1.0,)),
    "init.d_list": ("d_list", ((10.0,), (10.0, 100.0), (0.0,), (1e-300,)),
                    ((10.0, -1.0), (10.0, 1e1))),
    "init.band": ("band", ((100.0, 300.0), (0.0, 721.0)), ((300.0, 100.0), (800.0, 900.0))),
    "init.mode": ("init_mode", config.INIT_MODES, ()),
    "toggles.run_oracle": ("run_oracle", (False, True), ()),
    "toggles.run_lyapunov": ("run_lyapunov", (False, True), ()),
    "params.gamma_a": (None, (None, 0.2), (-0.1,)),
    "params.epsilon": (None, (None, 0.5), (1.5,)),
    "params.mu": (None, (None, 1e-4), (0.0,)),
}


def _judged_values():
    """Values for every judged key: accepted ones, but for up to two keys
    drawn to take a refused value."""
    valid = st.fixed_dictionaries({key: st.sampled_from(accepted)
                                   for key, (_, accepted, _) in JUDGED.items()})
    refusable = [key for key, (*_, refused) in JUDGED.items() if refused]
    faults = st.lists(st.sampled_from(refusable), max_size=2, unique=True).flatmap(
        lambda keys: st.fixed_dictionaries({key: st.sampled_from(JUDGED[key][2])
                                            for key in keys}))
    return st.tuples(valid, faults).map(lambda pair: {**pair[0], **pair[1]})


def _config_text(values):
    lines = []
    for key, value in values.items():
        if value is None or value == ():
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, tuple):
            value = ",".join(map(repr, value))
        elif isinstance(value, float):
            value = repr(value)
        lines.append(f"{key} = {value}\n")
    return "".join(lines)


def _config_in_code(values):
    fields = {JUDGED[key][0]: value for key, value in values.items()
              if not key.startswith("params.")}
    scalars = {key[len("params."):]: value for key, value in values.items()
               if key.startswith("params.") and value is not None}
    return ScenarioConfig(**fields, scalar_overrides=scalars)


class TestJudgement:
    """`run_scenario` judges every config before it writes anything, from a
    file or built in code."""

    @pytest.mark.parametrize("fields, key", [
        (dict(h=0.0), "grid.h"),
        (dict(theta_max=0.25), "grid.theta_max"),
        (dict(t_max=0.0), "run.t_max"),
        (dict(t_max=10.3), "run.t_max"),
        (dict(sample_every=0.7), "run.sample_every"),
        (dict(snapshot_times=(5.0, 50.0, -3.0)), "run.snapshot_times"),
        (dict(snapshot_times=(5.2,)), "run.snapshot_times"),
        (dict(oracle_t_max=-5.0, run_oracle=True), "run.oracle_t_max"),
        (dict(oracle_t_max=5.3, run_oracle=True), "run.oracle_t_max"),
        (dict(t_max=2100.0, oracle_t_max=2100.0, run_oracle=True), "run.oracle_t_max"),
        (dict(s0=-1.0), "init.s0"),
        (dict(v0=-1.0), "init.v0"),
        (dict(d_list=(10.0, -1.0)), "init.d_list"),
        (dict(band=(300.0, 100.0)), "init.band"),
        (dict(scalar_overrides={"gamma_a": -0.1}), "params.gamma_a"),
        (dict(scalar_overrides={"epsilon": 1.5}), "params.epsilon"),
        (dict(scalar_overrides={"mu": 0.0}), "params.mu"),
        (dict(scalar_overrides={"n0": 0.0}), "params.n0"),
        (dict(profile_overrides={"q_csv": "nowhere.csv"}), "params.q_csv"),
    ])
    def test_config_built_in_code_is_refused_before_any_file(self, tmp_path, monkeypatch,
                                                             fields, key):
        monkeypatch.chdir(tmp_path)
        out = tmp_path / "o"
        with pytest.raises(ConfigError, match=re.escape(key)):
            run_scenario(replace(TINY_CFG, **fields), out_dir=out)
        assert not out.exists()

    def test_snapshot_on_the_last_step_in_other_days_is_taken(self, tmp_path):
        # 0.30000000000000004 days is step 3 of a 0.3-day run at h = 0.1, as
        # `simulate` counts it.
        text = on_tiny("grid.h = 0.1\nrun.t_max = 0.3\nrun.sample_every = 0.1\n"
                       "run.snapshot_times = 0.30000000000000004")
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, text)),
                         "--out", str(out)]) == 0
        assert sorted(path.name for path in out.glob("snapshot_d10_*.csv")) == [
            "snapshot_d10_t0.30000000000000004.csv"]

    @pytest.mark.parametrize("lines", [
        "run.oracle_t_max = -5\ntoggles.run_oracle = false",
        "init.mode = steady-scaled\ninit.band = 300,100",
        "init.mode = steady\ninit.s0 = -1\ninit.v0 = -1\ninit.d_list = -1",
    ])
    def test_values_the_run_does_not_read_are_not_judged(self, tmp_path, lines):
        out = tmp_path / "o"
        assert cli.main(["run", "--config", str(write_cfg(tmp_path, on_tiny(lines))),
                         "--out", str(out)]) == 0
        assert (out / "r0.csv").is_file()

    @given(values=_judged_values())
    @settings(max_examples=30, deadline=None)
    def test_file_and_code_configs_are_judged_alike(self, tmp_path_factory, values):
        tmp_path = tmp_path_factory.mktemp("alike")
        code_out, cli_out = tmp_path / "code", tmp_path / "cli"
        try:
            report, verdict = run_scenario(_config_in_code(values), out_dir=code_out), None
        except SveairError as exc:
            assert isinstance(exc, (ConfigError, StabilityError))
            verdict = f"error: {exc}\n"
        err = StringIO()
        with redirect_stderr(err), redirect_stdout(StringIO()):
            code = cli.main(["run", "--config", str(write_cfg(tmp_path, _config_text(values))),
                             "--out", str(cli_out)])
        if verdict is not None:
            assert (code, err.getvalue()) == (2, verdict)
            assert not code_out.exists() and not cli_out.exists()
            return
        assert code == (0 if report.ok else 1)
        names = sorted(path.name for path in code_out.iterdir())
        assert names == sorted(path.name for path in cli_out.iterdir())
        for name in names:
            assert (code_out / name).read_bytes() == (cli_out / name).read_bytes()
