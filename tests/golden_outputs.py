"""Short runs of the three shipped configs and their committed goldens.

Each shipped config is cut to 60 days with every mass of its sweep, a
30-day oracle window and one snapshot at day 30, and run through
`runner.run_scenario`. `capture` reads back every CSV it wrote: for each
column, its largest magnitude and its values at a subsample of rows
(`sample_rows`), and the report's printed lines without the
`balance_error` field. `tests/test_golden_outputs.py` compares a fresh run
against `tests/golden_outputs.json`.

Re-record the goldens only with a change that moves results on purpose,
and state the largest change per column with it:

    PYTHONPATH=src python tests/golden_outputs.py
"""

from __future__ import annotations

import json
import re
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np

from conftest import read_csv
from sveair.config import load_config
from sveair.runner import run_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN_PATH = Path(__file__).resolve().parent / "golden_outputs.json"
CONFIGS = ("table2-c1", "table2-c2", "table2-c2-lyapunov")
SHORT = dict(t_max=60.0, oracle_t_max=30.0, snapshot_times=(30.0,))
# Rows kept per file: evenly spaced over the file, and as many again spaced
# geometrically, which crowds them at the young ages the boundary history
# fills in a short run.
_SPREAD = 40


def short_config(name: str, out_dir):
    """The shipped config `name`, cut as the module docstring says."""
    cfg = load_config(ROOT / "configs" / f"{name}.cfg")
    return replace(cfg, out_dir=str(out_dir), **SHORT)


def sample_rows(n_rows: int) -> list[int]:
    """The rows of an n_rows-row file that the goldens keep, ascending."""
    even = np.linspace(0, n_rows - 1, _SPREAD)
    spread = np.geomspace(1, n_rows, _SPREAD) - 1
    return sorted(set(np.round(np.concatenate((even, spread))).astype(int).tolist()))


def capture(name: str, out_dir) -> dict:
    """Run the short config `name` into `out_dir` and summarise its outputs."""
    report = run_scenario(short_config(name, out_dir))
    files = {}
    for path in sorted(Path(out_dir).glob("*.csv")):
        header, columns = read_csv(path)
        rows = sample_rows(columns[0].size)
        files[path.name] = {
            "header": header,
            "n_rows": columns[0].size,
            "rows": rows,
            "scale": [float(np.max(np.abs(col))) for col in columns],
            "values": [col[rows].tolist() for col in columns],
        }
    lines = [re.sub(r" balance_error=\S+", "", line) for line in report.lines()]
    return {"ok": report.ok, "lines": lines, "files": files}


def main() -> int:
    goldens = {}
    for name in CONFIGS:
        with tempfile.TemporaryDirectory() as out:
            goldens[name] = capture(name, out)
    # One line per file, so that a re-recording diffs file by file.
    blocks = []
    for name, golden in goldens.items():
        files = ",\n".join(f"   {json.dumps(file)}: {json.dumps(entry)}"
                            for file, entry in golden["files"].items())
        blocks.append(f' {json.dumps(name)}: {{\n  "ok": {json.dumps(golden["ok"])},\n'
                      f'  "lines": {json.dumps(golden["lines"])},\n  "files": {{\n{files}\n  }}\n }}')
    GOLDEN_PATH.write_text("{\n" + ",\n".join(blocks) + "\n}\n", encoding="ascii")
    print(f"wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
