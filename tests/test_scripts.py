import csv
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

from wcosym.cli import SWEEP_CSV_COLUMNS
from wcosym.verify import SUITES

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hyperbolic_sweeps_writes_four_tables(tmp_path):
    assert _load("hyperbolic_sweeps").main(["--out", str(tmp_path)]) == 3
    expected_rows = {"j-hyperbolic": 24, "c1-hyperbolic": 24, "c2-hyperbolic": 24, "hyperbolic-nonaut": 12}
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{f}.csv" for f in expected_rows)
    tables = {}
    for family, count in expected_rows.items():
        text = (tmp_path / f"{family}.csv").read_text()
        # the fixed header the README documents
        assert text.startswith("family,r,t_re,t_im,deficiency,verdict,w1_name,w1_re,w1_im,")
        tables[family] = list(csv.DictReader(text.splitlines()))
        assert list(tables[family][0]) == SWEEP_CSV_COLUMNS
        assert len(tables[family]) == count, family
    aut_rows = [row for row in tables["c1-hyperbolic"] if float(row["t_re"]) == 0.0]
    assert len(aut_rows) == 12
    assert all(row["verdict"] == "discrepancy" for row in aut_rows)


def test_run_all_suites_names_each_report_by_its_id(tmp_path, capsys):
    # one draw per suite; the documented Findings of ex52-sweep keep it at 3
    assert _load("run_all_suites").main(["--samples", "1", "--out", str(tmp_path)]) == 3
    reports = sorted(tmp_path.glob("*.json"))
    assert len(reports) == len(SUITES) == 27
    for path in reports:
        assert json.loads(path.read_text())["suite_id"] == path.stem


def test_build_timings_prints_every_row_and_refuses_zero_repeats(capsys, monkeypatch):
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        monkeypatch.setenv(var, "1")  # the script pins these on import; restored after the test
    script = _load("build_timings")
    assert script.main(["--repeats", "1"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:]]
    expected = [(name, n, k) for name in script.SYMBOLS for n in script.DIMS for k in script.BLOCKS]
    assert [(row[0], int(row[1]), int(row[2])) for row in rows] == expected
    assert all(len(row) == 7 for row in rows)  # symbol, N, k, whole, cross, stacked, block
    with pytest.raises(SystemExit) as exit_info:
        script.main(["--repeats", "0"])
    assert exit_info.value.code == 2


@pytest.mark.parametrize("name", ["run_all_suites", "hyperbolic_sweeps", "build_timings"])
def test_script_runs_from_a_plain_checkout(name, tmp_path):
    # run as a file with no PYTHONPATH, a script imports the package from
    # the checkout it sits in
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / f"{name}.py"), "--help"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
