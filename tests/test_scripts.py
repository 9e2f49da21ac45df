import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

CHECKOUT = pathlib.Path(__file__).resolve().parent.parent
SCRIPTS = CHECKOUT / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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


@pytest.mark.parametrize(
    "argv, pythonpath",
    [
        pytest.param([str(SCRIPTS / "build_timings.py"), "--help"], None, id="build_timings"),
        pytest.param(["-m", "wcosym.cli", "suite", "--help"], str(CHECKOUT / "src"), id="wcosym.cli"),
    ],
)
def test_script_runs_from_a_plain_checkout(argv, pythonpath, tmp_path):
    # no install: a script run as a file imports the package from the
    # checkout it sits in, and the CLI runs with the checkout's src/ on PYTHONPATH
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    if pythonpath:
        env["PYTHONPATH"] = pythonpath
    done = subprocess.run(
        [sys.executable, *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage:")
