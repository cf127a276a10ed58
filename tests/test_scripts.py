"""Smoke tests: each driver under scripts/ runs to a clean exit."""

import csv
import pathlib
import subprocess
import sys

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, timeout=300):
    proc = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_calibration_demo(tmp_path):
    out = run_script("calibration_demo.py", str(tmp_path))
    ece = {}
    for block in out.split("# ")[1:]:
        label, _, table = block.partition("\n")
        for row in csv.DictReader(table.splitlines()):
            if row["metric"] == "ece" and row["scheme"] == "equal_width":
                ece[label] = float(row["value"])
    assert ece["overconfident"] > ece["calibrated"]
    assert (tmp_path / "calibrated_reliability.csv").exists()


def test_entropy_sweep():
    run_script("entropy_sweep.py")


def test_run_bench():
    run_script("run_bench.py", "--n", "64", "--v", "512", "--d", "16",
               "--repetitions", "3", "--warmups", "0")


def test_simplicity_check():
    """Code lines per module, then the engine grid's call count and digest,
    then the oracle grid's and the command runs' digests."""
    out = run_script("simplicity_check.py", timeout=30).splitlines()
    assert any(line.startswith("code_lines reference.py ") for line in out)
    assert out[-4].startswith("calls ") and int(out[-4].split()[1]) > 0
    for line, key in zip(out[-3:], ("sha256", "oracle_sha256", "cli_sha256")):
        assert line.split()[0] == key and len(line.split()[1]) == 64
