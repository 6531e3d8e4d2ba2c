"""The scripts under ``scripts/`` run end to end on small inputs."""

import os
import re
import subprocess
import sys

import pytest

from brieskorn_wrt import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _run(argv: list) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", argv[0]), *argv[1:]],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["asymptotic_scaling.py", "--p", "2,3,7", "--K", "2", "--start", "32", "--doublings", "1"],
        ["run_verifications.py", "--pmax", "200", "--nmax", "4"],
    ],
)
def test_script_exits_zero(argv):
    proc = _run(argv)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_run_verifications_reads_each_suites_check_count():
    # one ok line per suite, in order, with the count read off the JSON report
    proc = _run(["run_verifications.py", "--pmax", "200", "--nmax", "4"])
    lines = proc.stdout.splitlines()
    found = [re.fullmatch(r" *(\w+): +ok  checks= *(\d+)  \(\d+\.\ds\)", line) for line in lines]
    assert all(found), proc.stdout + proc.stderr
    assert [match[1] for match in found] == list(cli.SUITES), proc.stdout
    assert all(int(match[2]) > 0 for match in found), proc.stdout
