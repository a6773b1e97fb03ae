"""Each narrative script under ``demos/`` runs to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import inode

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
SRC = str(Path(inode.__file__).resolve().parents[1])


def test_every_demo_is_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, str(demo)], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
