"""The scripts under scripts/ run end to end (no timing gate)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv, header", [
    (["lens_table.py", "--max", "4"],
     "  m   h(phi+)  rho off  canon h  splits  mu / lambda per spin structure"),
    (["group_defects.py", "--max-cyclic", "3", "--max-dihedral", "2"],
     " group   |G|   sigma(G)         cot sum      error   H(quotient)  pulled back"),
], ids=["lens_table", "group_defects"])
def test_script_runs(argv, header):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                            capture_output=True, text=True, env=env, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[0] == header
