"""The scripts under scripts/ run end to end and print their golden stdout
(no timing gate)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["lens_table.py", "--max", "8"], "lens_table.txt"),
    (["group_defects.py", "--max-cyclic", "6", "--max-dihedral", "4"], "group_defects.txt"),
], ids=["lens_table", "group_defects"])
def test_script_runs(argv, golden):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                            capture_output=True, text=True, env=env, check=False)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden).read_text(encoding="utf-8")
