import os
import subprocess
import sys
from pathlib import Path

import pytest

import cld

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("argv", [
    ["sample_efficiency.py", "--sizes", "100"],
    ["robustness_demo.py", "--trials", "200"],
])
def test_script_runs_from_a_fresh_directory(argv, tmp_path):
    # run from an empty cwd, as on a fresh checkout: sample_efficiency writes
    # its results (and its log) under a relative --out that does not exist yet
    src = str(Path(cld.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(SCRIPTS / argv[0]), *argv[1:]], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
