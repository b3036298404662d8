import os
import subprocess
import sys
from pathlib import Path

import cld


def test_package_and_cli_import_without_scipy():
    # scipy is imported inside the functions that need it; loading it at
    # import time would add its import cost to every CLI start
    src = str(Path(cld.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = ("import sys, cld, cld.cli; "
            "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.split()
    assert out == []


def test_every_exported_name_resolves():
    missing = [name for name in cld.__all__ if not hasattr(cld, name)]
    assert missing == []
