import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cld


def modules_after(code: str, cwd=None, package: str = "scipy") -> list[str]:
    """The modules of ``package`` loaded by a fresh interpreter once it has run ``code``."""
    src = str(Path(cld.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code += (f"\nimport sys; print(' '.join(m for m in sys.modules "
             f"if m == {package!r} or m.startswith({package + '.'!r})))")
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout.split()


def test_package_and_cli_import_without_scipy():
    # cld needs no scipy; loading it at import time would add its import
    # cost to every CLI start
    assert modules_after("import cld, cld.cli") == []


@pytest.mark.parametrize("module", ["cld.cert", "cld.head", "cld.cli"])
def test_each_module_imports_first(module):
    # head imports cert at module level, and cert imports head: a fresh
    # interpreter must import either, or the CLI, first without a cycle error
    assert modules_after(f"import {module}") == []


def test_relaxed_training_loads_no_scipy(tmp_path):
    # the u-solve's Gram factor is numpy's
    code = textwrap.dedent("""
        import contextlib, io
        from cld.admm import AdmmConfig, GateConfig, train
        from cld.cli import main
        from cld.dataio import load_manifest
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--languages", "2", "--accents", "1,1", "--dim", "4",
                         "--samples-per-accent", "20", "--out", "data"]) == 0
        X, labels = load_manifest("data/manifest.json")
        head = train(X, labels, GateConfig(count=4), AdmmConfig(rho=0.1, admm_iters=5))
        assert head.cert.B_l21 > 0
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["train", "--manifest", "data/manifest.json", "--out", "model.json",
                         "--rho", "0.1", "--admm-iters", "5", "--log", "train.log"]) == 0
    """)
    assert modules_after(code, cwd=tmp_path) == []
    assert (tmp_path / "model.json").exists()


def test_exact_training_and_enumeration_load_no_scipy(tmp_path):
    # the cone projector and the enumeration's margin screen are numpy's too
    code = textwrap.dedent("""
        import contextlib, io
        import numpy as np
        from cld.admm import AdmmConfig, GateConfig, train
        from cld.cli import main
        from cld.dataio import LabelSet
        rng = np.random.default_rng(7)
        X = rng.standard_normal((9, 3))
        y = rng.integers(0, 2, 9)
        y[:2] = np.arange(2)
        head = train(X, LabelSet(y, {"a": 0, "b": 1}), GateConfig(enumerate_all=True),
                     AdmmConfig(rho=0.1, admm_iters=10, mode="exact"))
        assert head.cert.B_l21 > 0
        np.savetxt("tiny.csv", X, delimiter=",")
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["gates-enum", "--features", "tiny.csv", "--out", "patterns.json"]) == 0
    """)
    assert modules_after(code, cwd=tmp_path) == []
    assert (tmp_path / "patterns.json").exists()


def test_certify_and_bench_load_no_numpy_ma(tmp_path):
    # np.median and np.unique load numpy.ma for their NaN and masked-array paths
    code = textwrap.dedent("""
        import contextlib, io
        from cld.cli import main
        flags = ["--languages", "2", "--accents", "1,1", "--dim", "4",
                 "--samples-per-accent", "20"]
        solver = ["--rho", "0.1", "--admm-iters", "5"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", "data", *flags]) == 0
            assert main(["train", "--manifest", "data/manifest.json", "--out", "model.json",
                         *solver, "--log", "train.log"]) == 0
            assert main(["certify", "--model", "model.json", "--manifest", "data/manifest.json",
                         "--out", "certs.csv", "--summary", "summary.json"]) == 0
            assert main(["bench", "--out", "bench", "--sizes", "20", *flags, *solver,
                         "--log", "bench.log"]) == 0
    """)
    assert modules_after(code, cwd=tmp_path, package="numpy.ma") == []
    assert (tmp_path / "summary.json").exists() and (tmp_path / "bench").is_dir()


def test_every_exported_name_resolves():
    missing = [name for name in cld.__all__ if not hasattr(cld, name)]
    assert missing == []
