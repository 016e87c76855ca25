"""The baselines' golden digests hold on other numerical platforms of this host.

Each case runs golden-digest tests in a fresh process whose environment picks
other kernels: ``OPENBLAS_CORETYPE`` picks OpenBLAS's, and
``NPY_DISABLE_CPU_FEATURES`` makes numpy run its AVX2 (``X86_V3``) loops on an
AVX-512 host.  No baseline value goes through BLAS, so every baseline digest
holds under any OpenBLAS core.  Henze-Zirkler's ``exp`` differs between
numpy's loops, as do the sub-Gaussian sampler's, so on the AVX2 loops only
the Mardia and Jarque-Bera digests under Gaussian nulls are pinned.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from numpy._core._multiarray_umath import __cpu_features__

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_MODULES = ("tests/test_mc_engine.py", "tests/test_harness.py")
# Every golden that simulates a baseline: the kurt quantile tables and replicates,
# the baseline engine branches, and the power CSVs "skew-jb-n-4" and "n-100-three-chunks".
BASELINE_GOLDENS = "golden and (kurt or skew or jb or hz or three-chunks)"
# The Mardia and Jarque-Bera goldens of test_mc_engine.py under Gaussian nulls: all but jb at alpha 1.8.
GAUSSIAN_MARDIA_GOLDENS = "golden and (kurt or skew or jb) and not 1.8"
AVX2_LOOPS = "X86_V4 AVX512_ICL AVX512_SPR"


@pytest.mark.parametrize(
    "env,modules,select,count",
    [
        ({"OPENBLAS_CORETYPE": "Haswell"}, GOLDEN_MODULES, BASELINE_GOLDENS, 14),
        ({"OPENBLAS_CORETYPE": "Prescott"}, GOLDEN_MODULES, BASELINE_GOLDENS, 14),
        ({"NPY_DISABLE_CPU_FEATURES": AVX2_LOOPS}, GOLDEN_MODULES[:1], GAUSSIAN_MARDIA_GOLDENS, 9),
    ],
    ids=["openblas-haswell", "openblas-prescott", "numpy-avx2-loops"],
)
def test_baseline_goldens_hold_on_another_platform(env, modules, select, count):
    if "NPY_DISABLE_CPU_FEATURES" in env and not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy runs no AVX-512 loops on this host, so its AVX2 loops cannot be compared with them here")
    # numpy's dispatch is the case's own, never the one this process runs under
    inherited = {k: v for k, v in os.environ.items() if k != "NPY_DISABLE_CPU_FEATURES"}
    env = {**inherited, **env, "PYTHONPATH": os.pathsep.join(sys.path)}
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *modules, "-k", select]
    done = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stdout[-4000:]
    assert re.search(rf"\b{count} passed\b", done.stdout), done.stdout[-4000:]  # the selection ran in full
