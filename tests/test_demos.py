"""The demos print the same bytes: each runs in-process from the repo root."""

import contextlib
import hashlib
import io
import runpy
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "01_theta_pom_dispersion.py": "562a1c7759d2f3777e9ac330decfd294b1dce38e282268c9870c7ec5d8cafff2",
    "02_quasiprobability_negativity.py": "95d027bf35c05297477733fa8f50a426daebd912a59274648d9e80700d13cab7",
    "03_weak_probe_convergence.py": "c42d592b9c0f69605efd2d1574de86808f2b278045808085467c458103954965",
    "04_inequality_sweep.py": "7a6af25f9b1d45aab5fabe09d97730bf414d8f7e85b5675ddc049741962bd941",
    # Samples 200 000 shots, so with two or more CPUs it counts on the thread pool.
    "05_monte_carlo.py": "2478b6c9740442268a8ecf95306ac8d0a4f0d9f712cc124801815732cce54fce",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_output_is_unchanged(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(ROOT / "demos" / name), run_name="__main__")
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == DEMO_SHA256[name]
