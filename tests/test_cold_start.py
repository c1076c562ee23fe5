"""Cold start: importing the library loads no scipy, and neither does the exp scheme, whose exponential is
the library's own ``linalg.expm``.

Each check runs in a fresh interpreter, since the test process has imported scipy already.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_fresh(code):
    """Run ``code`` in a new interpreter with ``src`` first on the path; return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy():
    loaded = run_fresh(
        "import sys, crp, crp.cli, crp.suite\n"
        "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    assert loaded.split() == []


def test_exp_scheme_matches_expm_in_a_fresh_interpreter():
    # the step is the library's expm of the step generator, and running it loads no scipy
    out = run_fresh(
        "import sys\n"
        "import numpy as np\n"
        "from crp.flatrde import linear_flow\n"
        "from crp.linalg import expm\n"
        "rng = np.random.default_rng(3)\n"
        "mats = rng.normal(size=(2, 3, 3))\n"
        "dx = 0.1 * rng.normal(size=(1, 2))\n"
        "areas = 0.01 * rng.normal(size=(1, 2, 2))\n"
        "ys = linear_flow(mats, np.array([0.0, 0.1]), dx, areas, None, 'exp')\n"
        "anti = 0.5 * (areas[0] - areas[0].T)\n"
        "gen = np.einsum('a,anm->nm', dx[0], mats) + np.einsum('ab,bnp,apm->nm', anti, mats, mats)\n"
        "print(float(np.max(np.abs(ys[1] - expm(gen)))))\n"
        "print(' '.join(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))))"
    )
    err, *loaded = out.split()
    assert float(err) < 1e-14
    assert loaded == []
