import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Importing scipy costs about 0.6 s and 50 MB; only calibrate_energy with
# custom anchors needs it, so the default set-up must not load it.
PROBE = """
import sys
import edgesim, edgesim.qnav, edgesim.swarmlab
from edgesim import stochsyn
edgesim.default_params()
stochsyn._cycle_tables()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(len(loaded), loaded[:5])
"""


def test_default_setup_loads_no_scipy():
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True, text=True, check=True,
    ).stdout
    assert out.startswith("0 "), f"scipy modules loaded at set-up: {out}"
