"""Import path: the package and its CLI load without scipy.

scipy.signal is needed only by the capacity analysis and the low-pass
countermeasure, which import it on first use; a session, a BER sweep or
a CLI start must not pay for it.
"""

import os
import subprocess
import sys
from pathlib import Path

import ultralink

SRC = str(Path(ultralink.__file__).resolve().parent.parent)

PROBE = (
    "import sys\n"
    "import ultralink\n"
    "import ultralink.cli\n"
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


def test_import_ultralink_and_cli_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
