"""Import path: the package and its CLI load without scipy, and so do a
session and a BER cell.

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
    "from ultralink import analysis, channel, link, modem\n"
    "room = channel.preset('paper-3m')\n"
    "cfg = link.LinkConfig(modem=modem.ModemConfig(bit_rate=166))\n"
    "trace = link.run_session(cfg, cfg, room, b'hi there', seed=1)\n"
    "assert trace.summary['complete'], trace.summary\n"
    "analysis.ber_sweep([166.0], [('paper-3m', room)], payload_bits=1000, seeds=[0])\n"
    "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
)


def test_import_ultralink_and_cli_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
