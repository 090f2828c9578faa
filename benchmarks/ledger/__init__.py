"""The campaign ledger (see README.md in this directory).

The ledger measures the checkout it lives in, so it makes that checkout's
``src/`` importable instead of relying on an installed ``repro``: the harness
reads the bug zoo's hand-written answers from it, and every child process gets
the same path through ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
