"""``python -m repro`` — the verification CLI (see :mod:`repro.cli`)."""

import gc
import sys

from repro.cli import main

code = main()
# Every object still alive is about to be torn down with the process, so
# the exit-time collection would only walk the heap the imports and the
# campaign built.  Frozen objects are never collected, hence never
# finalized: ``main`` closes every file it opens before it returns
# (``tests/test_startup.py`` checks that nothing is left to a finalizer).
gc.freeze()
sys.exit(code)
