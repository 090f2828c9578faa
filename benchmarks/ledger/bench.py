"""Entry point named by BENCHMARK.json: ``python3 benchmarks/ledger/bench.py
--workload W --seed N --seconds S --trace 0|1`` from the root of a checkout.
Same as ``python -m benchmarks.ledger bench ...``; this file only makes the
repository root importable when it is run by path."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from benchmarks.ledger.ledger import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(["bench", *sys.argv[1:]]))
