import sys

from benchmarks.ledger.ledger import main

sys.exit(main())
