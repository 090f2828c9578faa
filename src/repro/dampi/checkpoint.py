"""Tombstone: prefix checkpoints are deleted (docs/SUBSTRATE.md); nothing calls this."""


class PrefixCheckpointCache:
    # tombstone for benchmarks/ledger/spans.py:112,134-135 (imported; find/put patched)
    def find(self, decisions): ...

    def put(self, key, snap): ...
