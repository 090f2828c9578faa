"""The reach probe's bookkeeping (``tests/reach.py``): the allowlist stays
honest even on runs that do not load the plugin."""

from tests.reach import (
    PACKAGE,
    REASONS,
    defined_functions,
    load_allowed,
    summarize,
)


class TestAllowlist:
    def test_every_entry_names_a_gated_function_with_a_known_reason(self):
        names = {f"{key[0]}::{qualname}" for key, qualname in defined_functions().items()}
        for name, reason in load_allowed().items():
            assert name in names, name
            assert reason in REASONS, (name, reason)

    def test_decorated_functions_key_on_their_first_decorator(self):
        # a code object's co_firstlineno is its first decorator's line
        defined = defined_functions()
        (key,) = [k for k, q in defined.items() if q == "Request.is_complete"]
        source = (PACKAGE / key[0]).read_text()
        assert source.splitlines()[key[1] - 1].strip() == "@property"


class TestGate:
    DEFINED = {
        ("mpi/a.py", 1, "f"): "f",
        ("mpi/a.py", 5, "__repr__"): "A.__repr__",
        ("obs/b.py", 1, "g"): "g",
    }

    def test_unlisted_unreached_gated_function_fails(self):
        lines, failures = summarize({("mpi/a.py", 5, "__repr__")}, self.DEFINED, {})
        assert lines[0] == "reach: 1/3 src/repro functions reached"
        # every package is gated: obs/ as much as mpi/
        assert failures == [
            "unreached and not allowed: mpi/a.py::f",
            "unreached and not allowed: obs/b.py::g",
        ]

    def test_listed_function_passes_and_stale_entries_fail(self):
        allowed = {"mpi/a.py::A.__repr__": "repr", "mpi/a.py::gone": "repr"}
        rows = {("mpi/a.py", 1, "f"), ("obs/b.py", 1, "g")}
        _lines, failures = summarize(rows, self.DEFINED, allowed)
        assert failures == ["allowlist names no function: mpi/a.py::gone"]

    def test_unknown_reason_fails(self):
        allowed = {"mpi/a.py::A.__repr__": "later"}
        rows = {("mpi/a.py", 1, "f"), ("obs/b.py", 1, "g")}
        _lines, failures = summarize(rows, self.DEFINED, allowed)
        assert failures == [
            f"allowlist reason not one of {REASONS}: mpi/a.py::A.__repr__ 'later'"
        ]
