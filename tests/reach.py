"""Reach probe: which ``src/repro`` functions does the test suite call?

Opt-in pytest plugin, stdlib only (``coverage`` is not a dependency)::

    PYTHONPATH=src python -m pytest -p tests.reach -q

``sys.setprofile`` plus ``threading.setprofile`` record every code object a
call enters.  At the end of the session the plugin prints reached/defined
per module of ``src/repro`` and lists the functions nothing called.  On a
whole-suite run (no path arguments) it then fails the session when a
function under :data:`GATED` is unreached and not named in
``tests/reach_allowed.txt`` — the short list of functions allowed to stay
unreached, each with its reason.

Calls made in other processes count too:

* forked children (fleet workers, fault-injection children) leave through
  ``os._exit``, which skips ``atexit``: the probe wraps ``os._exit`` before
  any fork, and installs a SIGTERM handler in every child, because the
  coordinator terminates workers it no longer needs;
* subprocesses import a generated ``sitecustomize.py`` that the plugin
  puts first on the inherited ``PYTHONPATH``, and dump at exit.

Each process writes its call set to a dump directory atomically (temporary
file, then ``os.replace``), so a process killed mid-dump leaves no torn
file behind.
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import shutil
import signal
import sys
import tempfile
import threading
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "repro"
ALLOWED = Path(__file__).with_name("reach_allowed.txt")

#: packages whose unreached functions fail a whole-suite run
GATED = ("dampi/", "mpi/", "pnmpi/", "clocks/")

#: the only reasons a function may stay unreached
REASONS = ("repr", "abstract", "tombstone: ROADMAP 2a")

_SITECUSTOMIZE = """\
import importlib.util as _util
_spec = _util.spec_from_file_location("_repro_reach", {probe!r})
_mod = _util.module_from_spec(_spec)
_spec.loader.exec_module(_mod)
_mod.start({dumps!r}, at_exit=True)
"""

#: id(code) -> code for every code object entered; holding the code
#: object keeps its id from being reused
_seen: dict = {}
_dump_dir = None
_dumping = False
_real_exit = os._exit


def _profile(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if id(code) not in _seen:
            _seen[id(code)] = code


def _reached() -> set:
    """``(module path, first line, name)`` of every entered function of
    the package."""
    root = str(PACKAGE) + os.sep
    real: dict = {}
    rows = set()
    for code in list(_seen.values()):
        path = real.get(code.co_filename)
        if path is None:
            path = real[code.co_filename] = os.path.realpath(code.co_filename)
        if path.startswith(root):
            rows.add((path[len(root):], code.co_firstlineno, code.co_name))
    return rows


def _dump() -> None:
    global _dumping
    if _dumping or _dump_dir is None:
        return
    _dumping = True
    sys.setprofile(None)
    rows = sorted(_reached())
    path = os.path.join(_dump_dir, f"{os.getpid()}-{os.urandom(6).hex()}.json")
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(rows, fh)
    os.replace(path + ".tmp", path)


def _exit(code):
    try:
        _dump()
    finally:  # a failed dump must not keep the process alive
        _real_exit(code)


def _on_sigterm(signum, frame):
    if _dumping:
        return  # the dump in progress finishes, then the process exits
    try:
        _dump()
    finally:
        signal.signal(signum, signal.SIG_DFL)
        os.kill(os.getpid(), signum)


def _after_fork_in_child() -> None:
    # a child reports only what it calls itself
    _seen.clear()
    try:
        signal.signal(signal.SIGTERM, _on_sigterm)
    except ValueError:
        pass  # not the main thread: the child cannot install handlers


def start(dump_dir: str, at_exit: bool = False) -> None:
    """Record calls in this process from now on; forked children and (with
    ``at_exit``) this process itself dump their call sets to ``dump_dir``."""
    global _dump_dir
    _dump_dir = dump_dir
    os._exit = _exit
    os.register_at_fork(after_in_child=_after_fork_in_child)
    if at_exit:
        atexit.register(_dump)
    threading.setprofile(_profile)
    sys.setprofile(_profile)


def stop() -> set:
    """Stop recording; the rows this process and every dump reached."""
    sys.setprofile(None)
    threading.setprofile(None)
    rows = _reached()
    for dump in Path(_dump_dir).glob("*.json"):
        rows.update(tuple(row) for row in json.loads(dump.read_text()))
    return rows


def defined_functions() -> dict:
    """``(module path, first line, name) -> qualified name`` for every
    ``def`` in the package.  The first line is a decorated function's first
    decorator, as in its code object."""
    out = {}

    def visit(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([d.lineno for d in child.decorator_list] + [child.lineno])
                qualname = prefix + child.name
                out[(rel, first, child.name)] = qualname
                visit(child, rel, qualname + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, rel, prefix + child.name + ".")
            else:
                visit(child, rel, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        visit(ast.parse(path.read_text(encoding="utf-8")), rel, "")
    return out


def load_allowed() -> dict:
    """``module::qualname -> reason`` from ``tests/reach_allowed.txt``."""
    allowed = {}
    for line in ALLOWED.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, reason = line.partition(" ")
        allowed[name] = reason.strip()
    return allowed


def summarize(rows: set, defined: dict, allowed: dict) -> tuple[list, list]:
    """The report lines and the gate's failures."""
    per_module: dict = {}
    unreached = []
    for key, qualname in sorted(defined.items()):
        module = key[0]
        counts = per_module.setdefault(module, [0, 0])
        counts[1] += 1
        if key in rows:
            counts[0] += 1
        else:
            unreached.append(f"{module}::{qualname}")
    total = sum(n for n, _ in per_module.values())
    lines = [f"reach: {total}/{len(defined)} src/repro functions reached"]
    for module, (n, d) in per_module.items():
        lines.append(f"  {module:<32} {n:>4}/{d}")
    lines.append(f"unreached ({len(unreached)}):")
    lines += [
        f"  {name}" + (f"  [{allowed[name]}]" if name in allowed else "")
        for name in unreached
    ]
    names = {f"{k[0]}::{q}" for k, q in defined.items()}
    failures = [
        f"unreached and not allowed: {name}"
        for name in unreached
        if name.startswith(GATED) and name not in allowed
    ]
    failures += [
        f"allowlist names no function: {name}" for name in allowed if name not in names
    ]
    failures += [
        f"allowlist reason not one of {REASONS}: {name} {reason!r}"
        for name, reason in allowed.items()
        if reason not in REASONS
    ]
    return lines, failures


# -- pytest plugin -------------------------------------------------------------


def pytest_configure(config):
    tmp = tempfile.mkdtemp(prefix="reach-")
    dumps = os.path.join(tmp, "dumps")
    os.mkdir(dumps)
    Path(tmp, "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(probe=str(Path(__file__).resolve()), dumps=dumps),
        encoding="utf-8",
    )
    config._reach = {"tmp": tmp, "pythonpath": os.environ.get("PYTHONPATH")}
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (tmp, os.environ.get("PYTHONPATH")) if p
    )
    start(dumps)


@pytest.hookimpl(tryfirst=True)
def pytest_sessionfinish(session, exitstatus):
    state = session.config._reach
    lines, failures = summarize(stop(), defined_functions(), load_allowed())
    whole_suite = session.config.args_source is pytest.Config.ArgsSource.TESTPATHS
    if not whole_suite:
        failures = []
        lines.append("(not a whole-suite run: the allowlist gate is off)")
    state["lines"], state["failures"] = lines, failures
    if failures and session.exitstatus == pytest.ExitCode.OK:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter, config):
    state = config._reach
    terminalreporter.section("reach")
    for line in state.get("lines", ()):
        terminalreporter.write_line(line)
    for line in state.get("failures", ()):
        terminalreporter.write_line(f"FAIL {line}", red=True)


def pytest_unconfigure(config):
    state = getattr(config, "_reach", None)
    if state is None:
        return
    if state["pythonpath"] is None:
        os.environ.pop("PYTHONPATH", None)
    else:
        os.environ["PYTHONPATH"] = state["pythonpath"]
    shutil.rmtree(state["tmp"], ignore_errors=True)
