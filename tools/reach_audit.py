#!/usr/bin/env python
"""Which functions of ``src/repro`` does nothing ever enter?

Runs what the repository runs -- the tier-1 test suite, every script
under ``examples/`` and ``python -m repro.serve --smoke`` -- with a
profile hook in every Python process they start, then lists each
function or method defined under ``src/repro`` that no process ever
entered.  A function on :data:`ALLOW`, a method named in
:data:`ALLOW_METHODS` and an ``@abstractmethod`` are expected to stay
unentered, each for the reason given there; the tool prints them with
it.  Exits 1 if any other function is never entered, if an
:data:`ALLOW` entry names no function, or if the runs themselves fail.

How the processes are followed: the tool writes a ``sitecustomize.py``
into a temporary directory and puts that directory first on
``PYTHONPATH``.  Python imports it at start-up in every interpreter
that inherits the environment -- cluster workers, example scripts, the
subprocess tests -- and forked children (the worker pool) inherit the
hook with the parent's memory.  The hook is ``sys.setprofile`` plus
``threading.setprofile``: it records the code object of every Python
call (no line events).  Each process writes what it saw when it exits,
through ``atexit`` or ``os._exit`` (the way forked pool workers end);
a process killed by a signal records nothing.  The hook is switched on
by the ``REACH_AUDIT_OUT`` variable, which only the generated
``sitecustomize.py`` reads.

Usage (repo root)::

    python tools/reach_audit.py    # about 4 min on 2 CPUs
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
PACKAGE = SRC / "repro"

#: ``module:qualified.name`` -> why nothing is expected to enter it.
ALLOW: dict[str, str] = {
    "repro.logic.ep:EPFormula.__hash__": (
        "keeps an ``__eq__``-defining value object hashable; nothing hashes one"
    ),
    "repro.logic.formulas:Exists.__hash__": (
        "keeps an ``__eq__``-defining formula node hashable; nothing hashes one"
    ),
    "repro.logic.formulas:_NaryFormula.__hash__": (
        "keeps an ``__eq__``-defining formula node hashable; nothing hashes one"
    ),
    "repro.serve.__main__:main._serve": (
        "only ``python -m repro.serve`` without ``--smoke``, which serves "
        "until a signal ends it"
    ),
    "repro.serve.httpd:CountingServer.serve_forever": (
        "only ``python -m repro.serve`` without ``--smoke``, which serves "
        "until a signal ends it"
    ),
}

#: Method names allowed unentered in every class, and why.
ALLOW_METHODS: dict[str, str] = {
    "__repr__": "a debugging aid: nothing in the repository prints one",
}

#: Why an ``@abstractmethod`` is allowed unentered.
ABSTRACT = "abstract: every subclass overrides it, so its body never runs"

_SITECUSTOMIZE = '''\
"""Generated by tools/reach_audit.py: record every function entered."""
import atexit
import os
import sys
import threading
import time

_OUT = os.environ.get("REACH_AUDIT_OUT")
if _OUT:
    _codes = set()
    _setprofile = sys.setprofile
    _exit = os._exit

    def _record(frame, event, arg):
        if event == "call":
            _codes.add(frame.f_code)

    def _dump():
        # Copy in C first: the hook keeps recording while this runs.
        codes = tuple(_codes)
        lines = {
            f"{code.co_filename}\\t{code.co_firstlineno}\\n"
            for code in codes
            if code.co_filename.startswith(__PREFIX__)
        }
        name = os.path.join(_OUT, f"{os.getpid()}-{time.time_ns()}.txt")
        with open(name, "w") as handle:
            handle.writelines(sorted(lines))

    def _chained_setprofile(function):
        # A test that installs its own hook keeps ours running beside
        # it, and uninstalling it brings ours back.
        if function is None:
            _setprofile(_record)
            return

        def both(frame, event, arg):
            _record(frame, event, arg)
            return function(frame, event, arg)

        _setprofile(both)

    def _dumping_exit(code):
        _dump()
        _exit(code)

    sys.setprofile = _chained_setprofile
    os._exit = _dumping_exit
    _setprofile(_record)
    threading.setprofile(_record)
    atexit.register(_dump)
'''


def defined_functions() -> tuple[dict[tuple[str, int], str], set[str]]:
    """``(path, first line of the code object)`` -> ``module:qualname``
    for every ``def`` under ``src/repro``, nested ones included (a
    decorated function's code starts at its first decorator), and the
    names of the abstract methods among them."""
    out: dict[tuple[str, int], str] = {}
    abstract: set[str] = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        tree = ast.parse(path.read_text(), filename=str(path))

        def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    first = min(
                        [child.lineno] + [d.lineno for d in child.decorator_list]
                    )
                    name = ".".join(scope + (child.name,))
                    out[(str(path), first)] = f"{module}:{name}"
                    if any(
                        getattr(d, "id", getattr(d, "attr", None)) == "abstractmethod"
                        for d in child.decorator_list
                    ):
                        abstract.add(f"{module}:{name}")
                    visit(child, scope + (child.name,))
                elif isinstance(child, ast.ClassDef):
                    visit(child, scope + (child.name,))
                else:
                    visit(child, scope)

        visit(tree, ())
    return out, abstract


def allowance(name: str, abstract: set[str]) -> str | None:
    """Why ``name`` may stay unentered, or ``None``."""
    if name in abstract:
        return ABSTRACT
    method = name.rsplit(".", 1)[-1] if "." in name else None
    return ALLOW.get(name) or ALLOW_METHODS.get(method)


def runs() -> list[list[str]]:
    """The commands whose processes are audited."""
    commands = [[sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]]
    for script in sorted((REPO_ROOT / "examples").glob("*.py")):
        commands.append([sys.executable, str(script.relative_to(REPO_ROOT))])
    commands.append([sys.executable, "-m", "repro.serve", "--smoke"])
    return commands


def main() -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    started = time.perf_counter()
    failed = []
    with tempfile.TemporaryDirectory(prefix="reach-audit-") as scratch:
        hook_dir = Path(scratch, "hook")
        out_dir = Path(scratch, "out")
        hook_dir.mkdir()
        out_dir.mkdir()
        (hook_dir / "sitecustomize.py").write_text(
            _SITECUSTOMIZE.replace("__PREFIX__", repr(str(PACKAGE) + os.sep))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(hook_dir), str(SRC), env.get("PYTHONPATH")])
        )
        env["REACH_AUDIT_OUT"] = str(out_dir)
        # Profiled tests run slower than the watchdog's default allows.
        env.setdefault("REPRO_TEST_TIMEOUT", "600")
        for command in runs():
            begun = time.perf_counter()
            done = subprocess.run(command, cwd=REPO_ROOT, env=env)
            took = time.perf_counter() - begun
            print(f"[{took:6.1f} s] exit {done.returncode}: {' '.join(command[1:])}")
            if done.returncode != 0:
                failed.append(command)
        entered: set[tuple[str, int]] = set()
        for dump in out_dir.iterdir():
            for line in dump.read_text().splitlines():
                filename, first = line.split("\t")
                entered.add((filename, int(first)))

    defined, abstract = defined_functions()
    unentered = sorted(
        name for key, name in defined.items() if key not in entered
    )
    names = set(defined.values())
    unknown = sorted(name for name in ALLOW if name not in names)
    reached = sorted(
        name for key, name in defined.items() if key in entered and name in ALLOW
    )
    allowed = {name: allowance(name, abstract) for name in unentered}
    missing = [name for name, reason in allowed.items() if reason is None]
    print(
        f"{len(defined)} functions, {len(defined) - len(unentered)} entered, "
        f"{len(unentered) - len(missing)} allowed unentered, "
        f"{len(missing)} never entered; {time.perf_counter() - started:.0f} s"
    )
    for name, reason in allowed.items():
        if reason is not None:
            print(f"allowed unentered: {name} -- {reason}")
    for name in reached:
        print(f"allowed but entered (the allowance may go): {name}")
    for name in unknown:
        print(f"allow-list names no function: {name}")
    for name in missing:
        print(f"never entered: {name}")
    for command in failed:
        print(f"failed: {' '.join(command[1:])}")
    return 1 if missing or unknown or failed else 0


if __name__ == "__main__":
    sys.exit(main())
