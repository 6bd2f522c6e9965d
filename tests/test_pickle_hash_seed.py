"""Pickles carry no process-local hash.

``hash()`` of a string is salted per process (``PYTHONHASHSEED``), and
every worker process has its own salt.  A formula or structure that
carried its memoized hash across a pickle would compare equal to a
freshly built one and still miss it in every dict and set.  Both sides
run in subprocesses, so the two salts differ whatever this process uses.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")

BUILD = """
from repro.logic.parser import parse_query
from repro.structures.structure import Structure

structure = Structure.from_relations({"E": [("a", "b"), ("b", "c")]})
formula = parse_query("exists z. (E(x, z) & E(z, y))").to_pp()
"""

DUMP = BUILD + """
import pickle, sys

bare = pickle.dumps(formula)
hash(structure), hash(formula), structure.fingerprint(), formula.core()
# The memoized core does not travel: the job is the bare formula's.
assert pickle.dumps(formula) == bare
sys.stdout.buffer.write(pickle.dumps((structure, formula)))
"""

LOAD = BUILD + """
import pickle, sys

loaded_structure, loaded_formula = pickle.loads(sys.stdin.buffer.read())
assert loaded_structure == structure and loaded_structure in {structure}
assert loaded_formula == formula and loaded_formula in {formula}
assert loaded_structure.fingerprint() == structure.fingerprint()
assert loaded_formula.core() == formula.core()
print("ok")
"""


def _python(code: str, seed: int, stdin: bytes = b"") -> bytes:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=str(seed))
    result = subprocess.run(
        [sys.executable, "-c", code],
        input=stdin,
        env=env,
        capture_output=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_an_unpickled_formula_and_structure_hash_under_another_seed():
    payload = _python(DUMP, seed=1)
    assert _python(LOAD, seed=2, stdin=payload).strip() == b"ok"
