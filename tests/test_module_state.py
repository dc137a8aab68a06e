"""No module under ``src/repro`` rebinds its own globals.

How a run executes (worker counts, result cache, node backend) travels
with the :class:`~repro.sim.sweep.SweepExecutor` that runs it.  A
``global`` statement is how a process-wide default creeps back in, so
none is allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def test_no_global_statement_in_src():
    modules = sorted(SRC.rglob("*.py"))
    assert modules, SRC
    offenders = [
        f"{path.relative_to(SRC.parent)}:{node.lineno}: global {', '.join(node.names)}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Global)
    ]
    assert offenders == []
