"""Every name a library module imports is read somewhere in that module,
and only ``coherence.block_workers`` forks, exits or waits for a process.

No linter ships with the project's toolchain, so this is the unused-import
gate: ``__init__.py`` re-exports, and ``from __future__`` imports change the
compiler, so both are left out.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "hiertax"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in read]


def test_gate_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b as c\nsys.exit(0)\n") == [
        "line 1: os", "line 3: c",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# Process control that only ``coherence.block_workers`` may use: a fork
# anywhere else would run beside the helper's reaping and kill rules.
# ``run_blocks``, which the test names below keep, is one round of it.
PROCESS_CALLS = {"fork", "_exit", "waitpid"}
FORK_HELPER = "block_workers"


def process_calls(source: str, helper: str | None = None) -> list[str]:
    """Uses of ``os.fork``, ``os._exit`` and ``os.waitpid`` outside the
    top-level function named ``helper``."""
    tree = ast.parse(source)
    inside = set()
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == helper:
            inside.update(map(id, ast.walk(node)))
    os_names = {
        alias.asname or alias.name
        for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "os"
    }
    found = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if (isinstance(node, ast.Attribute) and node.attr in PROCESS_CALLS
                and isinstance(node.value, ast.Name) and node.value.id in os_names):
            found.append(f"line {node.lineno}: os.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            found += [f"line {node.lineno}: os.{a.name}" for a in node.names if a.name in PROCESS_CALLS]
    return found


def test_gate_sees_process_calls_outside_the_helper():
    source = (
        "import os as o\nfrom os import waitpid\n"
        "def run_blocks():\n    o.waitpid(o.fork(), 0)\n"
        "def other():\n    o._exit(0)\n"
    )
    assert process_calls(source, helper="run_blocks") == ["line 2: os.waitpid", "line 6: os._exit"]
    assert len(process_calls(source)) == 4


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_run_blocks_forks(path):
    helper = FORK_HELPER if path.name == "coherence.py" else None
    assert process_calls(path.read_text(), helper) == []


def test_run_blocks_is_where_the_process_calls_are():
    found = process_calls((SRC / "coherence.py").read_text())
    assert {line.rsplit(".", 1)[1] for line in found} == PROCESS_CALLS
    assert process_calls((SRC / "coherence.py").read_text(), FORK_HELPER) == []
