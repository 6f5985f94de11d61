"""Every name a library module imports is read somewhere in that module,
only ``coherence.block_workers`` forks, exits or waits for a process, and
only ``fields._read_payload`` and ``coherence.shared_zeros`` map memory.

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


# Memory maps that only two functions may make: ``fields._read_payload``
# maps field files, which writers replace rather than truncate, and
# ``coherence.shared_zeros`` maps anonymous memory for ``run_blocks``. A
# second file reader could skip the replace-on-write contract and die of
# SIGBUS when a field it maps is rewritten.
MAP_HELPERS = {
    "fields.py": {"_read_payload": "file"},
    "coherence.py": {"shared_zeros": "anonymous"},
}


def map_calls(source: str) -> list[str]:
    """Each memory map in ``source`` as ``"line N: <top-level name> <kind>"``:
    ``np.memmap`` and ``mmap_mode=`` map a file, as does ``mmap.mmap`` on
    any descriptor but a literal -1, which maps anonymous memory."""
    tree = ast.parse(source)

    def aliases(module: str, name: str) -> tuple[set, set]:
        modules, names = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules |= {a.asname or a.name for a in node.names if a.name == module}
            elif isinstance(node, ast.ImportFrom) and node.module == module:
                names |= {a.asname or a.name for a in node.names if a.name == name}
        return modules, names

    def is_map(func, module: tuple[set, set], name: str) -> bool:
        modules, names = module
        return (isinstance(func, ast.Attribute) and func.attr == name
                and isinstance(func.value, ast.Name) and func.value.id in modules) or (
            isinstance(func, ast.Name) and func.id in names)

    numpy, mmap_ = aliases("numpy", "memmap"), aliases("mmap", "mmap")
    found = []
    for top in tree.body:
        owner = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if not isinstance(node, ast.Call):
                continue
            kind = None
            if is_map(node.func, mmap_, "mmap"):
                fd = node.args[0] if node.args else next(
                    (k.value for k in node.keywords if k.arg == "fileno"), None)
                anonymous = isinstance(fd, ast.UnaryOp) and isinstance(fd.op, ast.USub) and (
                    isinstance(fd.operand, ast.Constant) and fd.operand.value == 1)
                kind = "anonymous" if anonymous else "file"
            elif is_map(node.func, numpy, "memmap") or any(k.arg == "mmap_mode" for k in node.keywords):
                kind = "file"
            if kind:
                found.append((node.lineno, f"line {node.lineno}: {owner} {kind}"))
    return [line for _, line in sorted(found)]


def test_gate_sees_memory_maps():
    source = (
        "import mmap as m\nimport numpy as np\nfrom mmap import mmap as mm\n"
        "def shared_zeros():\n    return m.mmap(-1, 8)\n"
        "def _read_payload(fd):\n    return mm(fd, 8, access=m.ACCESS_READ)\n"
        "def other(path):\n    np.load(path, mmap_mode='r')\n    return np.memmap(path), m.mmap(fileno=-1, length=1)\n"
        "view = np.memmap('f')\n"
    )
    assert map_calls(source) == [
        "line 5: shared_zeros anonymous", "line 7: _read_payload file",
        "line 9: other file", "line 10: other anonymous", "line 10: other file",
        "line 11: <module> file",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_only_the_map_helpers_map_memory(path):
    allowed = MAP_HELPERS.get(path.name, {})
    for line in map_calls(path.read_text()):
        _, _, owner, kind = line.split()
        assert allowed.get(owner) == kind, line


def test_the_map_helpers_are_where_the_maps_are():
    found = {path.name: map_calls((SRC / path.name).read_text()) for path in MODULES}
    made = {name: {line.split()[2] for line in lines} for name, lines in found.items() if lines}
    assert made == {name: set(helpers) for name, helpers in MAP_HELPERS.items()}
