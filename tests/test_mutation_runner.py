"""The committed mutation runner, ``tests/mutation/run.py``: every mutant
still matches its module, one fast mutant is killed, and a survivor or a
stale snippet fails the run. The full run is too slow for this suite; run
``python tests/mutation/run.py`` after changing code that a mutant names."""

import importlib.util
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src" / "hiertax"

_spec = importlib.util.spec_from_file_location("mutation_run", HERE / "mutation" / "run.py")
runner = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = runner  # dataclasses look their module up there
_spec.loader.exec_module(runner)


def test_every_mutant_matches_its_module_once():
    assert len({m.name for m in runner.MUTANTS}) == len(runner.MUTANTS) >= 8
    for m in runner.MUTANTS:
        assert (SRC / m.module).read_text().count(m.snippet) == 1, m.name
        assert m.tests and all((HERE / name).is_file() for name in m.tests), m.name


def test_a_mutant_is_killed():
    (mutant,) = (m for m in runner.MUTANTS if m.name == "cce_loss takes non-finite logits")
    outcome = runner.run(mutant)
    assert outcome.startswith("killed by tests/test_losses.py::TestCCE::test_rejects_non_finite_logits")


def test_a_survivor_or_a_stale_snippet_fails_the_run(monkeypatch, capsys):
    same = runner.Mutant(
        "same value", "losses.py", "EPSILON = 1e-12\n", "EPSILON = 1.0e-12\n",
        ("test_numeric_assumptions.py",),
    )
    stale = runner.Mutant("stale", "losses.py", "EPSILON = 1e-13\n", "", ("test_losses.py",))
    monkeypatch.setattr(runner, "MUTANTS", [same, stale])
    assert runner.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(": ", 1)[1] for line in lines[:2]] == ["survived", "no match"]
    assert lines[2].startswith("2 of 2 mutants not killed")
