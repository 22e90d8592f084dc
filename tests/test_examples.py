"""The examples keep up with the library: nothing under `tests/` or
`src/` imports them, so a moved constructor would rot one silently."""

import ast
import importlib
import importlib.util
import pathlib

import pytest

EXAMPLES = sorted(
    (pathlib.Path(__file__).resolve().parent.parent / "examples")
    .glob("*.py"))


def test_examples_are_found():
    assert "planetary_event_sim" in {path.stem for path in EXAMPLES}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_imports_resolve(path):
    """The file parses and every name it imports from `repro` exists
    (AST only: the example is not executed)."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    importlib.import_module(alias.name)
        elif (isinstance(node, ast.ImportFrom)
              and node.module.split(".")[0] == "repro"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                if not hasattr(module, alias.name):
                    importlib.import_module(f"{node.module}.{alias.name}")


def test_planetary_event_sim_runs(capsys):
    """The event-engine example end to end, in process (~1 s)."""
    path = next(p for p in EXAMPLES if p.stem == "planetary_event_sim")
    spec = importlib.util.spec_from_file_location(path.stem, path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    example.main(["--minutes", "0.2"])
    out = capsys.readouterr().out
    assert "across 11 regions" in out
    assert "control epochs        : 1" in out
