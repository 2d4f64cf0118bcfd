"""The package promises to use only the standard library."""

import ast
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "logtrig"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_absolute_imports_are_standard_library(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    tops = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            tops.add(node.module.split(".")[0])
    assert tops <= sys.stdlib_module_names, sorted(tops - sys.stdlib_module_names)


def test_cold_start_loads_no_dataclasses_inspect_or_csv():
    # -S: no site hook may preload modules; the child puts src/ on its path
    code = ("import sys; sys.path.insert(0, %r)\n"
            "import logtrig, logtrig.cli\n"
            "logtrig.catalog()\n"
            "print(sorted({'dataclasses', 'inspect', 'csv'} & set(sys.modules)))"
            % str(SRC.parent))
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out == "[]\n"
