"""The package and its tests import only what the project declares.

The runtime depends on numpy alone and the test extra adds pytest and
hypothesis; anything else that happens to be installed (scipy, say) must
not creep in through an import.  Modules of the package share only public
names: none imports an underscore-named name from a sibling.
"""

import ast
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DECLARED = {"numpy", "semiradius", "pytest", "hypothesis"}


def imported_packages(path: Path):
    """The top-level package of every absolute import in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        yield from (name.partition(".")[0] for name in names)


def test_imports_are_standard_library_or_declared():
    files = sorted([*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").rglob("*.py")])
    assert len(files) > 20
    allowed = set(sys.stdlib_module_names) | DECLARED
    stray = [
        (str(path.relative_to(ROOT)), name) for path in files for name in imported_packages(path) if name not in allowed
    ]
    assert not stray


def test_modules_import_no_private_names_from_siblings():
    files = sorted((ROOT / "src").rglob("*.py"))
    private = [
        (str(path.relative_to(ROOT)), node.module, alias.name)
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.startswith("__")
    ]
    assert not private
