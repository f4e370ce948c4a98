"""The package and its tests import only what the project declares.

The runtime depends on numpy alone and the test extra adds pytest and
hypothesis; anything else that happens to be installed (scipy, say) must
not creep in through an import.  Modules of the package share only public
names: none imports an underscore-named name from a sibling, and every
underscore-named name a module or its classes define is used by the
package.  A radius call, a Crawford call and a catalog run leave numpy.ma
unimported, and importing the package leaves the process-pool modules
unimported.
"""

import ast
import os
import subprocess
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


def module_private_names(tree: ast.Module):
    """The underscore-named, non-dunder names a module defines at its top
    level (functions, classes and assigned names) and the methods its
    top-level classes define."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            methods = [m.name for m in node.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))]
            names = [node.name, *methods]
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from (name for name in names if name.startswith("_") and not name.endswith("__"))


def test_every_private_name_is_used_by_the_package():
    # A private helper or method that only the tests call (or patch) is dead
    # code: each one must be read (a Name or an Attribute) or imported by
    # the package itself.
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sorted((ROOT / "src").rglob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                used.update(alias.name.rpartition(".")[2] for alias in node.names)
    defined = [(str(path.relative_to(ROOT)), name) for path, tree in trees.items() for name in module_private_names(tree)]
    assert len(defined) > 20 and ("src/semiradius/catalog.py", "_build") in defined
    assert [(path, name) for path, name in defined if name not in used] == []


# Run in a fresh interpreter: numpy.ma costs about 10 ms and 2 MB to import.
NO_MASKED_ARRAYS = """
import sys
import numpy as np
import semiradius
from semiradius.catalog import run_all
from semiradius.sampler import SampleConfig, sample_bundle, sample_space

rng = np.random.default_rng(0)
for n in (8, 32):
    semiradius.numerical_radius(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
U = np.linalg.qr(rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16)))[0]
semiradius.crawford_number(U @ (np.diag(np.ones(15), 1) + 1.5 * np.eye(16)) @ U.conj().T)
space = sample_space(SampleConfig(dim=4, rank=3, master_seed=1))
run_all(space, sample_bundle(space, seed=2))
print("numpy.ma" in sys.modules)
"""


def run_fresh(code: str) -> list[str]:
    """The words a fresh interpreter prints running code with the package
    on its path."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True).stdout.split()


def test_solvers_and_catalog_leave_masked_arrays_unimported():
    assert run_fresh(NO_MASKED_ARRAYS) == ["False"]


def test_package_import_leaves_process_pools_unimported():
    # Only campaigns with more than one worker use a pool, and its modules
    # take about as long to import as the package itself.
    code = "import sys, semiradius; print(*(m in sys.modules for m in ('multiprocessing', 'concurrent.futures')))"
    assert run_fresh(code) == ["False", "False"]
