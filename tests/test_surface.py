"""Every public function, class and method of `tgh` has a caller in the
program (`src/`) or the benchmark (`bench/`), and no module of `tgh` reads
another one's private names.

A name only the tests call is surface to maintain that no run uses: delete
it or move it into the tests. The scan is by name, so a caller of any
attribute or function with the same name counts, and so does a string that
spells it, such as the entry-point names `bench/spans.py` wraps by
`setattr`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kept although no run calls it: the hierarchy tests read the per-level
# counts through `occupancy`, and the segment layout is private. (The SSIM
# tests need no public name: they run `losses.loss`'s own kernel,
# `_support_box` and `_ssim_box`, on whole images.)
TEST_INSPECTION = {
    "TemporalHierarchy.occupancy",      # Gaussians per level and per occupied segment
}


def used_names():
    """Every name, attribute and identifier-like string in src/ and bench/."""
    names = set()
    for path in [*ROOT.glob("src/**/*.py"), *ROOT.glob("bench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def public_definitions():
    """Qualified names of the public top-level functions and classes of
    src/tgh and of their public methods."""
    out = []
    for path in sorted(ROOT.glob("src/tgh/*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
                out.append(node.name)
                if isinstance(node, ast.ClassDef):
                    out += [f"{node.name}.{sub.name}" for sub in node.body
                            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]
    return out


def test_every_public_name_is_used_by_the_program_or_the_bench():
    definitions = public_definitions()
    assert TEST_INSPECTION <= set(definitions)
    used = used_names()
    unused = [name for name in definitions
              if name.rpartition(".")[2] not in used and name not in TEST_INSPECTION]
    assert unused == []


def private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_module_reads_another_modules_private_names():
    """No module of src/tgh imports a `_`-prefixed name from another tgh
    module, or reads one through an alias of a tgh module: a private name's
    callers are its own module's, and the tests'."""
    modules = {path.stem for path in ROOT.glob("src/tgh/*.py")}
    crossings = []
    for path in sorted(ROOT.glob("src/tgh/*.py")):
        tree = ast.parse(path.read_text())
        aliases = set()     # names this module binds to a tgh module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                    node.level > 0 or node.module.partition(".")[0] == "tgh"):
                for alias in node.names:
                    if private(alias.name):
                        crossings.append(f"{path.stem}: from {node.module} import {alias.name}")
                    elif node.module in (None, "tgh") and alias.name in modules:
                        aliases.add(alias.asname or alias.name)
            elif isinstance(node, ast.Import):
                aliases.update(alias.asname for alias in node.names
                               if alias.name.startswith("tgh.") and alias.asname)
        crossings += [f"{path.stem}: {node.value.id}.{node.attr}" for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                      and node.value.id in aliases and private(node.attr)]
    assert crossings == []
