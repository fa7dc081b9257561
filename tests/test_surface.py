"""Every public function, class and method of `tgh` has a caller in the
program (`src/`) or the benchmark (`bench/`).

A name only the tests call is surface to maintain that no run uses: delete
it or move it into the tests. The scan is by name, so a caller of any
attribute or function with the same name counts, and so does a string that
spells it, such as the entry-point names `bench/spans.py` wraps by
`setattr`.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Kept although no run calls them: the hierarchy tests read the per-level
# counts through `occupancy`, and the segment layout is private. `ssim` is the
# whole-image SSIM that the SSIM tests check against their dense reference;
# `losses.loss` runs the same kernel, `ssim._ssim_box`, on the support box it
# finds once for both terms.
TEST_INSPECTION = {
    "TemporalHierarchy.occupancy",      # Gaussians per level and per occupied segment
    "ssim",                             # mean SSIM and its gradient, whole image
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
