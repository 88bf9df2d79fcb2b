"""The package root exports only what the library, the demos or the benchmark use."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# root exports that nothing outside the tests calls, kept because a test
# checks other code against them: the dense S of the block assembly, the
# Laplacian of the diameter certificate, the per-ball extraction of the
# extent search, the every-ball-rigid certificate, the centralized field
# and potential of the gradient oracle, and the real-payload engine run
REFERENCES = (
    "symmetric_rigidity_matrix",
    "laplacian_matrix",
    "extract_subframework",
    "verify_extents",
    "velocity_field",
    "total_potential",
    "decentralized_velocity",
)


def root_exports():
    tree = ast.parse((ROOT / "src" / "rigidnet" / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) for alias in node.names]


def references(tree):
    """Every name, attribute and identifier-like string a module uses,
    except a top-level definition's mention of its own name."""
    used = set()
    for stmt in tree.body:
        found = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and node.value.isidentifier()):
                # trace targets name their functions as strings
                found.add(node.value)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            found.discard(stmt.name)
        used |= found
    return used


def test_every_root_export_has_a_user_outside_the_tests():
    files = [p for p in (ROOT / "src" / "rigidnet").glob("*.py")
             if p.name != "__init__.py"]
    files += [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").glob("*.py")]
    used = set()
    for path in files:
        used |= references(ast.parse(path.read_text()))
    unused = [name for name in root_exports()
              if name not in used and name not in REFERENCES]
    assert unused == []
    # a kept reference is still exported
    assert set(REFERENCES) <= set(root_exports())


# the configuration objects whose every field is a settable value
CONFIGS = ("ControlParams", "WorldConfig", "ScenarioConfig")


def _defaulted(fn):
    args = fn.args
    return (len(args.defaults)
            + sum(d is not None for d in args.kw_defaults))


def settable_values():
    """Fields of the three configuration objects, plus the defaulted
    parameters of every public function and non-dunder method outside the
    command line front end."""
    count = 0
    for path in sorted((ROOT / "src" / "rigidnet").glob("*.py")):
        if path.name == "cli.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, ast.FunctionDef)
                    and not stmt.name.startswith("_")):
                count += _defaulted(stmt)
            elif isinstance(stmt, ast.ClassDef):
                for item in stmt.body:
                    if stmt.name in CONFIGS and isinstance(item, ast.AnnAssign):
                        count += 1
                    elif (isinstance(item, ast.FunctionDef)
                          and not (item.name.startswith("__")
                                   and item.name.endswith("__"))):
                        count += _defaulted(item)
    return count


def test_settable_value_count():
    # a new knob changes this number in the open
    assert settable_values() == 50
