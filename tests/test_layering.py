"""Package modules use each other only through public names, and the
experiment and command-line layers estimate only through `Pipeline`."""

import ast
from pathlib import Path

import mellin_deconv

PACKAGE_DIR = Path(mellin_deconv.__file__).resolve().parent


def _private_imports(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        in_package = node.level > 0 or (node.module or "").split(".")[0] == "mellin_deconv"
        if in_package:
            found += [
                f"{path.name}:{node.lineno} imports {alias.name}"
                for alias in node.names
                if alias.name.startswith("_")
            ]
    return found


def test_no_module_imports_private_names_of_another():
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    assert modules
    found = [line for path in modules for line in _private_imports(path)]
    assert found == []


def _foreign_private_attributes(path: Path) -> list:
    """Private, non-dunder attributes read off anything but ``self`` or ``cls``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Attribute) or not node.attr.startswith("_"):
            continue
        if node.attr.startswith("__") and node.attr.endswith("__"):
            continue
        if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
            continue
        found.append(f"{path.name}:{node.lineno} reads {ast.unparse(node)}")
    return found


def test_no_module_reads_private_attributes_of_another_object():
    # an import rule alone misses `obj._name`: a module may use the private
    # state of its own instances only, through ``self`` or ``cls``
    modules = sorted(PACKAGE_DIR.glob("*.py"))
    found = [line for path in modules for line in _foreign_private_attributes(path)]
    assert found == []


#: building blocks of the estimation chain that only `selection.Pipeline`
#: (and the functions it replaces) may assemble
PIPELINE_PARTS = {
    "empirical_mellin_on_grid", "on_grid", "RidgeBank", "CutoffBank", "InversionPlan",
}


def _pipeline_part_calls(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
        if name in PIPELINE_PARTS:
            found.append(f"{path.name}:{node.lineno} calls {name}")
    return found


def test_risk_and_cli_estimate_only_through_the_pipeline():
    found = [
        line
        for module in ("risk.py", "cli.py")
        for line in _pipeline_part_calls(PACKAGE_DIR / module)
    ]
    assert found == []


#: `Pipeline` and bank members below the estimate: the experiments and the
#: command line estimate only through `select`, `fit`, `estimate` and
#: `multiplier`
BELOW_THE_ESTIMATE = {"invert", "bank", "row", "rows"}


def _uses_below_the_estimate(path: Path) -> list:
    return [
        f"{path.name}:{node.lineno} uses .{node.attr}"
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Attribute) and node.attr in BELOW_THE_ESTIMATE
    ]


def test_risk_and_cli_estimate_only_through_select_fit_estimate_and_multiplier():
    found = [
        line
        for module in ("risk.py", "cli.py")
        for line in _uses_below_the_estimate(PACKAGE_DIR / module)
    ]
    assert found == []


def _functions_calling(name: str) -> list:
    found = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            calls = [
                node
                for node in ast.walk(fn)
                if isinstance(node, ast.Call)
                and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
            ]
            if calls:
                found.append(f"{path.name}:{fn.name}")
    return found


def test_one_zero_probe_polishes_grid_minima():
    # the probe-and-polish search is written once, in `mellin.probe_minimum`
    assert _functions_calling("golden_section_min") == ["mellin.py:probe_minimum"]


def _fft_uses(path: Path) -> list:
    """Calls through numpy's fft module, and imports from it."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and "fft" in ast.unparse(node.func).split("."):
            found.append(f"{path.name}:{node.lineno} calls {ast.unparse(node.func)}")
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
            if any("fft" in name.split(".") for name in names):
                found.append(f"{path.name}:{node.lineno} imports fft")
    return found


def test_only_mellin_runs_ffts():
    # both non-uniform FFTs, and with them every FFT of the package, live in `mellin`
    found = {path.name for path in sorted(PACKAGE_DIR.glob("*.py")) if _fft_uses(path)}
    assert found == {"mellin.py"}


def _catalog_id_comparisons(path: Path) -> list:
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Compare):
            continue
        if not any(isinstance(op, (ast.Eq, ast.NotEq, ast.In, ast.NotIn)) for op in node.ops):
            continue
        found += [
            f"{path.name}:{node.lineno} compares against {literal.value!r}"
            for operand in (node.left, *node.comparators)
            for literal in ast.walk(operand)
            if isinstance(literal, ast.Constant) and literal.value in mellin_deconv.CATALOG_IDS
        ]
    return found


def test_catalog_ids_are_dispatched_only_through_the_table():
    # every fact about a built-in density is read from its `model.CATALOG`
    # record, so a new density is one record and no if-chain can miss it
    found = [line for path in sorted(PACKAGE_DIR.glob("*.py"))
             for line in _catalog_id_comparisons(path)]
    assert found == []
