"""The names the README and the benchmark take from ``formcone`` must stay."""

import ast
import contextlib
import inspect
import io
import pkgutil
import re
from pathlib import Path

import formcone
from formcone import (
    QQ,
    FiltrationContext,
    GradedQuotientPresentation,
    PolynomialRing,
    PresentedIdeal,
)

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["False", "(0, 1)"]


def test_benchmark_names_resolve():
    workloads = (ROOT / "perfbench" / "workloads.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bfc\.([A-Za-z_]\w*)", workloads))
    assert names, "no fc.<name> reads found"
    assert [n for n in sorted(names) if not hasattr(formcone, n)] == []


def test_package_ships_no_test_oracle():
    modules = {m.name for m in pkgutil.iter_modules(formcone.__path__)}
    assert "cli" in modules
    assert "oracle" not in modules


def test_package_imports_no_random():
    """Every answer is exact and deterministic, so no module draws from a
    pseudorandom generator."""
    package = ROOT / "src" / "formcone"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}: {name}" for name in names if name.split(".")[0] == "random"]
    assert found == []


def test_modules_import_no_private_names_from_each_other():
    """A formcone module takes only public names from another one: a name
    with a leading underscore stays inside the module that defines it."""
    package = ROOT / "src" / "formcone"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and (node.module or "").split(".")[0] != "formcone":
                continue
            found += [f"{path.name}: {alias.name}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


def test_modules_read_no_private_attributes_of_each_other():
    """A formcone module reads an attribute ``x._name`` only when it defines
    ``_name`` itself, as a function, a class or an attribute it assigns:
    another module's private state stays private."""
    package = ROOT / "src" / "formcone"
    found = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined, read = set(), []
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    defined.add(node.attr)
                elif node.attr.startswith("_") and not node.attr.endswith("__"):
                    read.append(node)
        found += [f"{path.name}:{attr.lineno}: {ast.unparse(attr)}"
                  for attr in read if attr.attr not in defined]
    assert found == []


def test_graded_layer_imports_nothing_from_filtration():
    """``filtration`` builds graded presentations and imports ``graded``,
    never the other way round."""
    tree = ast.parse((ROOT / "src" / "formcone" / "graded.py").read_text(encoding="utf-8"))
    imported = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert not imported & {"filtration", "formcone.filtration"}


def test_graded_presentation_is_a_plain_value():
    """A presentation is built from (ring, weights, ideal) alone and keeps no
    context; the one method that needed it is the context's own."""
    parameters = inspect.signature(GradedQuotientPresentation).parameters
    assert list(parameters) == ["ring", "weights", "ideal"]
    ring = PolynomialRing(QQ, ("x", "y"))
    x, y = ring.gens()
    pres = GradedQuotientPresentation(ring, (0, 1), PresentedIdeal(ring, (), (x * y,)))
    for gone in ("context", "y_offset", "is_y_homogeneous", "variable_cone"):
        assert not hasattr(pres, gone)
    assert inspect.isfunction(FiltrationContext.variable_cone)
    assert GradedQuotientPresentation.__module__ == "formcone.graded"
    assert formcone.colon_chain_regularity.__module__ == "formcone.criterion"


def test_graded_helpers_derive_what_the_context_holds():
    """The graded helpers take the context (or a graded element, which holds
    its presentation) and read the form presentation, the system images
    and initial degrees off it; none of them takes them as arguments."""
    from formcone.criterion import checked_depth, checked_dim, checked_grades

    def names(fn):
        return list(inspect.signature(fn).parameters)

    assert names(FiltrationContext.graded_image) == ["self", "a", "degree"]
    assert names(formcone.system_images) == ["ctx"]
    assert names(checked_depth) == ["ctx"]
    assert names(checked_dim) == ["ctx"]
    assert names(checked_grades) == ["ctx"]
    assert names(formcone.is_regular_element) == ["b"]
    assert names(formcone.colon_chain_regularity) == ["ctx", "b", "n_max"]
    assert names(formcone.Polynomial.homogeneous_part) == ["self", "degree"]
    assert not hasattr(FiltrationContext, "q_power_products")
