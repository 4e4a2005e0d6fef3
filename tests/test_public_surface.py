"""The names the README and the benchmark take from ``formcone`` must stay."""

import ast
import contextlib
import io
import pkgutil
import re
from pathlib import Path

import formcone

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
