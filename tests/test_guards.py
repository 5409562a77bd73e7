"""Guards on what lives outside the package: the benchmark's traced units
and the README's library sketch must keep working against the source, and
the traced `bound` unit must keep writing the CLI's bytes."""

import ast
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

from test_golden import CONFIGS

from bernapprox import config as cfgmod
from bernapprox.bounds import hdt_bound
from bernapprox.experiments import Study

ROOT = Path(__file__).resolve().parent.parent


def bernapprox_imports(path: Path) -> list[tuple[str, str]]:
    """(module, name) for every bernapprox import in a file; name is None
    for a plain `import bernapprox.x`."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "bernapprox":
            found.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend((alias.name, None) for alias in node.names
                         if alias.name.split(".")[0] == "bernapprox")
    return found


def resolves(module: str, name) -> bool:
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    # a submodule not imported yet
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


def test_benchmark_unit_imports_resolve():
    # perfbench/unit.py recomposes the CLI from the layers' public functions;
    # a name deleted from the package would break it only at benchmark time
    names = bernapprox_imports(ROOT / "perfbench" / "unit.py")
    assert len(names) >= 20
    assert [(mod, name) for mod, name in names if not resolves(mod, name)] == []


def test_import_guard_catches_a_missing_name():
    assert not resolves("bernapprox.tails", "atf_curve")
    assert resolves("bernapprox", "config")


def readme_sketch() -> str:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    m = re.search(r"^## Library sketch\n\n```python\n(.*?)^```", text, re.S | re.M)
    assert m, "README has no Library sketch code block"
    return m.group(1)


@pytest.mark.filterwarnings("error")
def test_readme_library_sketch_runs():
    exec(compile(readme_sketch(), "README.md", "exec"), {})


@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_benchmark_closed_form_matches_the_cli_bit_for_bit(config):
    # perfbench's traced `bound` unit writes hdt_bound(holder, curve, n).value
    # with its default z_max; the CLI writes Study.closed_form(n)
    study = Study(cfgmod.resolve(overrides=cfgmod.parse_overrides(CONFIGS[config][1::2])))
    assert study.holder is not None
    for n in study.cfg.n_grid:
        assert hdt_bound(study.holder, study.curve, n).value == study.closed_form(n)
