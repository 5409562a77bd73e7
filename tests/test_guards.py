"""Guards on the package's shape and on what lives outside it: every public
name has a caller, the benchmark's traced units and the README's library
sketch keep working against the source, and the traced `bound` unit keeps
writing the CLI's bytes."""

import ast
import importlib
import importlib.util
import math
import pkgutil
import re
import sys
from dataclasses import dataclass, field, fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from test_golden import CONFIGS

import bernapprox
from bernapprox import config as cfgmod
from bernapprox.bounds import BoundReport, hdt_bound
from bernapprox.errors import ParameterError
from bernapprox.experiments import ExperimentConfig, Study
from bernapprox.families import bernoulli_family, poisson_family
from bernapprox.functions import HolderSpec, Interval, builtin_catalog
from bernapprox.grids import GridSpec
from bernapprox.modulus import ModulusProfile
from bernapprox.operators import MAX_BERNSTEIN_N, sup_error
from bernapprox.tails import TailCurve

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "bernapprox"

# Public names kept with no caller in the program, each for its reason.
UNCALLED_ALLOWED = {
    "lower_bound_constant",  # G(alpha), the paper's lower-bound constant; reports carry only the ratio
}


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


def names_read(node) -> set[str]:
    """Every name a statement reads: bare names, attributes and imported names."""
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            found.update(alias.name for alias in sub.names)
    return found


def registered_command(node) -> bool:
    """A click subcommand: its group calls it, by the @<group>.command() decorator."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute) and d.func.attr == "command"
               for d in node.decorator_list)


def uncalled_public_names() -> set[str]:
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")]
    callers = [*modules, ast.parse((ROOT / "perfbench" / "unit.py").read_text(encoding="utf-8")),
               ast.parse(readme_sketch())]
    reads = [(stmt, names_read(stmt)) for tree in callers for stmt in tree.body]
    return {
        node.name for tree in modules for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
        and not registered_command(node)
        and not any(node.name in seen for stmt, seen in reads if stmt is not node)
    }


def test_every_public_name_has_a_caller():
    # a function that only tests call is a test oracle: it belongs in tests/
    assert uncalled_public_names() == UNCALLED_ALLOWED


def unread_config_fields(src: Path = SRC) -> set[str]:
    """ExperimentConfig fields that no code in the package reads, outside the
    class that declares and checks them and config.py, which maps keys to them."""
    unread = {f.name for f in fields(ExperimentConfig)}
    for path in src.glob("*.py"):
        if path.name == "config.py":
            continue
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if not (isinstance(stmt, ast.ClassDef) and stmt.name == "ExperimentConfig"):
                unread -= {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)}
    return unread


def test_every_config_field_has_a_reader():
    # a key that only its own check reads is a dead knob: it changes no number
    assert unread_config_fields() == set()


def test_config_reader_guard_catches_a_dead_field(tmp_path):
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        (tmp_path / path.name).write_text(text.replace("cfg.h_grid_size", "65"), encoding="utf-8")
    assert unread_config_fields(tmp_path) == {"h_grid_size"}


def undeclared_fields(cls=ExperimentConfig) -> set[str]:
    """Config fields that do not declare the values they accept as a
    (description, predicate) pair."""
    undeclared = set()
    for f in fields(cls):
        accepts = f.metadata.get("accepts")
        if not (isinstance(accepts, tuple) and len(accepts) == 2
                and isinstance(accepts[0], str) and callable(accepts[1])):
            undeclared.add(f.name)
    return undeclared


def test_every_config_field_declares_its_accepted_values():
    # the config's per-key checks and its --help listing both read these declarations
    assert undeclared_fields() == set()


def test_accepts_guard_catches_an_undeclared_field():
    @dataclass(frozen=True)
    class Extended(ExperimentConfig):
        extra: int = field(default=0, metadata={"key": "run.extra", "help": "a key that checks nothing"})

    assert undeclared_fields(Extended) == {"extra"}


def unread_constants(src: Path = SRC) -> set[str]:
    """Public upper-case module constants of the package that no code loads: in
    the package, the benchmark's traced unit or the README sketch.  Readers are
    found in the syntax tree, so a constant named only in a docstring is unread."""
    modules = [ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")]
    constants = {
        target.id for tree in modules for stmt in tree.body if isinstance(stmt, (ast.Assign, ast.AnnAssign))
        for target in (stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target])
        if isinstance(target, ast.Name) and target.id.isupper() and not target.id.startswith("_")
    }
    callers = [*modules, ast.parse((ROOT / "perfbench" / "unit.py").read_text(encoding="utf-8")),
               ast.parse(readme_sketch())]
    loaded = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in callers for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)
    }
    return constants - loaded


def test_every_public_constant_has_a_reader():
    # a constant nothing reads is a dead knob: it changes no number
    assert unread_constants() == set()


def test_constant_guard_catches_a_dead_constant(tmp_path):
    for path in SRC.glob("*.py"):
        text = path.read_text(encoding="utf-8")
        (tmp_path / path.name).write_text(text.replace("max(1, NU_BLOCK_BYTES //", "max(1, 2**17 //"),
                                          encoding="utf-8")
    assert "NU_BLOCK_BYTES" in (tmp_path / "tails.py").read_text(encoding="utf-8")
    assert unread_constants(tmp_path) == {"NU_BLOCK_BYTES"}


def unused_error_classes(src: Path = SRC) -> set[str]:
    """Classes of errors.py that no other module of the package raises, warns or
    catches: named in a raise, as the category of a warn call, or in an except."""
    declared = {node.name for node in ast.parse((src / "errors.py").read_text(encoding="utf-8")).body
                if isinstance(node, ast.ClassDef)}
    used = set()
    for path in src.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used |= names_read(node.exc)
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "warn":
                used |= set().union(*map(names_read, node.args[1:] + [kw.value for kw in node.keywords]))
            elif isinstance(node, ast.ExceptHandler) and node.type is not None:
                used |= names_read(node.type)
    return declared - used


def test_every_error_class_is_raised_warned_or_caught():
    # a class that only tests raise is a dead branch of the hierarchy
    assert unused_error_classes() == set()


def test_error_guard_catches_a_dead_class(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "errors.py", "a", encoding="utf-8") as fh:
        fh.write("\n\nclass OverflowComputationError(BernApproxError):\n"
                 '    """A log-MGF evaluation left the finite range."""\n')
    assert unused_error_classes(tmp_path) == {"OverflowComputationError"}


def stated_n_bounds(readme: str) -> dict[str, int]:
    """The largest n each place states: the README's `n in [1, 2^k]` and every
    `n ... up to 2^k`, and the accepts text of run.n_grid."""
    readme = " ".join(readme.split())  # a statement may wrap
    stated = {}
    for m in re.finditer(r"\bn in \[1, 2\^(\d+)\]|\bn (?:from 2\^\d+ )?up to 2\^(\d+)", readme):
        stated[f"README: {m.group(0)}"] = 2 ** int(m.group(1) or m.group(2))
    accepts = next(f.metadata["accepts"][0] for f in fields(ExperimentConfig) if f.name == "n_grid")
    stated[f"run.n_grid: {accepts}"] = int(re.search(r"\[1, (\d+)\]", accepts).group(1))
    return stated


def test_stated_n_bounds_agree_with_the_operators():
    # README, the config's accepts text and MAX_BERNSTEIN_N name one largest n
    stated = stated_n_bounds((ROOT / "README.md").read_text(encoding="utf-8"))
    assert any(k.startswith("README: n in [1,") for k in stated)
    assert {k: v for k, v in stated.items() if v != MAX_BERNSTEIN_N} == {}
    n_grid = next(f for f in fields(ExperimentConfig) if f.name == "n_grid")
    ok = n_grid.metadata["accepts"][1]
    assert ok((16, MAX_BERNSTEIN_N)) and not ok((16, MAX_BERNSTEIN_N + 1))


def test_n_bound_guard_catches_a_stale_readme():
    k = MAX_BERNSTEIN_N.bit_length() - 1
    readme = (ROOT / "README.md").read_text(encoding="utf-8").replace(f"[1, 2^{k}]", f"[1, 2^{k - 2}]")
    assert set(stated_n_bounds(readme).values()) == {2 ** (k - 2), MAX_BERNSTEIN_N}


def stated_accuracy(readme: str) -> dict[str, float]:
    """The README's measured errors of the exact sums: "at most X on the
    Szasz-MGF identity" and "Y on `B_n[x^2]`"."""
    readme = " ".join(readme.split())  # a statement may wrap
    szasz = re.search(r"at most (\S+) on the Szasz-MGF identity", readme)
    square = re.search(r"(\S+) on `B_n\[x\^2\]`", readme)
    return {"szasz": float(szasz.group(1)), "square": float(square.group(1))}


def measured_accuracy() -> dict[str, float]:
    """The worst error on 257 x: of B_n[x^2] against x^2 + x(1-x)/n for n = 2^4..2^22,
    and of the Szasz-MGF identity E exp(-N/n) = exp(nx expm1(-1/n)) for n = 2^4..2^16
    (2^17..2^22 would add about 2 s)."""
    square, szasz = 0.0, 0.0
    xs = np.linspace(1e-3, 1.0 - 1e-3, 257)
    for n in (2**e for e in range(4, MAX_BERNSTEIN_N.bit_length())):
        got = sup_error(builtin_catalog("square"), bernoulli_family(), n, xs).values
        square = max(square, float(np.max(np.abs(got - xs**2 - xs * (1.0 - xs) / n))))
    xs = np.linspace(1.0, 64.0, 257)
    for n in (2**e for e in range(4, 17)):
        got = sup_error(builtin_catalog("exp-decay"), poisson_family(), n, xs).values
        szasz = max(szasz, float(np.max(np.abs(got - np.exp(n * xs * math.expm1(-1.0 / n))))))
    return {"szasz": szasz, "square": square}


def stale_accuracy(stated: dict[str, float], measured: dict[str, float]) -> set[str]:
    """The figures that do not describe the measured errors: the B_n[x^2] figure is
    its worst error rounded up to two digits, and the Szasz-MGF figure, which
    also covers n up to 2^22, is at least the worst error up to 2^16."""
    unit = 10.0 ** (math.floor(math.log10(measured["square"])) - 1)
    rounded_up = float(f"{math.ceil(measured['square'] / unit) * unit:.1e}")
    return {name for name, stale in (("square", stated["square"] != rounded_up),
                                     ("szasz", stated["szasz"] < measured["szasz"])) if stale}


@pytest.fixture(scope="module")
def accuracy() -> dict[str, float]:
    return measured_accuracy()


def test_stated_accuracy_agrees_with_the_operators(accuracy):
    stated = stated_accuracy((ROOT / "README.md").read_text(encoding="utf-8"))
    assert stale_accuracy(stated, accuracy) == set()


def test_accuracy_guard_catches_a_stale_readme(accuracy):
    # twice the B_n[x^2] figure, and a Szasz-MGF figure below the measured error
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = stated_accuracy(readme)
    readme = re.sub(r"\S+(\s+on `B_n)", rf"{2 * stated['square']:.1e}\1", readme)
    readme = re.sub(r"(at\s+most\s+)\S+(\s+on\s+the\s+Szasz)", rf"\g<1>{accuracy['szasz'] / 2:.1e}\2", readme)
    assert stale_accuracy(stated_accuracy(readme), accuracy) == {"square", "szasz"}


# the CSV each subcommand writes, on a small config
CSV_OF = {"evaluate": "evaluate_n16.csv", "modulus": "modulus.csv", "tail": "tail.csv", "bound": "bound.csv"}


def stated_csv_headers(readme: str) -> dict[str, str]:
    """The CSV header the README's Subcommands paragraph gives each of CSV_OF's
    subcommands: the first comma-joined code span after "`cmd` (" ."""
    text = " ".join(readme.split("\nSubcommands:", 1)[1].split("\n\n", 1)[0].split())
    return {m.group(1): m.group(2) for m in re.finditer(r"`(\w+)` \(.*?`(\w+(?:,\w+)+)`", text)
            if m.group(1) in CSV_OF}


def stale_csv_headers(stated: dict[str, str], written: dict[str, str]) -> set[str]:
    return {cmd for cmd in CSV_OF if stated.get(cmd) != written[cmd]}


@pytest.fixture(scope="module")
def written_csv_headers(tmp_path_factory) -> dict[str, str]:
    from click.testing import CliRunner

    from bernapprox.cli import main

    small = ["grids.x_size=33", "grids.delta_size=9", "grids.z_size=33", "tail.lambda_size=301", "run.n_grid=16"]
    headers = {}
    for cmd, name in CSV_OF.items():
        out = tmp_path_factory.mktemp(cmd)
        res = CliRunner().invoke(main, [cmd, "--out", str(out)] + [a for kv in small for a in ("--set", kv)])
        assert res.exit_code == 0, res.output
        headers[cmd] = (out / name).read_text(encoding="utf-8").split("\n", 1)[0]
    return headers


def test_readme_csv_headers_are_the_written_ones(written_csv_headers):
    stated = stated_csv_headers((ROOT / "README.md").read_text(encoding="utf-8"))
    assert stale_csv_headers(stated, written_csv_headers) == set()


def test_csv_header_guard_catches_a_stale_readme(written_csv_headers):
    # a column the tail CSV no longer writes, and a bound column missing
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = readme.replace("`u,value`", "`u,value,half_width`").replace(",empirical,ratio`", ",ratio`")
    assert stale_csv_headers(stated_csv_headers(readme), written_csv_headers) == {"tail", "bound"}


def readme_keys(readme: str) -> set[str]:
    """The dotted config keys that the README names in its code spans, fenced blocks left out."""
    text = re.sub(r"^```.*?^```", "", readme, flags=re.S | re.M)
    sections = "|".join({key.split(".", 1)[0] for key in cfgmod.SCHEMA})
    return {m.group(1) for span in re.findall(r"`([^`]+)`", text)
            for m in re.finditer(rf"(?<![\w.])((?:{sections})\.\w+)", span)}


def test_readme_names_only_schema_keys():
    # a key deleted from the schema must leave the README with it
    keys = readme_keys((ROOT / "README.md").read_text(encoding="utf-8"))
    assert "tail.floor" in keys
    assert keys - set(cfgmod.SCHEMA) == set()


def test_readme_key_guard_catches_a_stale_key():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    readme = readme.replace("`tail.floor`", "`tail.x`", 1) + "\nSet `--set tail.lambda_cap=50`.\n"
    assert readme_keys(readme) - set(cfgmod.SCHEMA) == {"tail.x", "tail.lambda_cap"}


def third_party_imports(src: Path = SRC) -> set[str]:
    """Top-level modules that the package imports from outside itself and the standard library."""
    found = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
            elif isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
    return found - set(sys.stdlib_module_names) - {"__future__", "bernapprox"}


def declared_dependencies(pyproject: str) -> set[str]:
    """The distribution names of ``[project].dependencies``, version specifiers dropped."""
    block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.S | re.M).group(1)
    return set(re.findall(r'"([\w.-]+)', block))


def test_runtime_dependencies_are_the_imported_ones():
    # scipy serves only the tests' oracles, so it sits in the test extra
    declared = declared_dependencies((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    assert third_party_imports() == declared == {"numpy", "click"}


def test_dependency_guard_catches_a_stale_list(tmp_path):
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    stale = pyproject.replace('"numpy>=1.24",', '"numpy>=1.24",\n    "scipy>=1.10",')
    assert declared_dependencies(stale) - third_party_imports() == {"scipy"}
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "bounds.py", "a", encoding="utf-8") as fh:
        fh.write("\nfrom scipy.special import gammaincc\n")
    assert third_party_imports(tmp_path) - declared_dependencies(pyproject) == {"scipy"}


# numpy names that call BLAS, or whose module does
BLAS_NAMES = {"dot", "vdot", "inner", "matmul", "tensordot", "einsum", "linalg"}


def blas_uses(src: Path = SRC) -> set[tuple[str, str]]:
    """(module file, name) for each matrix product ``@`` in the package and each
    name of BLAS_NAMES that it reads, as a name or an attribute, or imports."""
    found = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
                found.add((path.name, "@"))
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, ast.ImportFrom):
                names.update((node.module or "").split("."))
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names.update(*(alias.name.split(".") for alias in node.names))
            found.update((path.name, name) for name in names & BLAS_NAMES)
    return found


def test_the_package_never_calls_blas():
    # the CLI loads numpy with one OpenBLAS thread, which costs nothing only while no
    # module computes through BLAS
    assert blas_uses() == set()


def test_blas_guard_catches_a_matrix_product(tmp_path):
    for path in SRC.glob("*.py"):
        (tmp_path / path.name).write_text(path.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "tails.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef _product(a, b):\n    return np.dot(a, b) + a @ b\n")
    with open(tmp_path / "bounds.py", "a", encoding="utf-8") as fh:
        fh.write("\nfrom numpy.linalg import norm\n")
    assert blas_uses(tmp_path) == {("tails.py", "dot"), ("tails.py", "@"), ("bounds.py", "linalg")}


def package_dataclasses() -> set[str]:
    """The names of the dataclasses that the modules of bernapprox define."""
    found = set()
    for info in pkgutil.iter_modules(bernapprox.__path__):
        module = importlib.import_module(f"bernapprox.{info.name}")
        found.update(name for name, obj in vars(module).items()
                     if isinstance(obj, type) and obj.__module__ == module.__name__ and is_dataclass(obj))
    return found


def test_records_are_named_tuples_but_two():
    # A frozen dataclass generates its methods when its module is imported, several times the
    # cost of a NamedTuple, so every record is a NamedTuple except two. ExperimentConfig's field
    # metadata is the config schema, and every report echoes asdict(cfg). ConvergenceTable is
    # rebuilt with replace(table, fit=...) by Study.table and by the benchmark's traced run.
    assert package_dataclasses() == {"ExperimentConfig", "ConvergenceTable"}


@pytest.mark.parametrize("record,fields", [
    (lambda: Interval(0.0, 1.0), {"b": -1.0}),
    (lambda: HolderSpec(1.0, 1.0), {"alpha": 1.5}),
    (lambda: bernoulli_family(0.05), {"x_domain": (0.5, 0.2)}),
    (lambda: GridSpec("uniform", 33), {"size": 1}),
    (lambda: ModulusProfile(np.array([0.0, 1.0]), np.array([0.0, 1.0]), 0.0), {"enclosure_slack": -1.0}),
    (lambda: TailCurve("flat", np.ones_like), {"kind": "flat", "params": None}),
    (lambda: BoundReport(1.0, (0.5, 2.0)), {"upper_stieltjes": 3.0}),
], ids=["Interval", "HolderSpec", "Family", "GridSpec", "ModulusProfile", "TailCurve", "BoundReport"])
def test_replace_runs_the_record_check(record, fields):
    # _replace builds through the record's own __new__, so it checks what a call checks
    rec = record()
    if isinstance(rec, TailCurve):
        assert rec._replace(**fields).params == {}
    else:
        with pytest.raises(ParameterError):
            rec._replace(**fields)


def test_record_dict_defaults_are_not_shared():
    d = np.array([0.0, 1.0])
    assert ModulusProfile(d, d, 0.0).metadata is not ModulusProfile(d, d, 0.0).metadata
    assert TailCurve("flat", np.ones_like).params is not TailCurve("flat", np.ones_like).params


def imported_modules(source: str) -> set[str]:
    """The package modules a source imports, by short name, with the names it
    imports from the package itself (``from . import config``)."""
    imported = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            imported.add((node.module or "").removeprefix("bernapprox."))
            if node.module in (None, "bernapprox"):
                imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name.removeprefix("bernapprox.") for alias in node.names)
    return imported


def test_bounds_imports_neither_operators_nor_families():
    # bounds combines a modulus profile with a tail curve; the operator sweep is the study's
    assert imported_modules((SRC / "bounds.py").read_text(encoding="utf-8")) & {"operators", "families"} == set()


# the layers whose numbers reach a report only through a Study stage
BELOW_THE_STUDY = {"modulus", "bounds", "operators"}


def test_cli_reads_every_number_from_the_study():
    assert imported_modules((SRC / "cli.py").read_text(encoding="utf-8")) & BELOW_THE_STUDY == set()


def test_cli_import_guard_catches_an_added_import():
    text = (SRC / "cli.py").read_text(encoding="utf-8")
    anchor = "import click\n"
    assert anchor in text
    added = text.replace(anchor, anchor + "from .modulus import holder_seminorm\n")
    assert imported_modules(added) & BELOW_THE_STUDY == {"modulus"}
