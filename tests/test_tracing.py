"""The benchmark's tracer (``perfbench/tracing.py``) patches bellsim's modules
by attribute name, so every name it patches must stay importable, and
undoing the patches must put the originals back."""

import ast
import importlib.util
import re
from pathlib import Path
from types import ModuleType

import bellsim
import bellsim.cli
from bellsim.experiment import SOURCE_QUANTUM, ExperimentConfig
from bellsim.quantum import AngleTriple

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

#: Names a module imports only so that the tracer can patch them there.
TRACER_ONLY_IMPORTS = {
    "experiment": {"SplitMix64", "derive_seed", "sample_outcome_pair", "sample_from_lhv"},
    "cli": {"read_dataset_csv"},
}
#: Names a module keeps only because the benchmark calls them.
BENCHMARK_ONLY = {"loophole": {"build_faking_lp"}}


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_undoes():
    tracing = load_tracing()
    modules = (bellsim.cli, bellsim.experiment, bellsim.loophole, bellsim.simplex)
    before = [dict(vars(module)) for module in modules]
    tracer = tracing.Tracer()
    undo = tracing.install(tracer, bellsim)
    try:
        config = ExperimentConfig(n_trials=5, seed=1, source=SOURCE_QUANTUM,
                                  angles=AngleTriple.from_degrees(60, 0, 120))
        assert len(bellsim.experiment.run_experiment(config)) == 5
        assert tracer.total("experiment.run_experiment", 0) == 1
        assert tracer.counts["experiment.trials"] == 5
    finally:
        undo()
    assert [dict(vars(module)) for module in modules] == before


def test_no_module_imports_a_name_it_does_not_use():
    # No linter runs in the suite, so this is its unused-import check: on the
    # package (its __init__ re-exports), the tools and these tests.
    package = Path(bellsim.__file__).parent
    root = TRACING.parents[1]
    paths = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    paths += [*(root / "tools").glob("*.py"), *(root / "tests").glob("*.py")]
    unused = {}
    for path in sorted(paths):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))]
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in imports if getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        if path.parent == package:
            used |= TRACER_ONLY_IMPORTS.get(path.stem, set())
        if imported - used:
            unused[str(path.relative_to(root))] = sorted(imported - used)
    assert unused == {}


def test_all_exports_only_what_bellsim_modules_define():
    # bellsim.__all__ is every public name that __init__ binds, so a stray
    # import there (``from math import pi``) would join it. Each name must be
    # the very object that one of bellsim's modules defines under that name.
    package = Path(bellsim.__file__).parent
    defined = {}  # name: the objects bellsim's modules define under it
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        module = importlib.import_module(f"bellsim.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                names = [node.name]
            else:
                names = [t.id for t in getattr(node, "targets", ()) if isinstance(t, ast.Name)]
            for name in names:
                defined.setdefault(name, []).append(vars(module)[name])
    exported = bellsim.__all__
    assert exported == sorted(set(exported))
    assert [name for name in exported if isinstance(getattr(bellsim, name), ModuleType)] == []
    strays = [name for name in exported
              if not any(obj is getattr(bellsim, name) for obj in defined.get(name, ()))]
    assert strays == []


def test_tracer_and_benchmark_only_names_are_still_used_by_the_benchmark():
    # The change to the benchmark that stops using one of these names
    # deletes it from its module, and from the table above.
    sources = "\n".join(p.read_text(encoding="utf-8") for p in sorted(TRACING.parent.glob("*.py")))
    unused = sorted(
        f"{module}.{name}"
        for table in (TRACER_ONLY_IMPORTS, BENCHMARK_ONLY)
        for module, names in table.items()
        for name in names
        if not re.search(rf"\b{name}\b", sources)
    )
    assert unused == []


def test_no_module_calls_a_benchmark_only_name():
    package = Path(bellsim.__file__).parent
    names = set().union(*BENCHMARK_ONLY.values())
    callers = sorted(
        path.stem
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if getattr(node, "id", None) in names or getattr(node, "attr", None) in names
    )
    assert callers == []
