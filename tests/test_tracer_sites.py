"""The benchmark's layer tracer still finds every import site it patches.

``perfbench/tracer.py`` replaces names bound in the package's modules
(``cli.stationary``, ``optimizer.feasible``, ``renewal.erlang_cdf``, ...)
with timing wrappers. A name that moves or disappears breaks the traced
benchmark run, so this runs one ``optimize``, ``evaluate``, ``simulate --check``
and ``sweep --fig 5`` call each under an installed tracer, loaded by path like
the oracle in test_accuracy.py.
"""

import ast
import importlib.util
import pathlib

import pytest

from aoiharvest import cli, optimizer
from aoiharvest.model import SystemParams
from aoiharvest.optimizer import OptimizerConfig

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
SRC = pathlib.Path(cli.__file__).resolve().parent
PATCHED_MARK = "# noqa: F401  (patched by perfbench/tracer.py)"

ARGVS = [
    ["optimize", "--mu", "1.3", "--battery", "3", "--mode", "algorithm1"],
    ["evaluate", "--mu", "0.8", "--battery", "4", "--thresholds", "3,2,1,0.5"],
    ["simulate", "--mu", "0.8", "--battery", "4", "--thresholds", "3,2,1,0.5", "--renewals", "5000", "--check"],
    ["sweep", "--fig", "5", "--mu", "1", "--tau2", "0.2,0.7", "--points", "5"],
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("aoiharvest_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", ARGVS, ids=lambda argv: argv[0])
def test_traced_call_and_restore(argv, capsys):
    tracer = load_tracer().Tracer()
    with tracer:
        patched = list(tracer._patches)
        code = tracer.root(cli.main)(argv)
    assert code == 0
    assert capsys.readouterr().out
    assert (optimizer, "feasible") in [(module, attr) for module, attr, _ in patched]
    for module, attr, original in patched:
        assert getattr(module, attr) is original, f"{module.__name__}.{attr} not restored"
    # the Fig. 5 curves reach the chain through avg_penalties, which the tracer does not wrap
    assert tracer.counts["chain.calls" if argv[0] == "sweep" else "renewal.evals"] > 0
    if argv[0] == "simulate":
        assert tracer.counts["simulator.cycles"] > 0
    if argv[0] == "optimize":
        # algorithm1 answers its steps from one policy iteration, not from feasible
        assert tracer.counts["optimizer.feasible_calls"] == 0


def test_traced_feasible_passes_its_arguments_through():
    tracer = load_tracer().Tracer()
    with tracer:
        assert optimizer.feasible(SystemParams(1.0, 2), OptimizerConfig(), 0.8) is True
    assert tracer.counts["optimizer.feasible_calls"] == 1


def unread_imports(tree: ast.Module) -> dict[str, int]:
    """The line of each name a module imports and never reads, nor lists in __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return {name: line for name, line in imported.items() if name not in read}


def test_every_unread_import_is_a_patch_site():
    # a lint in the suite: an import no line reads is either stale or kept
    # only for the tracer to patch, marked so, and then the tracer patches it
    tracer = load_tracer().Tracer()
    with tracer:
        patched = {(module.__name__.rpartition(".")[2], attr) for module, attr, _ in tracer._patches}
    kept = set()
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        lines = text.splitlines()
        for name, line in unread_imports(ast.parse(text)).items():
            assert lines[line - 1].endswith(PATCHED_MARK), f"{path.name}:{line} imports {name} and never reads it"
            kept.add((path.stem, name))
    assert kept <= patched, f"marked but not patched: {sorted(kept - patched)}"
