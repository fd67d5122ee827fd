"""The benchmark's layer tracer still finds every import site it patches.

``perfbench/tracer.py`` replaces names bound in the package's modules
(``cli.stationary``, ``optimizer.feasible``, ``renewal.erlang_cdf``, ...)
with timing wrappers. A name that moves or disappears breaks the traced
benchmark run, so this runs one ``optimize`` and one ``evaluate`` call under
an installed tracer, loaded by path like the oracle in test_accuracy.py.
"""

import importlib.util
import pathlib

import pytest

from aoiharvest import cli, optimizer

TRACER_PATH = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

ARGVS = [
    ["optimize", "--mu", "1.3", "--battery", "3", "--mode", "algorithm1"],
    ["evaluate", "--mu", "0.8", "--battery", "4", "--thresholds", "3,2,1,0.5"],
]


def load_tracer():
    spec = importlib.util.spec_from_file_location("aoiharvest_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("argv", ARGVS, ids=["optimize", "evaluate"])
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
    assert tracer.counts["renewal.evals"] > 0
    if argv[0] == "optimize":
        # algorithm1 answers its steps from one policy iteration, not from feasible
        assert tracer.counts["optimizer.feasible_calls"] == 0
