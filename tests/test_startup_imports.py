"""Start-up imports: scipy and networkx load only where a job needs them.

Compiling and annealing on ``sa`` never embed, presolve or synthesize a
penalty model, so ``import repro``, the CLI, the service and such a run
leave both libraries unloaded; every start of ``repro serve`` and of the
CLI pays for what it imports.  The embedder, roof duality, the hardware
graph builders and the penalty LP import them on first use.  Each check
runs in a fresh interpreter, so nothing an earlier test imported can
hide a missing import.
"""

import json
import os
import subprocess
import sys

import pytest

from tests.conftest import FIGURE_2A

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

#: Prints the scipy and networkx modules the interpreter has loaded.
_PRINT_LOADED = """
print(json.dumps(sorted(
    m for m in sys.modules if m.split(".")[0] in ("scipy", "networkx")
)))
"""


def _run_fresh(script: str) -> list:
    """Run ``script`` in a new interpreter; return its last JSON line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + script + _PRINT_LOADED],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.splitlines()[-1])


def test_cli_service_compile_and_sa_run_load_neither_library():
    loaded = _run_fresh(f"""
import repro, repro.core.cli, repro.service.app
from repro import VerilogAnnealerCompiler

compiler = VerilogAnnealerCompiler(seed=1)
program = compiler.compile({FIGURE_2A!r})
result = compiler.run(program, solver="sa", num_reads=20, certify=True)
assert result.certificate.total_reads == 20
""")
    assert loaded == []


def test_every_public_name_resolves_without_either_library():
    loaded = _run_fresh("""
import importlib

for package in ("repro", "repro.core", "repro.ising", "repro.hardware", "repro.solvers"):
    module = importlib.import_module(package)
    for name in module.__all__:
        getattr(module, name)
""")
    assert loaded == []


#: Each runs first in its own interpreter, so it must import what it
#: needs; it names the modules it must have loaded by the time it ends.
_FIRST_USE = {
    "find_embedding": ("""
from repro.hardware import find_embedding, make_topology
from repro.hardware.embedding import source_graph_of
from repro.ising import IsingModel

# A triangle has an odd cycle, so the bipartite Chimera needs a chain.
model = IsingModel({}, {("a", "b"): 1.0, ("b", "c"): 1.0, ("a", "c"): 1.0})
embedding = find_embedding(
    source_graph_of(model), make_topology("chimera", size=2).graph, seed=0
)
assert sorted(embedding.chains) == ["a", "b", "c"]
assert embedding.total_qubits() >= 4
""", {"scipy.sparse.csgraph", "networkx"}),
    "fix_variables": ("""
from repro.ising import SPIN_FALSE, IsingModel, fix_variables

# a's field outweighs its coupling; fixing it then decides b.
model = IsingModel({"a": 2.0, "b": 0.0}, {("a", "b"): -1.0})
assert fix_variables(model) == {"a": SPIN_FALSE, "b": SPIN_FALSE}
""", {"networkx"}),
    "synthesize_penalty": ("""
from repro.ising import synthesize_penalty
from repro.ising.penalty import truth_table_of, verify_penalty

rows = truth_table_of(lambda a, b: a and b, 2)
penalty = synthesize_penalty(rows, ["Y", "A", "B"], max_ancillas=0)
assert verify_penalty(penalty, rows)
assert abs(penalty.gap - 2.0) < 1e-6
""", {"scipy.optimize"}),
}


@pytest.mark.parametrize("name", sorted(_FIRST_USE))
def test_first_use_in_a_new_process_imports_what_it_needs(name):
    script, needs = _FIRST_USE[name]
    preamble = """
import repro.ising, repro.hardware
assert not any(m.split(".")[0] in ("scipy", "networkx") for m in sys.modules)
"""
    assert needs <= set(_run_fresh(preamble + script))
