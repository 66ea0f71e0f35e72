"""Differential test: the array checker against the per-read reference.

:func:`repro.qmasm.certify.certify_sampleset` and the runner's
``_report`` check every read in one array pass per call.  They must
give the per-read code kept in ``tests/certify_reference.py`` equal
certificates, field by field and with the per-cell counts in the same
order, and equal solutions, on random Table 5 netlists
(``build_random_netlist``) and random reads.  The reads cover what a
run can hand the checker:

* reads corrupted the way ``CorruptReadsStage`` does (a flipped spin
  under a stale energy) and reported energies that are simply wrong;
* roof-duality-fixed spins, including a fixed spin that is also
  sampled (the fixed one wins);
* variables neither sampled nor fixed (nets optimized out), so cells
  go unchecked and assertions name missing variables;
* ``!assert`` trees over every operator, with constants beyond 2**63;
* duplicate reads, occurrence counts, pins, and up to three spins
  that are not +/-1 (a ``ValueError`` naming the same one).

The expanded matrix's column order follows set iteration, so CI runs
this file under two hash seeds.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.edif2qmasm.translate import netlist_to_qmasm
from repro.ising.model import SPIN_FALSE, SPIN_TRUE
from repro.qmasm.assembler import assemble
from repro.qmasm.certify import certify_sampleset, expand_read
from repro.qmasm.parser import parse_qmasm
from repro.qmasm.runner import RunResult, _report
from repro.solvers.sampleset import SampleSet
from tests import certify_reference as reference
from tests.test_differential import build_random_netlist

BINARY = ["&", "|", "^", "+", "-", "*", "=", "/=", "<", ">", "<=", ">="]
CONSTANTS = [0, 1, 2, 3, 7, 2**63 - 1, 2**63, 2**64 + 1, 3**50]
#: Names no netlist variable has: assertions on them, once dropped from
#: the reads, reference missing variables.
GHOSTS = ["ghost", "ghost2"]


@st.composite
def assertion_text(draw, names, depth=3):
    """The text of a random ``!assert`` expression over ``names``."""
    kind = draw(st.integers(0, 3 if depth else 1))
    if kind == 0:
        return draw(st.sampled_from(names))
    if kind == 1:
        return str(draw(st.sampled_from(CONSTANTS)))
    if kind == 2:
        operand = draw(assertion_text(names, depth - 1))
        return f"{draw(st.sampled_from(['~', '-']))}({operand})"
    left = draw(assertion_text(names, depth - 1))
    right = draw(assertion_text(names, depth - 1))
    return f"({left}) {draw(st.sampled_from(BINARY))} ({right})"


def _outcome(fn, *args, **kwargs):
    """What ``fn`` returns, or the type and message of what it raises: a
    ValueError for a spin that is not +/-1, or the KeyError of the
    energy of an empty sample set whose model is not all fixed."""
    try:
        return ("ok", fn(*args, **kwargs))
    except (ValueError, KeyError) as exc:
        return (type(exc).__name__, str(exc))


@st.composite
def scenarios(draw):
    """A program, its netlist, the solve model and a sample set."""
    netlist, _inputs = build_random_netlist(lambda options: draw(st.sampled_from(options)))
    qmasm = netlist_to_qmasm(netlist)
    names = sorted(assemble(parse_qmasm(qmasm)).variables) + GHOSTS
    asserts = [
        f"!assert {draw(assertion_text(names))}"
        for _ in range(draw(st.sampled_from([0, 0, 1, 2, 4])))
    ]
    logical = assemble(parse_qmasm(qmasm + "\n".join(asserts) + "\n"))
    pinnable = sorted({"i0", "i1", "y", "ghost"} & logical.variables)
    pins = {
        name: draw(st.booleans())
        for name in draw(st.lists(st.sampled_from(pinnable), max_size=2))
    }
    logical = logical.with_pins(pins)
    model, representative = logical.pinned_ising()

    # Roof duality fixes some spins; others are neither fixed nor
    # sampled (optimized out), which the checker must treat as missing.
    order = draw(st.permutations(sorted(model.variables)))
    fixed_count = draw(st.just(0) | st.integers(0, len(order)))
    fixed = {v: draw(st.sampled_from([SPIN_FALSE, SPIN_TRUE])) for v in order[:fixed_count]}
    dropped = draw(st.just(0) | st.integers(0, len(order) - fixed_count))
    solve_model = model
    for variable in order[:fixed_count + dropped]:
        solve_model = solve_model.fix_variable(variable, fixed.get(variable, SPIN_TRUE))
    variables = list(order[fixed_count + dropped:])
    if fixed and draw(st.booleans()):
        variables.append(order[0])  # sampled and fixed: the fixed spin wins

    # Reads from a small pool, so some repeat; ground states of small
    # solve models join it, so reads certify or only mismatch energies.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    choices = rng.choice([SPIN_FALSE, SPIN_TRUE], size=(draw(st.integers(1, 4)), len(variables)))
    if len(solve_model) <= 10:
        ground = solve_model.ground_states()[1][:2]
        extra = [[state.get(v, SPIN_TRUE) for v in variables] for state in ground]
        choices = np.vstack([choices, np.reshape(extra, (len(extra), len(variables)))])
    pool = len(choices)
    reads = draw(st.integers(0, 10))
    records = choices[rng.integers(0, pool, size=reads)].astype(np.int8)
    energies = (
        solve_model.energies(records.astype(float), order=variables) if reads
        else np.zeros(0)
    )
    if reads and variables:
        # CorruptReadsStage: flip one spin, leave the energy stale.
        for row in rng.choice(reads, size=draw(st.integers(0, reads // 2)), replace=False):
            records[row, rng.integers(len(variables))] *= -1
    if reads:
        # Wrong reported energies, and some within the tolerance.
        for row in rng.choice(reads, size=draw(st.integers(0, min(reads, 3))), replace=False):
            energies[row] += draw(st.sampled_from([1e-9, 8e-7, 2e-6, 0.5, 3.0]))
    if reads and variables and draw(st.integers(0, 9)) == 0:
        # Up to three bad spins: the error names the first one row by row.
        for value in draw(st.lists(st.sampled_from([0, 2, -3]), min_size=1, max_size=3)):
            records[rng.integers(reads), rng.integers(len(variables))] = value
    occurrences = rng.integers(1, 4, size=reads)
    sampleset = SampleSet(variables, records, energies, occurrences)
    return dict(
        netlist=netlist,
        logical=logical,
        model=model,
        representative=representative,
        fixed=fixed,
        solve_model=solve_model,
        sampleset=sampleset,
    )


def _certify(fn, case, netlist):
    return _outcome(
        fn,
        case["sampleset"],
        case["logical"],
        case["representative"],
        case["solve_model"],
        fixed=case["fixed"],
        netlist=netlist,
    )


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=scenarios(), replay=st.booleans())
def test_certificates_match_reference(case, replay):
    netlist = case["netlist"] if replay else None
    got = _certify(certify_sampleset, case, netlist)
    want = _certify(reference.certify_sampleset, case, netlist)
    assert got == want
    if got[0] == "ok":
        assert list(got[1].gate_violation_counts) == list(want[1].gate_violation_counts)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=scenarios())
def test_solutions_match_reference(case):
    result = RunResult(
        logical=case["logical"],
        logical_model=case["model"],
        representative=case["representative"],
        solve_model=case["solve_model"],
        fixed_spins=case["fixed"],
        sampleset=case["sampleset"],
    )
    got = _outcome(_report, result)
    want = _outcome(reference.report, result)
    assert got == want
    if got[0] == "ok":
        assert [s.as_dict() for s in got[1]] == [s.as_dict() for s in want[1]]
        assert [type(s.energy) for s in got[1]] == [type(s.energy) for s in want[1]]


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=scenarios())
def test_check_assertions_matches_reference(case):
    """``check_assertions`` is a one-row call into the column evaluator."""
    logical = case["logical"]
    for sample in case["sampleset"]:
        full = expand_read(
            sample.assignment, logical, case["representative"], case["fixed"]
        )
        assert _outcome(logical.check_assertions, full) == _outcome(
            reference.check_assertions, logical, full
        )


def test_report_raises_for_the_bad_spin_the_per_read_report_named():
    """Read by read, the report checked a read's visible spins, then all
    the spins of a read that began a new solution."""
    logical = assemble(parse_qmasm("A 1\nB 1\n$h 1\nA $h -1\n"))
    model, representative = logical.pinned_ising()
    # The hidden spin's column first, whatever the hash seed.
    representative = {v: representative[v] for v in sorted(representative)}
    variables = sorted(model.variables)
    assert list(representative) == variables == ["$h", "A", "B"]

    def report_both(*reads):
        records = np.array(reads, dtype=np.int8)
        sampleset = SampleSet(
            variables, records, np.arange(len(records), dtype=float),
            np.ones(len(records), dtype=int),
        )
        result = RunResult(
            logical=logical, logical_model=model, representative=representative,
            solve_model=model, sampleset=sampleset,
        )
        return _outcome(_report, result), _outcome(reference.report, result)

    # Read 0's hidden spin comes before read 1's visible spin.
    got, want = report_both([2, 1, 1], [1, 0, 1])
    assert got == want == ("ValueError", "not a spin value: 2")
    # Within a read, the visible spins come first.
    got, want = report_both([2, 0, 1])
    assert got == want == ("ValueError", "not a spin value: 0")
    # Read 1 repeats read 0's solution, so its hidden spin is not checked.
    got, want = report_both([1, 1, 1], [2, 1, 1])
    assert got == want
    assert got[0] == "ok" and got[1][0].num_occurrences == 2
