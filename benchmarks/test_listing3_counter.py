"""L3 -- Listing 3: sequential logic via time unrolling (Section 4.3.3).

Measures the paper's "heavy toll in qubit count": unrolling the 6-bit
counter over T time steps multiplies the logical variable count roughly
linearly in T, and validates forward/backward execution of the unrolled
program.
"""

from benchmarks.conftest import LISTING_3_COUNTER


def test_listing3_unroll_cost_scaling(benchmark, compiler):
    """Variables vs unroll depth: the time-for-space trade."""

    def compile_at_depths():
        sizes = {}
        for steps in (1, 2, 4):
            program = compiler.compile(
                LISTING_3_COUNTER, unroll_steps=steps, initial_state=0
            )
            sizes[steps] = program.statistics()["logical_variables"]
        return sizes

    sizes = benchmark.pedantic(compile_at_depths, rounds=1, iterations=1)
    # Roughly linear growth (each step replicates the whole program).
    assert sizes[2] > 1.5 * sizes[1]
    assert sizes[4] > 1.5 * sizes[2]
    benchmark.extra_info["variables_by_steps"] = sizes
    benchmark.extra_info["paper"] = (
        "unrolling replicates the entire program per time step"
    )


def test_listing3_forward_execution(benchmark, compiler):
    program = compiler.compile(
        LISTING_3_COUNTER, unroll_steps=3, initial_state=0
    )
    pins = []
    for step, (inc, reset) in enumerate([(1, 0), (0, 0), (1, 0)]):
        pins += [f"inc@{step} := {inc}", f"reset@{step} := {reset}"]

    def solve():
        return compiler.run(program, pins=pins, solver="sa", num_reads=150)

    result = benchmark.pedantic(solve, rounds=1, iterations=1)
    best = result.valid_solutions[0]
    trace = [best.value_of(f"out@{t}") for t in range(3)]
    assert trace == [0, 1, 1]
    benchmark.extra_info["trace"] = trace


def test_listing3_backward_execution(benchmark, compiler):
    """Given the final count, solve for the inc pulses."""
    program = compiler.compile(
        LISTING_3_COUNTER, unroll_steps=3, initial_state=0
    )
    pins = [f"reset@{t} := 0" for t in range(3)] + ["out@2[5:0] := 2"]

    def solve():
        return compiler.run(program, pins=pins, solver="sa", num_reads=300)

    result = benchmark.pedantic(solve, rounds=1, iterations=1)
    sequences = {
        tuple(s.value_of(f"inc@{t}") for t in range(2))
        for s in result.valid_solutions
    }
    # out@2 counts increments on cycles 0 and 1: both must be 1.
    assert (1, 1) in sequences
    benchmark.extra_info["inc_sequences"] = sorted(map(str, sequences))
