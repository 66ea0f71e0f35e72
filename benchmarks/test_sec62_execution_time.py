"""S62 -- Section 6.2: per-solution execution time, annealer vs Chuffed.

The paper measured 1,000,000 anneals of 20 us apiece on a D-Wave 2000Q
(734 us per solution, including network and queuing overheads) against
100,000 runs of the Listing 8 MiniZinc model under Chuffed (1798 us per
solution), concluding "the performance of our approach is not
necessarily worse than that of a classical solver", with the caveat
that Chuffed guarantees correctness and returns the same solution every
time while the annealer samples the space.

We regenerate both columns:

  - annealer per-solution time = modeled QPU time (the machine's 2000Q
    timing model: anneal + readout + delay per read, amortized
    programming) divided by the measured fraction of reads that return
    a distinct valid coloring;
  - Chuffed stand-in per-solution time = wall time of our
    propagation+backtracking solver on the Listing 8 model.

Shape checks: both land within a couple of orders of magnitude of each
other; the CSP solver is deterministic; the annealer samples many
distinct colorings.
"""

from repro.solvers.csp import CSPSolver, parse_minizinc

from benchmarks.conftest import (
    AUSTRALIA_REGIONS,
    LISTING_8_MINIZINC,
    coloring_is_valid,
)

PAPER_DWAVE_US_PER_SOLUTION = 734.0
PAPER_CHUFFED_US_PER_SOLUTION = 1798.0


def test_sec62_annealer_per_solution_time(benchmark, compiler, australia_program):
    def run_on_machine():
        result = compiler.run(
            australia_program,
            pins=["valid := true"],
            solver="dwave",
            num_reads=100,
            annealing_time_us=20.0,
        )
        valid_reads = 0
        distinct = set()
        for solution in result.valid_solutions:
            colors = {r: solution.value_of(r) for r in AUSTRALIA_REGIONS}
            if coloring_is_valid(colors):
                valid_reads += solution.num_occurrences
                distinct.add(tuple(colors[r] for r in AUSTRALIA_REGIONS))
        timing = result.info["timing"]
        return timing, valid_reads, distinct, result

    timing, valid_reads, distinct, result = benchmark.pedantic(
        run_on_machine, rounds=1, iterations=1
    )
    assert valid_reads > 0, "no valid coloring in 100 reads"
    per_solution_us = timing["qpu_access_time_us"] / valid_reads
    # Same order as the paper's 734 us within generous bounds: the
    # figure depends on success rate and overhead modeling.
    assert 50 <= per_solution_us <= 50_000
    # The annealer *samples*: many distinct colorings, not one.
    assert len(distinct) > 1
    benchmark.extra_info["paper_us_per_solution"] = PAPER_DWAVE_US_PER_SOLUTION
    benchmark.extra_info["measured_us_per_solution"] = round(per_solution_us, 1)
    benchmark.extra_info["valid_reads"] = valid_reads
    benchmark.extra_info["distinct_colorings"] = len(distinct)
    benchmark.extra_info["chain_break_fraction"] = round(
        result.info.get("chain_break_fraction", 0.0), 4
    )


def test_sec62_chuffed_per_solution_time(benchmark):
    model = parse_minizinc(LISTING_8_MINIZINC)
    solver = CSPSolver()

    def solve_once():
        return solver.solve(model)

    solution = benchmark(solve_once)
    assert solution is not None
    mean_us = benchmark.stats.stats.mean * 1e6
    benchmark.extra_info["paper_us_per_solution"] = PAPER_CHUFFED_US_PER_SOLUTION
    benchmark.extra_info["measured_us_per_solution"] = round(mean_us, 1)


def test_sec62_csp_is_deterministic_annealer_is_not(
    benchmark, compiler, australia_program
):
    """The qualitative half of the comparison."""

    def compare():
        model = parse_minizinc(LISTING_8_MINIZINC)
        csp_solutions = {
            tuple(sorted(CSPSolver().solve(model).items())) for _ in range(5)
        }
        annealer_colorings = set()
        result = compiler.run(
            australia_program, pins=["valid := true"], solver="sa",
            num_reads=200,
        )
        for solution in result.valid_solutions:
            colors = {r: solution.value_of(r) for r in AUSTRALIA_REGIONS}
            if coloring_is_valid(colors):
                annealer_colorings.add(tuple(sorted(colors.items())))
        return csp_solutions, annealer_colorings

    csp_solutions, annealer_colorings = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    assert len(csp_solutions) == 1  # "returns the same solution every time"
    assert len(annealer_colorings) > 5  # "samples from the space of solutions"
    benchmark.extra_info["csp_distinct"] = len(csp_solutions)
    benchmark.extra_info["annealer_distinct"] = len(annealer_colorings)
