"""Ablation: gap-maximized cell Hamiltonians vs minimal-gap ones.

Table 5's coefficients were "chosen to honor the hardware-imposed
coefficient ranges while maximizing the gap between the H of all valid
inputs and the minimal H of an invalid input.  Empirically, this tends
to lead to more robust output on D-Wave hardware."  We synthesize a
small-gap AND variant and compare ground-state hit rates under the
machine's control noise.
"""

import numpy as np

from repro.ising.cells import CELL_LIBRARY
from repro.ising.penalty import synthesize_penalty, truth_table_of
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.hardware.embedding import embed_ising, find_embedding, source_graph_of, unembed_sampleset


def _small_gap_and():
    """An AND penalty that is feasible but whose gap is artificially
    small: synthesize at full gap, then mix toward a flat model."""
    rows = truth_table_of(lambda a, b: a and b, 2)
    penalty = synthesize_penalty(rows, ["Y", "A", "B"], max_ancillas=0)
    return penalty.model.scaled(0.15)  # gap 2.0 -> 0.3


def test_gap_vs_noise_robustness(benchmark):
    properties = MachineProperties(
        cells=4, dropout_fraction=0.0, noise_h=0.06, noise_j=0.05
    )
    machine = DWaveSimulator(properties=properties, seed=1)
    target = machine.working_graph

    def hit_rate(logical):
        ground, _ = logical.ground_states()
        embedding = find_embedding(source_graph_of(logical), target, seed=2)
        physical = embed_ising(logical, embedding, target)
        # NOTE: deliberately *no* rescaling up to full range -- the gap
        # difference is the variable under test.
        samples = machine.sample_ising(
            physical, num_reads=80, annealing_time_us=20.0
        )
        unembedded = unembed_sampleset(samples, embedding, logical)
        return float(np.mean(np.abs(unembedded.energies - ground) < 1e-6))

    def compare():
        return {
            "table5_gap": hit_rate(CELL_LIBRARY["AND"].hamiltonian()),
            "small_gap": hit_rate(_small_gap_and()),
        }

    rates = benchmark.pedantic(compare, rounds=1, iterations=1)
    # The gap-maximized cell must be at least as robust under noise.
    assert rates["table5_gap"] >= rates["small_gap"]
    benchmark.extra_info["hit_rates"] = rates
    benchmark.extra_info["paper"] = (
        "maximized gap 'tends to lead to more robust output'"
    )
