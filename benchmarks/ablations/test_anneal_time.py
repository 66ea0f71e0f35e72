"""Ablation: annealing time vs solution quality (Section 2).

"The user-specified annealing time ranges from 1-2000 us, which may be
shorter than what the adiabatic theorem requires to minimize H with
near-certainty."  On the simulated machine, anneal time buys sweeps;
this study measures the ground-state probability of an embedded gate
network across the legal annealing-time range.
"""

import numpy as np

from repro.hardware.embedding import (
    embed_ising,
    find_embedding,
    source_graph_of,
    unembed_sampleset,
)
from repro.hardware.scaling import scale_to_hardware
from repro.ising.cells import cell_hamiltonian, wire_hamiltonian
from repro.solvers.machine import DWaveSimulator, MachineProperties


def test_anneal_time_vs_ground_probability(benchmark):
    logical = cell_hamiltonian("XOR", "g1.")
    logical.update(cell_hamiltonian("MUX", "g2."))
    logical.update(wire_hamiltonian("g1.Y", "g2.S"))
    ground, _ = logical.ground_states()

    machine = DWaveSimulator(
        properties=MachineProperties(cells=4, dropout_fraction=0.0),
        seed=0,
    )
    embedding = find_embedding(
        source_graph_of(logical), machine.working_graph, seed=1
    )
    physical = embed_ising(logical, embedding, machine.working_graph)
    scaled, _ = scale_to_hardware(physical)

    def sweep():
        rates = {}
        for anneal_us in (1.0, 5.0, 20.0, 100.0):
            samples = machine.sample_ising(
                scaled, num_reads=60, annealing_time_us=anneal_us,
                apply_noise=False,
            )
            unembedded = unembed_sampleset(samples, embedding, logical)
            rates[anneal_us] = float(
                np.mean(np.abs(unembedded.energies - ground) < 1e-6)
            )
        return rates

    rates = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Longer anneals must not hurt, and the longest must clearly beat
    # the 1 us minimum (which is far too fast for this network).
    assert rates[100.0] >= rates[1.0]
    assert rates[100.0] > 0.3
    benchmark.extra_info["p_ground_by_anneal_us"] = rates
    benchmark.extra_info["paper"] = (
        "1-2000 us may be shorter than the adiabatic theorem requires"
    )
