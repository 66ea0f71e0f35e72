"""Ablation: chain strength for embedded problems.

QMASM defaults the chain coupling to twice the largest literal J.  Too
weak and chains break (majority vote guesses); too strong and, after
range scaling, the logical problem's energy gaps shrink toward the
noise floor.  This ablation sweeps the multiplier and records the
chain-break fraction and ground-state rate on an embedded gate network.
"""

import numpy as np

from repro.hardware.chimera import chimera_graph
from repro.hardware.embedding import (
    default_chain_strength,
    embed_ising,
    find_embedding,
    source_graph_of,
    unembed_sampleset,
)
from repro.hardware.scaling import scale_to_hardware
from repro.ising.cells import cell_hamiltonian, wire_hamiltonian
from repro.solvers.neal import SimulatedAnnealingSampler


def _gate_network():
    """A small adder-ish network: two XORs and an AND chained together."""
    model = cell_hamiltonian("XOR", "g1.")
    model.update(cell_hamiltonian("AND", "g2."))
    model.update(cell_hamiltonian("XOR", "g3."))
    model.update(wire_hamiltonian("g1.Y", "g2.A"))
    model.update(wire_hamiltonian("g2.Y", "g3.A"))
    return model


def test_chain_strength_sweep(benchmark):
    logical = _gate_network()
    ground_energy, _ = logical.ground_states()
    target = chimera_graph(8)
    embedding = find_embedding(source_graph_of(logical), target, seed=3)
    base = default_chain_strength(logical)
    sampler = SimulatedAnnealingSampler(seed=0)

    def sweep():
        rows = {}
        for multiplier in (0.25, 0.5, 1.0, 2.0, 4.0):
            physical = embed_ising(
                logical, embedding, target,
                chain_strength=base * multiplier,
            )
            scaled, _ = scale_to_hardware(physical)
            samples = sampler.sample(scaled, num_reads=60, num_sweeps=300)
            unembedded = unembed_sampleset(samples, embedding, logical)
            rows[multiplier] = {
                "chain_break_fraction": unembedded.info["chain_break_fraction"],
                "p_ground": float(
                    np.mean(np.abs(unembedded.energies - ground_energy) < 1e-6)
                ),
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    # Weak chains break more often than strong chains.
    assert (
        rows[0.25]["chain_break_fraction"]
        >= rows[4.0]["chain_break_fraction"]
    )
    # The default (1.0x) must actually solve the problem.
    assert rows[1.0]["p_ground"] > 0.2
    benchmark.extra_info["sweep"] = {str(k): v for k, v in rows.items()}
    benchmark.extra_info["qmasm_default"] = "2 x max |J| (multiplier 1.0)"
