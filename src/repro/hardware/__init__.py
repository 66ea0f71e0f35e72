"""The annealer hardware model (Section 2 of the paper, generalized).

- :mod:`repro.hardware.topology`: the topology layer -- a
  :class:`~repro.hardware.topology.Topology` interface (working graph,
  coordinates, native-cell tiles, fingerprint) with Chimera (2000Q),
  Pegasus-style (Advantage), and Zephyr-style (Advantage2)
  implementations.
- :mod:`repro.hardware.registry`: the fixed name -> topology family
  table every layer outside ``repro/hardware/`` goes through
  (``make_topology("chimera", size=16)``).
- :mod:`repro.hardware.chimera`: the Chimera working graph -- a 2-D mesh
  of 8-qubit bipartite unit cells (Figure 1); a 2000Q is a C16 (16 x 16
  cells, nominal 2048 qubits) with some drop-out.
- :mod:`repro.hardware.embedding`: randomized heuristic minor embedding
  (the Cai-Macready-Roy algorithm family used by SAPI), chain handling,
  and sample unembedding.
- :mod:`repro.hardware.scaling`: coefficient-range enforcement
  (h in [-2, 2], J in [-2, 1]) and analog precision quantization.
"""

from repro.hardware.chimera import (
    ChimeraCoordinates,
    chimera_graph,
    coupler_dropout,
    dropout,
    DWAVE_2000Q_CELLS,
)
from repro.hardware.embedding import (
    EmbeddingError,
    Embedding,
    find_embedding,
    embed_ising,
    unembed_sampleset,
)
from repro.hardware.registry import (
    available_topologies,
    make_topology,
)
from repro.hardware.scaling import H_RANGE, J_RANGE, scale_to_hardware, quantize
from repro.hardware.topology import (
    ChimeraTopology,
    PegasusTopology,
    Topology,
    ZephyrTopology,
)

__all__ = [
    "ChimeraCoordinates",
    "ChimeraTopology",
    "PegasusTopology",
    "Topology",
    "ZephyrTopology",
    "available_topologies",
    "make_topology",
    "chimera_graph",
    "coupler_dropout",
    "dropout",
    "DWAVE_2000Q_CELLS",
    "Embedding",
    "EmbeddingError",
    "find_embedding",
    "embed_ising",
    "unembed_sampleset",
    "H_RANGE",
    "J_RANGE",
    "scale_to_hardware",
    "quantize",
]
