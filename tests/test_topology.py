"""Tests for the topology abstraction and registry.

Covers the three hardware families (Chimera, Pegasus-style,
Zephyr-style): published node counts, degree bounds, coordinate
round-trips, tile schemes, registry lookup, fingerprint/cache-key
separation -- plus the lint guard that keeps every layer outside
``repro/hardware/`` off direct ``repro.hardware.chimera`` imports.
"""

import os

import networkx as nx
import pytest

from repro.core.cache import CompilationCache, EmbeddingCache
from repro.hardware.registry import (
    available_topologies,
    make_topology,
)
from repro.hardware.topology import (
    ChimeraTopology,
    PegasusTopology,
    Topology,
    ZephyrTopology,
)


# ----------------------------------------------------------------------
# Family structure
# ----------------------------------------------------------------------
def test_chimera_counts_match_published():
    topo = ChimeraTopology(4)
    assert topo.num_qubits == 4 * 4 * 8 == 128
    # C16 is the 2000Q: 2048 nominal qubits.
    assert ChimeraTopology(16).num_qubits == 2048


def test_pegasus_counts_match_published():
    # Published trimmed node count: 8 * (m-1) * (3m-1); P16 = 5640.
    for m in (2, 3, 6):
        assert PegasusTopology(m).num_qubits == 8 * (m - 1) * (3 * m - 1)
    assert PegasusTopology(16).num_qubits == 5640


def test_zephyr_counts_match_published():
    # Published node count: 4 * t * m * (2m+1); Z15 (t=4) = 7440.
    for m in (1, 2, 3):
        assert ZephyrTopology(m).num_qubits == 16 * m * (2 * m + 1)
    assert ZephyrTopology(15).num_qubits == 7440


def test_degree_bounds_per_family():
    chimera = ChimeraTopology(4).graph
    assert max(dict(chimera.degree).values()) <= 6
    pegasus = PegasusTopology(4).graph
    assert max(dict(pegasus.degree).values()) == 15
    zephyr = ZephyrTopology(3).graph
    assert max(dict(zephyr.degree).values()) == 20


def test_graphs_are_connected():
    for topo in (ChimeraTopology(3), PegasusTopology(3), ZephyrTopology(2)):
        assert nx.is_connected(topo.graph), topo.family


def test_chimera_is_bipartite_denser_families_are_not():
    assert nx.is_bipartite(ChimeraTopology(3).graph)
    # Odd couplers close odd cycles in both newer families.
    assert not nx.is_bipartite(PegasusTopology(3).graph)
    assert not nx.is_bipartite(ZephyrTopology(2).graph)


@pytest.mark.parametrize(
    "topo",
    [ChimeraTopology(3), PegasusTopology(3), ZephyrTopology(2)],
    ids=lambda t: t.family,
)
def test_coordinate_round_trip(topo: Topology):
    for index in topo.graph.nodes():
        assert topo.linear(topo.coordinates(index)) == index


@pytest.mark.parametrize(
    "topo",
    [ChimeraTopology(3), PegasusTopology(3), ZephyrTopology(2)],
    ids=lambda t: t.family,
)
def test_tiles_cover_every_qubit_within_shape(topo: Topology):
    tiles = topo.tiles()
    rows, cols = topo.tile_shape
    members = [q for cell in tiles.values() for q in cell]
    assert sorted(members) == sorted(topo.graph.nodes())
    assert all(0 <= r < rows and 0 <= c < cols for r, c in tiles)


def test_describe_mentions_family_and_size():
    text = PegasusTopology(3).describe()
    assert "pegasus" in text
    assert str(PegasusTopology(3).num_qubits) in text


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
def test_registry_lists_all_three_families():
    names = available_topologies()
    assert {"chimera", "pegasus", "zephyr"} <= set(names)
    assert list(names) == sorted(names)


def test_make_topology_defaults_to_flagship_chips():
    assert make_topology("chimera").fingerprint() == "chimera:m=16,n=16,t=4"
    assert make_topology("pegasus").fingerprint() == "pegasus:m=16"
    assert make_topology("zephyr").fingerprint() == "zephyr:m=15,t=4"


def test_make_topology_sized_and_case_insensitive():
    topo = make_topology("Pegasus", size=3)
    assert isinstance(topo, PegasusTopology)
    assert topo.m == 3


def test_make_topology_unknown_name_lists_available():
    with pytest.raises(KeyError) as excinfo:
        make_topology("kagome")
    assert "chimera" in str(excinfo.value)


# ----------------------------------------------------------------------
# Fingerprints and cache keys
# ----------------------------------------------------------------------
def test_fingerprints_distinct_across_families_and_sizes():
    prints = {
        ChimeraTopology(4).fingerprint(),
        ChimeraTopology(8).fingerprint(),
        PegasusTopology(4).fingerprint(),
        ZephyrTopology(4).fingerprint(),
    }
    assert len(prints) == 4


def test_embedding_cache_key_separates_topologies():
    source = nx.path_graph(3)
    target = nx.complete_graph(8)
    keys = {
        EmbeddingCache.key_for(
            source, target, seed=0, topology=topo.fingerprint()
        )
        for topo in (ChimeraTopology(2), PegasusTopology(2), ZephyrTopology(1))
    }
    assert len(keys) == 3


def test_compilation_cache_key_separates_targets():
    assert CompilationCache.key_for("module m; endmodule", None) != (
        CompilationCache.key_for(
            "module m; endmodule", None, target="pegasus:m=16"
        )
    )


# ----------------------------------------------------------------------
# Lint guard: everything outside repro/hardware/ goes via the registry
# ----------------------------------------------------------------------
def test_no_direct_chimera_imports_outside_hardware_package():
    """New code must not import repro.hardware.chimera directly.

    The topology abstraction only holds if every other layer reaches
    hardware graphs through :mod:`repro.hardware.registry` (or the
    :mod:`repro.hardware.topology` classes); a direct chimera import
    outside ``repro/hardware/`` silently re-hardwires the 2000Q.
    """
    src_root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
    offenders = []
    for dirpath, _dirnames, filenames in os.walk(src_root):
        if os.path.basename(dirpath) == "hardware":
            continue
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
            if "repro.hardware.chimera" in text:
                offenders.append(os.path.relpath(path, src_root))
    assert not offenders, (
        "direct repro.hardware.chimera imports outside repro/hardware/ "
        f"(use repro.hardware.registry instead): {offenders}"
    )
