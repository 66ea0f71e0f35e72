"""Hand-coded unary map-coloring Hamiltonians (Section 6.1's baseline).

The paper contrasts its Verilog flow with "the tallies that one might
see when hand-coding a quadratic pseudo-Boolean function corresponding
to the map-coloring problem": following Dahl, Lucas, and Rieffel et al.,
one uses a *unary* (one-hot) encoding -- one spin per (region, color) --
giving 4 variables x 7 regions = 28 logical variables for Australia,
versus the Verilog flow's ~74.

This module implements that hand encoding so the comparison can be
measured rather than quoted.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.ising.model import IsingModel

#: Australia's states and territories (Tasmania excluded, as in the
#: paper: it is an island and independent of the mainland coloring).
AUSTRALIA_REGIONS: List[str] = ["NSW", "QLD", "SA", "VIC", "WA", "NT", "ACT"]
AUSTRALIA_ADJACENT: List[Tuple[str, str]] = [
    ("WA", "NT"), ("WA", "SA"), ("NT", "SA"), ("NT", "QLD"),
    ("SA", "QLD"), ("SA", "NSW"), ("SA", "VIC"), ("QLD", "NSW"),
    ("NSW", "VIC"), ("NSW", "ACT"),
]


def unary_map_coloring_model(
    regions: Sequence[str] = tuple(AUSTRALIA_REGIONS),
    adjacent: Iterable[Tuple[str, str]] = tuple(AUSTRALIA_ADJACENT),
    num_colors: int = 4,
    one_hot_strength: float = 2.0,
    conflict_strength: float = 1.0,
) -> IsingModel:
    """The Dahl/Lucas one-hot map-coloring Hamiltonian.

    One spin variable ``(region, color)`` per region-color pair.  In
    QUBO terms the energy is::

        sum_r A * (1 - sum_c x_{r,c})^2          (exactly one color)
      + sum_{(r,s) adjacent} sum_c B * x_{r,c} x_{s,c}   (no conflicts)

    converted to spins.  Ground states correspond exactly to proper
    colorings.

    Args:
        regions: region names.
        adjacent: adjacency pairs (each region name must appear in
            ``regions``).
        num_colors: colors available (4 for the four-color theorem).
        one_hot_strength: penalty weight A for the one-hot constraint.
        conflict_strength: penalty weight B for adjacent same-color
            pairs; must satisfy ``B < 2A`` so breaking one-hotness never
            pays.

    Returns:
        An :class:`IsingModel` over ``(region, color)`` tuples.
    """
    if num_colors < 1:
        raise ValueError("need at least one color")
    if not 0 < conflict_strength < 2 * one_hot_strength:
        raise ValueError("require 0 < conflict_strength < 2 * one_hot_strength")
    region_set = set(regions)
    qubo: Dict[Tuple, float] = {}

    def add(u, v, coeff):
        key = (u, v) if u == v or repr(u) <= repr(v) else (v, u)
        qubo[key] = qubo.get(key, 0.0) + coeff

    offset = 0.0
    for region in regions:
        # A * (1 - sum_c x)^2 = A - 2A sum x + A (sum x)^2
        offset += one_hot_strength
        for c in range(num_colors):
            var = (region, c)
            add(var, var, -2.0 * one_hot_strength)  # from -2A sum x
            add(var, var, one_hot_strength)  # x^2 == x diagonal
            for d in range(c + 1, num_colors):
                add(var, (region, d), 2.0 * one_hot_strength)
    for r, s in adjacent:
        if r not in region_set or s not in region_set:
            raise ValueError(f"adjacency ({r}, {s}) references unknown region")
        for c in range(num_colors):
            add((r, c), (s, c), conflict_strength)

    return IsingModel.from_qubo(qubo, offset)
