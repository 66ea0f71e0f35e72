"""Backend registry: name -> :class:`~repro.hardware.topology.Topology`.

The single place the rest of the codebase turns a topology *name* into
a topology *object*.  Layers outside ``repro/hardware/`` never import
:mod:`repro.hardware.chimera` directly (a guard test enforces it); they
call :func:`make_topology`:

    >>> topo = make_topology("pegasus", size=6)
    >>> topo.num_qubits
    680

The families form one fixed table, ``_FAMILIES``.  Adding a family is
one row: its name, a factory accepting ``(size, tile)`` keyword
arguments (``tile`` may be ignored by families with a fixed cell shape,
as Pegasus does), and its full-chip default size.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.hardware.topology import (
    ChimeraTopology,
    PegasusTopology,
    Topology,
    ZephyrTopology,
)

__all__ = [
    "available_topologies",
    "make_topology",
    "resolve_family",
]


def _chimera(size: int, tile: Optional[int] = None) -> ChimeraTopology:
    return ChimeraTopology(size, t=4 if tile is None else tile)


def _pegasus(size: int, tile: Optional[int] = None) -> PegasusTopology:
    # Pegasus cells are fixed 12-line blocks; `tile` is accepted for
    # factory-signature uniformity but has no free parameter.
    return PegasusTopology(size)


def _zephyr(size: int, tile: Optional[int] = None) -> ZephyrTopology:
    return ZephyrTopology(size, t=4 if tile is None else tile)


#: name -> (factory(size, tile) -> Topology, full-chip default size):
#: C16 (2000Q), P16 (Advantage), Z15 (Advantage2).
_FAMILIES: Dict[str, Tuple[Callable[..., Topology], int]] = {
    "chimera": (_chimera, 16),
    "pegasus": (_pegasus, 16),
    "zephyr": (_zephyr, 15),
}


def available_topologies() -> Tuple[str, ...]:
    """The family names, sorted."""
    return tuple(sorted(_FAMILIES))


def resolve_family(name: str) -> str:
    """Resolve a family name, unambiguous prefix, or letter code.

    ``"chimera"``, ``"chim"``, and ``"C"`` all resolve to
    ``"chimera"`` -- the lookup compact fleet specs like ``"C16,P8,Z6"``
    (:func:`repro.solvers.fleet.parse_fleet_spec`) are built on.

    Raises:
        KeyError: for unknown names or ambiguous prefixes, listing what
            is available.
    """
    key = str(name).strip().lower()
    if not key:
        raise KeyError("empty topology family name")
    if key in _FAMILIES:
        return key
    matches = [family for family in sorted(_FAMILIES) if family.startswith(key)]
    if len(matches) == 1:
        return matches[0]
    if matches:
        raise KeyError(
            f"ambiguous topology family {name!r}: matches "
            f"{', '.join(matches)}"
        )
    raise KeyError(
        f"unknown topology family {name!r}; available: "
        f"{', '.join(available_topologies())}"
    )


def make_topology(
    name: str,
    size: Optional[int] = None,
    tile: Optional[int] = None,
) -> Topology:
    """Instantiate a topology family.

    Args:
        name: a family name (case-insensitive).
        size: the family size parameter (Chimera/Pegasus ``m``, Zephyr
            ``m``); None picks the family's full-chip default.
        tile: cell tile parameter for families that have one (Chimera
            and Zephyr ``t``); None picks the family default.

    Raises:
        KeyError: for unknown names, listing what is available.
    """
    key = str(name).strip().lower()
    try:
        factory, default_size = _FAMILIES[key]
    except KeyError:
        raise KeyError(
            f"unknown topology {name!r}; available: "
            f"{', '.join(available_topologies())}"
        ) from None
    return factory(size=default_size if size is None else size, tile=tile)
