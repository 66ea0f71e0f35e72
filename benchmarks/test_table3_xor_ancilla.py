"""T3 -- Table 3: augmenting the XOR truth table with one ancilla.

The plain XOR system of inequalities is unsolvable; the paper reports
that adding a single ancilla column makes it solvable, and that 8 of the
16 possible augmentations work.  This benchmark enumerates all 16
single-ancilla augmentations of XOR's four valid rows and counts the
solvable ones.
"""

import itertools

from repro.ising.penalty import (
    _solve_system,
    synthesize_penalty,
    truth_table_of,
)

XOR_ROWS = [
    tuple(1 if b else -1 for b in row)
    for row in truth_table_of(lambda a, b: a != b, 2)
]


def _count_solvable_augmentations():
    solvable = []
    for ancilla_column in itertools.product((-1, 1), repeat=4):
        augmented = [
            row + (anc,) for row, anc in zip(XOR_ROWS, ancilla_column)
        ]
        if len(set(augmented)) != 4:
            continue
        solution = _solve_system(
            augmented, 4, h_range=(-2.0, 2.0), j_range=(-1.0, 1.0),
            min_gap=1e-3,
        )
        if solution is not None:
            solvable.append(ancilla_column)
    return solvable


def test_table3_eight_workable_augmentations(benchmark):
    solvable = benchmark(_count_solvable_augmentations)
    # "Table 3 presents one of the eight possible ways to augment the
    # truth table for XOR."
    assert len(solvable) == 8
    # Table 3's specific augmentation: rows (Y,A,B) = FFF,TFT,TTF,FTT
    # get ancilla F,T,F,F.  In our row order (output first, inputs
    # counting up: FFF, TFT, TTF, FTT) that is (-1, +1, -1, -1).
    assert (-1, 1, -1, -1) in solvable
    benchmark.extra_info["paper"] = "8 of 16 augmentations solvable"
    benchmark.extra_info["measured_solvable"] = len(solvable)


def test_table3_constant_ancilla_never_works(benchmark):
    """A constant ancilla column adds no degrees of freedom."""

    def check():
        out = []
        for constant in (-1, 1):
            augmented = [row + (constant,) for row in XOR_ROWS]
            out.append(
                _solve_system(
                    augmented, 4, (-2.0, 2.0), (-1.0, 1.0), 1e-3
                )
            )
        return out

    results = benchmark(check)
    assert results == [None, None]


def test_table3_synthesizer_finds_augmentation_automatically(benchmark):
    penalty = benchmark(
        lambda: synthesize_penalty(
            truth_table_of(lambda a, b: a != b, 2),
            ["Y", "A", "B"],
            max_ancillas=1,
        )
    )
    assert len(penalty.ancillas) == 1
    assert len(penalty.augmentation) == 4
    benchmark.extra_info["chosen_augmentation"] = [
        anc[0] for anc in penalty.augmentation
    ]
    benchmark.extra_info["gap"] = penalty.gap
