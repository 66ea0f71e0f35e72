"""Steepest-descent postprocessing (SAPI's 'optimization' postprocess).

Deterministic single-spin-flip descent: repeatedly flip the spin whose
flip lowers the energy most, per read, until no flip helps.  Used to
polish annealer samples into local minima; also usable as a (weak)
standalone solver from random starts.

All reads descend simultaneously, and each accepted flip's field update
goes through the shared dense/sparse kernels -- on embedded (degree <=
6) models the sparse backend makes a descent step O(reads * degree)
instead of O(reads * n).
"""

from __future__ import annotations

import time
from typing import Optional

import numpy as np

from repro.core.trace import observe_sample as _observe_sample
from repro.ising.model import IsingModel
from repro.solvers import kernels
from repro.solvers.sampleset import SampleSet


class SteepestDescentSolver:
    """Vectorized greedy descent over many reads at once."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def sample(
        self,
        model: IsingModel,
        num_reads: int = 10,
        initial_states: Optional[np.ndarray] = None,
        max_sweeps: int = 1000,
        kernel: Optional[str] = None,
        deadline=None,
    ) -> SampleSet:
        """Descend to a local minimum from each start.

        Args:
            model: the Ising model to minimize.
            num_reads: reads when ``initial_states`` is None (random
                starts); otherwise inferred from the given states.
            initial_states: optional (reads, n) spin matrix to polish.
            max_sweeps: safety bound on descent sweeps.
            kernel: ``"dense"``/``"sparse"`` to force a field-update
                tier; None picks by model size, density, and the number
                of rows descending together.
            deadline: optional :class:`~repro.core.deadline.Deadline`;
                checked once per descent sweep.  Expiry stops the
                descent cleanly mid-way (states may not yet be local
                minima) and sets ``info["deadline_interrupted"]``.
        """
        order = list(model.variables)
        n = len(order)
        if n == 0:
            return SampleSet.empty([])
        _, h_vec, indptr, indices, data = model.to_csr()

        if initial_states is not None:
            spins = np.array(initial_states, dtype=float)
            if spins.ndim != 2 or spins.shape[1] != n:
                raise ValueError(f"initial_states must be (reads, {n})")
        else:
            spins = self._rng.choice([-1.0, 1.0], size=(num_reads, n))
        chosen = kernels.choose_kernel(
            n, len(indices), kernel, num_reads=len(spins)
        )

        start = time.perf_counter()
        fields = kernels.init_local_fields(h_vec, indptr, indices, data, spins)
        flip = kernels.make_mixed_flip_updater(chosen, indptr, indices, data)
        interrupted = False
        for _ in range(max_sweeps):
            if deadline is not None and deadline.expired():
                interrupted = True
                break
            # Energy change of each candidate flip; positive s*field
            # means flipping lowers the energy by 2*s*field.
            gains = 2.0 * spins * fields
            best = np.argmax(gains, axis=1)
            rows = np.arange(len(spins))
            improving = gains[rows, best] > 1e-12
            if not improving.any():
                break
            flip(spins, fields, rows[improving], best[improving])

        elapsed = time.perf_counter() - start
        info = {"solver": "steepest-descent", "kernel": chosen}
        if interrupted:
            info["deadline_interrupted"] = True
        result = SampleSet.from_array(
            order,
            spins.astype(np.int8),
            model,
            info=info,
        )
        _observe_sample("greedy", result, elapsed, kernel=chosen,
                        num_reads=len(spins))
        return result

    def polish(self, sampleset: SampleSet, model: IsingModel) -> SampleSet:
        """Descend from an existing sample set's rows."""
        order = list(model.variables)
        positions = [sampleset.variables.index(v) for v in order]
        return self.sample(
            model, initial_states=sampleset.records[:, positions]
        )
