"""Vectorized simulated-annealing sampler (the ``dwave-neal`` stand-in).

Simulated annealing is the classical algorithm that quantum annealing
physically implements minus the tunneling (Section 2); the paper itself
lists it as a valid software minimizer for the compiled Hamiltonians.

Implementation notes:

- All reads anneal in parallel as rows of a numpy spin matrix.
- Local fields ``f = h + J s`` are maintained incrementally through the
  shared sweep kernels in :mod:`repro.solvers.kernels`: a single
  spin-flip proposal is O(num_reads) to evaluate, and the field update
  is O(num_reads * n) on the dense kernel or O(num_reads * degree) on
  the sparse and native kernels.  The native tier (one C call per
  sweep) runs whenever its library loads; otherwise the dense/sparse
  crossover picks a numpy tier, and embedded problems (Chimera degree
  <= 6) take the sparse one.  Every tier returns the same samples.
- The temperature follows a geometric beta schedule whose default range
  is derived from the model's coefficient magnitudes, mirroring neal's
  heuristic: hot enough to accept the worst single flip with probability
  1/2, cold enough that the smallest energy step is frozen out.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

import numpy as np

from repro.core.trace import observe_sample as _observe_sample
from repro.ising.model import IsingModel
from repro.solvers import kernels
from repro.solvers.sampleset import SampleSet


def default_beta_range(model: IsingModel) -> Tuple[float, float]:
    """Heuristic (beta_hot, beta_cold) from coefficient magnitudes."""
    field = {v: abs(bias) for v, bias in model.linear.items()}
    for (u, v), coupling in model.quadratic.items():
        field[u] = field.get(u, 0.0) + abs(coupling)
        field[v] = field.get(v, 0.0) + abs(coupling)
    max_delta = 2.0 * max(field.values(), default=1.0)
    nonzero = [abs(c) for c in model.linear.values() if c != 0.0]
    nonzero += [abs(c) for c in model.quadratic.values() if c != 0.0]
    min_delta = 2.0 * (min(nonzero) if nonzero else 1.0)
    beta_hot = np.log(2.0) / max(max_delta, 1e-12)
    beta_cold = np.log(100.0) / max(min_delta, 1e-12)
    if beta_cold <= beta_hot:
        beta_cold = beta_hot * 10.0
    return float(beta_hot), float(beta_cold)


class SimulatedAnnealingSampler:
    """Metropolis single-spin-flip simulated annealing over Ising models."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def sample(
        self,
        model: IsingModel,
        num_reads: int = 100,
        num_sweeps: int = 1000,
        beta_range: Optional[Tuple[float, float]] = None,
        initial_states: Optional[np.ndarray] = None,
        kernel: Optional[str] = None,
        deadline=None,
    ) -> SampleSet:
        """Anneal ``num_reads`` independent replicas of the model.

        Args:
            model: the Ising model to minimize.
            num_reads: number of independent anneals (paper Section 5.4
                runs thousands to amortize overhead and raise the chance
                of a correct solution).
            num_sweeps: Metropolis sweeps per anneal; each sweep proposes
                one flip per variable.
            beta_range: (hot, cold) inverse temperatures; defaults to a
                range derived from the coefficients.
            initial_states: optional (num_reads, n) spin matrix (values
                strictly in {-1, +1}) to start from instead of uniform
                random states; any memory order.
            kernel: ``"native"``/``"dense"``/``"sparse"`` to force a
                sweep tier; None takes ``native`` when its library loads
                and otherwise picks by model size, density, and
                read-batch width
                (:func:`repro.solvers.kernels.choose_metropolis_kernel`).
            deadline: optional :class:`~repro.core.deadline.Deadline`;
                the sweep loop stops cooperatively at sweep-batch
                granularity when it expires (never raises).  A short run
                sets ``info["deadline_interrupted"]`` and reports the
                sweeps actually completed.

        Returns:
            A :class:`SampleSet` sorted by energy, with timing info under
            ``info["sampling_time_s"]`` and the sweep rate under
            ``info["sweeps_per_s"]``.
        """
        order = list(model.variables)
        n = len(order)
        if n == 0:
            return SampleSet.empty([])
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        if num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")

        _, h_vec, indptr, indices, data = model.to_csr()
        chosen = kernels.choose_metropolis_kernel(
            n, len(indices), kernel, num_reads=num_reads
        )
        if beta_range is None:
            beta_range = default_beta_range(model)
        beta_hot, beta_cold = beta_range
        if beta_hot <= 0 or beta_cold < beta_hot:
            raise ValueError(f"invalid beta range {beta_range!r}")
        betas = np.geomspace(beta_hot, beta_cold, num_sweeps)

        start = time.perf_counter()
        if initial_states is not None:
            raw = np.asarray(initial_states)
            if raw.shape != (num_reads, n):
                raise ValueError(
                    f"initial_states must be ({num_reads}, {n}), got {raw.shape}"
                )
            bad = np.abs(raw) != 1
            if bad.any():
                offender = raw[bad].ravel()[0]
                raise ValueError(
                    "initial_states must contain only +/-1 spins, "
                    f"found {offender!r}"
                )
            # C order whatever the caller's layout: the native tier
            # walks each read's row in place.
            spins = raw.astype(float, order="C")
        else:
            spins = self._rng.choice([-1.0, 1.0], size=(num_reads, n))

        # Local fields: fields[r, i] = h_i + sum_j J_ij s_rj.
        fields = kernels.init_local_fields(h_vec, indptr, indices, data, spins)
        sweep_stats: dict = {}
        accepted = kernels.run_metropolis_sweeps(
            self._rng, spins, fields, betas, chosen, indptr, indices, data,
            deadline=deadline, stats=sweep_stats,
        )
        elapsed = time.perf_counter() - start
        completed = sweep_stats.get("sweeps_completed", num_sweeps)

        info = {
            "solver": "simulated-annealing",
            "kernel": chosen,
            "num_reads": num_reads,
            "num_sweeps": num_sweeps,
            "beta_range": (float(beta_hot), float(beta_cold)),
            "sampling_time_s": elapsed,
            "sweeps_per_s": num_sweeps / elapsed if elapsed > 0 else 0.0,
            "accepted_flips": int(accepted),
        }
        if completed < num_sweeps:
            info["deadline_interrupted"] = True
            info["num_sweeps_completed"] = int(completed)
        result = SampleSet.from_array(
            order,
            spins.astype(np.int8),
            model,
            info=info,
        )
        _observe_sample("sa", result, elapsed, kernel=chosen,
                        num_reads=num_reads, num_sweeps=num_sweeps,
                        variables=n)
        return result
