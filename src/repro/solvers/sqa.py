"""Simulated quantum annealing: path-integral Monte Carlo.

Section 2 of the paper notes its compilation approach applies equally to
classical annealers such as "Hitachi's simulated quantum annealer",
which minimizes the same H(sigma) via the path-integral Monte Carlo
method (Okuyama, Hayashi & Yamaoka, ICRC 2017).  This module implements
that algorithm.

The transverse-field Ising Hamiltonian

    H(s) = A(s) * sum_i sigma^x_i  +  B(s) * H_problem(sigma^z)

is Suzuki-Trotter decomposed into P coupled classical replicas
("imaginary-time slices") of the problem.  Replica k sees the problem
couplings scaled by B/P plus a ferromagnetic coupling

    J_perp = -(P*T/2) * ln(tanh(A / (P*T)))

between each spin and its copies in the neighboring slices.  Annealing
ramps A down (B up), letting quantum-style fluctuations -- collective
flips that tunnel through barriers -- relax the system; at the end, each
replica is a candidate classical solution.

All ``num_reads`` trajectories run simultaneously: the Monte Carlo
state is one ``(num_reads * trotter_slices, n)`` spin matrix, so a
single flip proposal is vectorized across every read and every slice,
and the incremental field updates go through the shared dense/sparse
kernels in :mod:`repro.solvers.kernels`.
"""

from __future__ import annotations

import time
from typing import Optional, Tuple

from repro.core.trace import observe_sample as _observe_sample

import numpy as np

from repro.ising.model import IsingModel
from repro.solvers import kernels
from repro.solvers.sampleset import SampleSet


class PathIntegralAnnealer:
    """Transverse-field Ising model annealer via Suzuki-Trotter PIMC."""

    def __init__(self, seed: Optional[int] = None):
        self._rng = np.random.default_rng(seed)

    def sample(
        self,
        model: IsingModel,
        num_reads: int = 10,
        num_sweeps: int = 500,
        trotter_slices: int = 16,
        temperature: float = 0.05,
        transverse_field: Tuple[float, float] = (2.0, 1e-8),
        kernel: Optional[str] = None,
        deadline=None,
    ) -> SampleSet:
        """Anneal the transverse field from strong to (near) zero.

        Args:
            model: the problem Hamiltonian (the sigma^z part).
            num_reads: independent annealing trajectories (all run
                batched in one spin matrix).
            num_sweeps: Monte Carlo sweeps per trajectory; the field
                ramps linearly across them.
            trotter_slices: P, the number of imaginary-time replicas.
            temperature: the simulation temperature T (in energy units
                of the problem); low T sharpens the final state.
            transverse_field: (initial, final) field strengths A; the
                initial value should dominate the problem couplings, the
                final value should be ~0.
            kernel: ``"dense"``/``"sparse"`` to force a sweep tier;
                None picks by model size, density, and batch width
                (rows here = reads x Trotter slices).
            deadline: optional :class:`~repro.core.deadline.Deadline`;
                the Monte Carlo loop polls it once per sweep (PIMC
                sweeps span all slices, so one sweep *is* the batch)
                and stops cleanly when it expires, returning the best
                replicas found so far with
                ``info["deadline_interrupted"]`` set.

        Returns:
            A :class:`SampleSet` with one row per read: the best replica
            of the final configuration (lowest problem energy).  Timing
            lands in ``info["sampling_time_s"]`` with the per-read sweep
            rate under ``info["sweeps_per_s"]`` (and ``num_reads``), so
            SQA throughput is directly comparable with neal's.
        """
        order = list(model.variables)
        n = len(order)
        if n == 0:
            return SampleSet.empty([])
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        if num_sweeps < 1:
            raise ValueError("num_sweeps must be positive")
        if trotter_slices < 2:
            raise ValueError("trotter_slices must be >= 2")
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        field_start, field_end = transverse_field
        if field_start <= 0 or field_end <= 0 or field_end > field_start:
            raise ValueError("transverse_field must ramp from high to low > 0")

        _, h_vec, indptr, indices, data = model.to_csr()
        chosen = kernels.choose_kernel(
            n, len(indices), kernel, num_reads=num_reads * trotter_slices
        )
        beta = 1.0 / temperature
        slices = trotter_slices
        # Problem couplings are shared by each slice at strength 1/P
        # (the B(s) schedule is folded into the constant problem term,
        # the standard PIMC simplification).
        slice_beta = beta / slices
        fields_schedule = np.linspace(field_start, field_end, num_sweeps)

        start = time.perf_counter()
        # One batched Monte Carlo state: row r*P + k is slice k of read r.
        spins = self._rng.choice([-1.0, 1.0], size=(num_reads * slices, n))
        local = kernels.init_local_fields(h_vec, indptr, indices, data, spins)
        flip = kernels.make_flip_updater(chosen, indptr, indices, data)

        accepted = 0
        completed = 0
        for field in fields_schedule:
            if deadline is not None and deadline.expired():
                break
            # Inter-slice ferromagnetic coupling from the Trotter
            # decomposition; diverges as the field -> 0, freezing the
            # replicas together.
            gamma = max(field, 1e-12)
            j_perp = -0.5 / slice_beta * np.log(np.tanh(gamma * slice_beta))
            for i in self._rng.permutation(n):
                column = spins[:, i]
                ring = column.reshape(num_reads, slices)
                neighbors = (
                    np.roll(ring, 1, axis=1) + np.roll(ring, -1, axis=1)
                ).reshape(-1)
                # Action change of flipping variable i in slice k of
                # read r: problem energy changes by -2 s * local; the
                # ferromagnetic inter-slice energy -J_perp s (up+down)
                # changes by +2 J_perp s (up+down).
                delta_action = 2.0 * slice_beta * column * (
                    j_perp * neighbors - local[:, i]
                )
                accept = delta_action <= 0.0
                uphill = ~accept
                if uphill.any():
                    accept[uphill] = (
                        self._rng.random(int(uphill.sum()))
                        < np.exp(-delta_action[uphill])
                    )
                if accept.any():
                    rows = np.where(accept)[0]
                    flip(spins, local, i, rows)
                    accepted += len(rows)
            completed += 1

        # Report each read's best slice as its classical readout.
        energies = kernels.batched_energies(
            h_vec, indptr, indices, data, spins
        ).reshape(num_reads, slices)
        best_slice = np.argmin(energies, axis=1)
        rows = best_slice + np.arange(num_reads) * slices
        best_rows = spins[rows].astype(np.int8)
        elapsed = time.perf_counter() - start

        info = {
            "solver": "simulated-quantum-annealing",
            "kernel": chosen,
            "trotter_slices": slices,
            "temperature": temperature,
            "num_reads": num_reads,
            "num_sweeps": num_sweeps,
            "sampling_time_s": elapsed,
            "sweeps_per_s": num_sweeps / elapsed if elapsed > 0 else 0.0,
            "accepted_flips": int(accepted),
        }
        if completed < num_sweeps:
            info["deadline_interrupted"] = True
            info["num_sweeps_completed"] = int(completed)
        result = SampleSet.from_array(
            order,
            best_rows,
            model,
            info=info,
        )
        _observe_sample("sqa", result, elapsed, kernel=chosen,
                        num_reads=num_reads, num_sweeps=num_sweeps,
                        trotter_slices=slices)
        return result
