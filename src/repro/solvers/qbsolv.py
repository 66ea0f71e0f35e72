"""qbsolv-style decomposition: split problems too large for the hardware.

The paper notes qmasm can run programs "indirectly through qbsolv, which
can split large problems into sub-problems that fit on the D-Wave
hardware".  This module reproduces that flow: keep a full-size incumbent
assignment, repeatedly carve out a subset of variables (those with the
largest energy impact, plus their neighborhoods), clamp everything else,
solve the induced subproblem with tabu search, and accept improvements
until no subproblem helps.  Decomposition onto the simulated hardware
itself is :class:`~repro.solvers.shard.ShardSolver`'s job.

Reads are embarrassingly parallel: every read runs on a private RNG and
tabu subsolver built from a seed the parent RNG drew upfront, so
``max_workers > 1`` (a process pool over reads) returns bit-identical
samples to a serial run.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Hashable, List, Optional

import numpy as np

from repro.core.trace import observe_sample as _observe_sample
from repro.ising.model import IsingModel
from repro.solvers.sampleset import SampleSet
from repro.solvers.tabu import TabuSampler

Variable = Hashable


def clamped_subproblem(
    model: IsingModel,
    assignment: Dict[Variable, int],
    region: List[Variable],
) -> IsingModel:
    """Fix every variable outside ``region`` at its incumbent spin.

    Boundary couplings fold into the linear biases of the region's
    variables and fully-external terms fold into the offset, so the
    subproblem's energy of any region assignment equals the full
    model's energy of (region assignment + clamped incumbent).  The
    interaction *structure* of the subproblem depends only on the
    region, never on the incumbent -- which is what lets
    :class:`~repro.solvers.shard.ShardSolver` reuse one minor embedding
    per region across every round.
    """
    region_set = set(region)
    sub = IsingModel(offset=model.offset)
    for v in region:
        sub.add_variable(v, model.linear.get(v, 0.0))
    for (u, v), coupling in model.quadratic.items():
        u_in, v_in = u in region_set, v in region_set
        if u_in and v_in:
            sub.add_interaction(u, v, coupling)
        elif u_in:
            sub.add_variable(u, coupling * assignment[v])
        elif v_in:
            sub.add_variable(v, coupling * assignment[u])
        else:
            sub.offset += coupling * assignment[u] * assignment[v]
    for v, bias in model.linear.items():
        if v not in region_set:
            sub.offset += bias * assignment[v]
    return sub


def _solve_read(job) -> Dict:
    """One full decomposed solve on a private solver (process-pool safe).

    Module-level so it pickles; the seed in ``job`` fully determines the
    read's RNG and subsolver, making results independent of scheduling.
    """
    model, subproblem_size, num_repeats, seed = job
    solver = QBSolv(subproblem_size=subproblem_size, seed=seed)
    return solver._solve_one(model, num_repeats)


class QBSolv:
    """Decomposing solver with a tabu-search subproblem sampler."""

    def __init__(
        self,
        subproblem_size: int = 48,
        seed: Optional[int] = None,
        max_workers: Optional[int] = None,
    ):
        """Args:
            subproblem_size: maximum variables per subproblem (on real
                hardware this is bounded by the working graph size).
            seed: RNG seed for restarts and region selection.
            max_workers: default process-pool size for multi-read solves
                (overridable per :meth:`sample` call).
        """
        self.subproblem_size = subproblem_size
        self.subsolver = TabuSampler(seed=seed)
        self.max_workers = max_workers
        self._rng = np.random.default_rng(seed)

    def sample(
        self,
        model: IsingModel,
        num_repeats: int = 10,
        num_reads: int = 1,
        max_workers: Optional[int] = None,
    ) -> SampleSet:
        """Minimize ``model``, decomposing if it exceeds the subproblem size.

        Args:
            model: the Ising model to minimize.
            num_repeats: outer iterations without improvement before a
                read terminates.
            num_reads: independent solves, each contributing one row.
            max_workers: run reads in a process pool of this size
                (defaults to the constructor's value).  Per-read seeds
                are drawn from the parent RNG before dispatch, so the
                samples are bit-identical to a serial run.
        """
        if num_reads < 1:
            raise ValueError("num_reads must be positive")
        order = list(model.variables)
        if len(order) <= self.subproblem_size:
            return self.subsolver.sample(model, num_reads=num_reads)
        if max_workers is None:
            max_workers = self.max_workers
        start = time.perf_counter()

        # Each read gets a private solver rebuilt from a seed drawn here,
        # serially -- scheduling cannot change the answer.
        seeds = self._rng.integers(0, 2**63, size=num_reads)
        jobs = [
            (model, self.subproblem_size, num_repeats, int(seed))
            for seed in seeds
        ]
        if max_workers is not None and max_workers > 1 and num_reads > 1:
            with ProcessPoolExecutor(max_workers=max_workers) as pool:
                rows = list(pool.map(_solve_read, jobs))
        else:
            rows = [_solve_read(job) for job in jobs]
        records = np.array(
            [[assignment[v] for v in order] for assignment in rows], dtype=np.int8
        )
        elapsed = time.perf_counter() - start
        result = SampleSet.from_array(
            order,
            records,
            model,
            info={
                "solver": "qbsolv",
                "subproblem_size": self.subproblem_size,
                "num_reads": num_reads,
                "max_workers": max_workers,
            },
        )
        _observe_sample("qbsolv", result, elapsed, num_reads=num_reads,
                        subproblem_size=self.subproblem_size,
                        variables=len(order))
        return result

    # ------------------------------------------------------------------
    def _solve_one(
        self, model: IsingModel, num_repeats: int
    ) -> Dict[Variable, int]:
        rng = self._rng
        assignment: Dict[Variable, int] = {
            v: int(rng.choice([-1, 1])) for v in model.variables
        }
        energy = model.energy(assignment)
        stall = 0
        use_impact = True
        while stall < num_repeats:
            # Alternate region strategies: impact-ranked regions target
            # the worst local contributions; BFS-connected regions sweep
            # out domain walls that span any single impact region.
            if use_impact:
                region = self._select_region(model, assignment, rng)
            else:
                region = self._select_connected_region(model, rng)
            use_impact = not use_impact
            sub = clamped_subproblem(model, assignment, region)
            best = self.subsolver.sample(sub, num_reads=1).first
            candidate = dict(assignment)
            candidate.update(best.assignment)
            candidate_energy = model.energy(candidate)
            if candidate_energy < energy - 1e-12:
                assignment, energy = candidate, candidate_energy
                stall = 0
            elif candidate_energy <= energy + 1e-12:
                # Plateau move: accept (lets domain walls drift until
                # they annihilate) but count toward the stall budget.
                assignment, energy = candidate, candidate_energy
                stall += 1
            else:
                stall += 1
        return assignment

    def _select_region(
        self,
        model: IsingModel,
        assignment: Dict[Variable, int],
        rng: np.random.Generator,
    ) -> List[Variable]:
        """Pick the variables with the largest local energy impact.

        Impact of flipping v is |2 s_v (h_v + sum J s)|; qbsolv similarly
        ranks variables by how much changing them could lower the
        energy.  Ties and exploration are randomized.
        """
        impact: Dict[Variable, float] = {}
        linear = model.linear
        for v in linear:
            field = linear[v]
            impact[v] = field * assignment[v]
        for (u, v), coupling in model.quadratic.items():
            term = coupling * assignment[u] * assignment[v]
            impact[u] = impact.get(u, 0.0) + term
            impact[v] = impact.get(v, 0.0) + term
        # Positive contribution == currently paying energy: flip candidates.
        scored = sorted(
            impact, key=lambda v: impact[v] + rng.normal(0, 1e-6), reverse=True
        )
        return scored[: self.subproblem_size]

    def _select_connected_region(
        self, model: IsingModel, rng: np.random.Generator
    ) -> List[Variable]:
        """A BFS ball around a random variable in the interaction graph."""
        adjacency: Dict[Variable, List[Variable]] = {v: [] for v in model.variables}
        for (u, v), coupling in model.quadratic.items():
            if coupling != 0.0:
                adjacency[u].append(v)
                adjacency[v].append(u)
        order = list(model.variables)
        start = order[int(rng.integers(0, len(order)))]
        region: List[Variable] = []
        seen = {start}
        queue = [start]
        while queue and len(region) < self.subproblem_size:
            v = queue.pop(0)
            region.append(v)
            for u in adjacency[v]:
                if u not in seen:
                    seen.add(u)
                    queue.append(u)
        # Pad with random variables if the component was small.
        if len(region) < self.subproblem_size:
            extras = [v for v in order if v not in seen]
            rng.shuffle(extras)
            region.extend(extras[: self.subproblem_size - len(region)])
        return region
