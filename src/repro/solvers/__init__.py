"""Samplers and solvers that minimize quadratic pseudo-Boolean functions.

The paper runs its compiled Hamiltonians on a D-Wave 2000Q.  Per the
paper's own Section 2 ("the generated H(sigma) can be minimized in
software on conventional computers using, e.g., simulated annealing"),
this package provides the classical stand-ins:

- :mod:`repro.solvers.exact` -- exhaustive enumeration (ground truth for
  tests and small problems).
- :mod:`repro.solvers.neal` -- a vectorized simulated-annealing sampler,
  the equivalent of D-Wave's ``dwave-neal``.
- :mod:`repro.solvers.tabu` -- tabu search, the core of qbsolv.
- :mod:`repro.solvers.qbsolv` -- qbsolv-style decomposition for problems
  larger than the hardware graph.
- :mod:`repro.solvers.machine` -- a D-Wave 2000Q front end: enforces the
  hardware topology and coefficient ranges, models analog control noise
  and the machine's timing, and delegates the physics to annealing.
- :mod:`repro.solvers.csp` -- a constraint-propagation + backtracking
  solver standing in for MiniZinc/Chuffed (the Section 6.2 baseline).
- :mod:`repro.solvers.kernels` -- the shared sweep primitives every
  software annealer above runs on: a native Metropolis tier compiled
  on first use, and dense/sparse numpy tiers with an automatic density
  crossover, all bit-identical.
"""

from repro.solvers.sampleset import Sample, SampleSet
from repro.solvers.exact import ExactSolver
from repro.solvers.neal import SimulatedAnnealingSampler
from repro.solvers.sqa import PathIntegralAnnealer
from repro.solvers.greedy import SteepestDescentSolver
from repro.solvers.tabu import TabuSampler
from repro.solvers.qbsolv import QBSolv
from repro.solvers.machine import DWaveSimulator, MachineProperties
from repro.solvers.csp import CSPModel, CSPSolver

__all__ = [
    "Sample",
    "SampleSet",
    "ExactSolver",
    "SimulatedAnnealingSampler",
    "PathIntegralAnnealer",
    "SteepestDescentSolver",
    "TabuSampler",
    "QBSolv",
    "DWaveSimulator",
    "MachineProperties",
    "CSPModel",
    "CSPSolver",
]
