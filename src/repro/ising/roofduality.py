"""Roof-duality variable fixing (Section 4.4's qubit elision).

qmasm uses SAPI's roof-duality implementation (Hammer, Hansen & Simeone,
1984) to elide qubits whose value in an optimal solution can be
determined a priori.  We reproduce that presolve step with two layers:

1. ``fix_variables_local``: the sound "dominated local field" rule --
   if |h_i| exceeds the total magnitude of i's couplings, sigma_i must
   take the sign that pays for h_i in every optimum.  Iterated to a
   fixpoint so fixings cascade.

2. ``fix_variables_roof``: full roof duality via the Boros-Hammer
   implication network.  The QUBO is rewritten as a posiform (all
   positive coefficients over literals), turned into a flow network in
   which each term a*u*v contributes arcs u -> not(v) and v -> not(u) of
   capacity a/2, and a max-flow from the TRUE literal x0 to its negation
   is computed.  Literals reachable from x0 in the residual network are
   1 in some optimal solution (weak persistency), which is exactly the
   guarantee a presolver needs.

``fix_variables`` runs both and merges the results.
"""

from __future__ import annotations

from typing import Dict, Hashable, Tuple

from repro.ising.model import SPIN_FALSE, SPIN_TRUE, IsingModel

Variable = Hashable


def fix_variables_local(model: IsingModel) -> Dict[Variable, int]:
    """Fix spins whose local field dominates their couplings.

    If |h_i| > sum_j |J_ij| then in any optimum sigma_i = -sign(h_i):
    flipping i to align against h_i costs more than the couplings could
    ever repay.  Fixing one variable folds its couplings into its
    neighbors' fields, so we iterate until no more variables qualify.
    """
    work = model.copy()
    fixed: Dict[Variable, int] = {}
    changed = True
    while changed:
        changed = False
        coupling_weight: Dict[Variable, float] = {v: 0.0 for v in work.variables}
        for (u, v), coupling in work.quadratic.items():
            coupling_weight[u] += abs(coupling)
            coupling_weight[v] += abs(coupling)
        for v, bias in list(work.linear.items()):
            if abs(bias) > coupling_weight[v] and bias != 0.0:
                spin = SPIN_FALSE if bias > 0 else SPIN_TRUE
                fixed[v] = spin
                work = work.fix_variable(v, spin)
                changed = True
                break
        # Also fix isolated zero-field variables arbitrarily?  No: both
        # values are optimal, but callers may care which, so leave them.
    return fixed


def _posiform(model: IsingModel):
    """Rewrite the model's QUBO as a posiform over literals.

    A literal is ``(variable, polarity)`` with polarity True for x and
    False for x-bar.  Returns ``(linear_terms, quadratic_terms)`` where
    every coefficient is strictly positive.
    """
    qubo, _ = model.to_qubo()
    linear: Dict[Tuple[Variable, bool], float] = {}
    quadratic: Dict[Tuple[Tuple[Variable, bool], Tuple[Variable, bool]], float] = {}

    def add_linear(var: Variable, coeff: float) -> None:
        if coeff > 0:
            key = (var, True)
        elif coeff < 0:
            # c*x = c + |c|*(1-x) = c + |c|*xbar
            key = (var, False)
            coeff = -coeff
        else:
            return
        linear[key] = linear.get(key, 0.0) + coeff

    for (u, v), coeff in qubo.items():
        if coeff == 0.0:
            continue
        if u == v:
            add_linear(u, coeff)
        elif coeff > 0:
            key = ((u, True), (v, True))
            quadratic[key] = quadratic.get(key, 0.0) + coeff
        else:
            # c*x*y (c<0) = c*x + |c|*x*ybar
            add_linear(u, coeff)
            key = ((u, True), (v, False))
            quadratic[key] = quadratic.get(key, 0.0) - coeff
    return linear, quadratic


_TRUE = ("__x0__", True)
_FALSE = ("__x0__", False)


def _negate(literal: Tuple[Variable, bool]) -> Tuple[Variable, bool]:
    var, polarity = literal
    return (var, not polarity)


def fix_variables_roof(model: IsingModel) -> Dict[Variable, int]:
    """Weak-persistency fixing via the roof-duality implication network."""
    if len(model) == 0:
        return {}
    # Imported here: only a run with roof duality on (``-O``) needs it.
    import networkx as nx

    linear, quadratic = _posiform(model)

    graph = nx.DiGraph()
    graph.add_node(_TRUE)
    graph.add_node(_FALSE)

    def add_arc(u, v, capacity: float) -> None:
        if graph.has_edge(u, v):
            graph[u][v]["capacity"] += capacity
        else:
            graph.add_edge(u, v, capacity=capacity)

    for (var, polarity), coeff in linear.items():
        literal = (var, polarity)
        # a * u = a * u * x0: arcs x0 -> ubar and u -> x0bar.
        add_arc(_TRUE, _negate(literal), coeff / 2.0)
        add_arc(literal, _FALSE, coeff / 2.0)
    for (lit_u, lit_v), coeff in quadratic.items():
        add_arc(lit_u, _negate(lit_v), coeff / 2.0)
        add_arc(lit_v, _negate(lit_u), coeff / 2.0)

    residual = nx.algorithms.flow.preflow_push(graph, _TRUE, _FALSE)

    # Residual reachability from x0: forward edges with spare capacity
    # plus reverse edges carrying flow.
    spare = nx.DiGraph()
    spare.add_nodes_from(residual.nodes())
    for u, v, data in residual.edges(data=True):
        flow = data.get("flow", 0.0)
        capacity = data.get("capacity", 0.0)
        if capacity - flow > 1e-12:
            spare.add_edge(u, v)
        if flow > 1e-12:
            spare.add_edge(v, u)
    reachable = set(nx.descendants(spare, _TRUE)) | {_TRUE}

    fixed: Dict[Variable, int] = {}
    for var in model.variables:
        true_reached = (var, True) in reachable
        false_reached = (var, False) in reachable
        if true_reached and not false_reached:
            fixed[var] = SPIN_TRUE
        elif false_reached and not true_reached:
            fixed[var] = SPIN_FALSE
    return fixed


def fix_variables(model: IsingModel, method: str = "roof") -> Dict[Variable, int]:
    """Determine spins that hold in some optimal solution.

    Args:
        model: the Ising model to presolve.
        method: ``"local"`` for the dominated-field rule only, ``"roof"``
            for roof duality (which subsumes the local rule).

    Returns:
        Mapping of variable -> spin for every variable whose optimal
        value could be determined.  Apply with
        :meth:`IsingModel.fix_variable` to shrink the problem.
    """
    if method == "local":
        return fix_variables_local(model)
    if method == "roof":
        fixed = fix_variables_roof(model)
        if fixed:
            remaining = model
            for var, spin in fixed.items():
                remaining = remaining.fix_variable(var, spin)
            for var, spin in fix_variables(remaining, method="roof").items():
                fixed[var] = spin
        return fixed
    raise ValueError(f"unknown method {method!r}")
