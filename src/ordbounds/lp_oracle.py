"""Exact linear programming over the transportation polytope.

Optimizes any linear objective sum_kl c_kl p_kl subject to fixed row sums
(treated marginal), fixed column sums (control marginal) and nonnegativity.
Used as an independent cross-check of the closed-form bounds and to compute
sharp bounds on the relative effect alpha = tau + eta - 1.

The solver is the transportation (network) simplex.  Its whole state is the
flow on the 2J-1 basic cells, which form a spanning tree over J row nodes and
J column nodes, starting from the northwest-corner basis.  Each pivot prices
the cells with the tree's potentials u_k + v_l = c_kl and sends flow round the
cycle that the entering cell closes in the tree.  Bland's rule (the first
cell in row-major order with negative reduced cost enters; the smallest cell
among the tied decreasing cells leaves) keeps the highly degenerate polytope
from cycling.  Exact and float inputs share this one code path and differ
only in the number type.  Exact margins and objective run on Python ints:
the flows are the margins times D, the lcm of the margins' denominators, and
the costs are the coefficients times Dc, the lcm of the objective's, priced
with tolerance 0.  Integer supplies and demands keep every basic solution
integral, because the transportation matrix is totally unimodular (Dantzig
1963, Linear Programming and Extensions, ch. 14), and integer costs keep the
potentials integral; the optimum is returned as the Fraction value/(D Dc)
and the matrix as Fractions flow/D.  Float inputs run on floats, priced with
tolerance 1e-12 times the largest |c_kl| so that the stopping rule does not
depend on the objective's scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .distributions import JointDistribution, MarginalPair, _common_denominator, _is_exact
from .exceptions import DimensionMismatch, ValidationError

_PIVOT_TOL = 1e-12


@dataclass(frozen=True)
class LinearObjective:
    """J x J grid of finite objective coefficients c_kl."""

    coeffs: tuple

    def __post_init__(self):
        rows = tuple(tuple(r) for r in self.coeffs)
        object.__setattr__(self, "coeffs", rows)
        J = len(rows)
        for r in rows:
            if len(r) != J:
                raise DimensionMismatch("objective matrix must be square")
        for k, r in enumerate(rows):
            for l, v in enumerate(r):
                # nan or +-inf; compared, not converted, so that exact
                # integers too large for a float pass
                if v != v or abs(v) == math.inf:
                    raise ValidationError(f"objective coefficient at ({k},{l}) is {v}")

    @property
    def J(self) -> int:
        return len(self.coeffs)


def indicator_objective(J: int, strict: bool = False) -> LinearObjective:
    """1(k > l) if strict else 1(k >= l); the tau/eta objectives."""
    return LinearObjective(
        tuple(tuple(1 if (k > l if strict else k >= l) else 0 for l in range(J)) for k in range(J))
    )


def sign_objective(J: int) -> LinearObjective:
    """sign(k - l); the alpha objective."""
    return LinearObjective(
        tuple(tuple((k > l) - (k < l) for l in range(J)) for k in range(J))
    )


def _northwest_basis(p1, p0, J, zero):
    """Northwest-corner rule; returns {(k, l): flow} on exactly 2J-1 basic
    cells spanning the transportation constraints (degenerate zero
    allocations included)."""
    a = list(p1)
    b = list(p0)
    flow = {}
    i = j = 0
    while True:
        x = min(a[i], b[j])
        flow[(i, j)] = x
        a[i] -= x
        b[j] -= x
        if i == J - 1 and j == J - 1:
            break
        if j == J - 1 or (a[i] <= zero and i < J - 1):
            i += 1
        else:
            j += 1
    return flow


def _tree(cells, J):
    """Parent, cell to the parent and depth of every node of the basis tree
    rooted at row 0, and the nodes in breadth-first order.  Node k < J is
    row k, node J + l is column l."""
    adj = [[] for _ in range(2 * J)]
    for i, j in cells:
        adj[i].append((J + j, (i, j)))
        adj[J + j].append((i, (i, j)))
    parent, up, depth = [None] * (2 * J), [None] * (2 * J), [0] * (2 * J)
    order = [0]
    for node in order:
        for nb, cell in adj[node]:
            if nb != parent[node]:
                parent[nb], up[nb], depth[nb] = node, cell, depth[node] + 1
                order.append(nb)
    return parent, up, depth, order


def _potentials(c, parent, up, order, zero):
    """Node potentials with u_0 = 0 and u_k + v_l = c_kl on every basic cell;
    row k's is at index k, column l's at J + l."""
    pot = [zero] * len(order)
    for node in order[1:]:
        k, l = up[node]
        pot[node] = c[k][l] - pot[parent[node]]
    return pot


def _cycle(parent, up, depth, a, b):
    """Basic cells on the tree path from node a to node b, in path order.
    From column j to row i, with the entering cell (i, j) they close the
    pivot cycle: the cells at even positions lose flow, the others gain."""
    head, tail = [], []
    while a != b:
        if depth[a] >= depth[b]:
            head.append(up[a])
            a = parent[a]
        else:
            tail.append(up[b])
            b = parent[b]
    return head + tail[::-1]


def optimize(m: MarginalPair, obj: LinearObjective, sense: str = "max"):
    """Optimum of sum c_kl p_kl over couplings of the given margins.

    Returns (value, argmatrix) where argmatrix is an optimal vertex as a
    JointDistribution; both are exact Fractions when the margins and every
    coefficient are exact.
    """
    if obj.J != m.J:
        raise DimensionMismatch(f"objective is {obj.J}x{obj.J} but marginals have J={m.J}")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    J = m.J
    coeffs = [v for r in obj.coeffs for v in r]
    margins = [*m.treated.probs, *m.control.probs]
    exact = m.exact and _is_exact(coeffs)
    if exact:
        coeffs, Dc = _common_denominator(coeffs)
        margins, D = _common_denominator(margins)
        zero, tol = 0, 0
    else:
        coeffs, margins = [float(v) for v in coeffs], [float(v) for v in margins]
        zero, tol = 0.0, _PIVOT_TOL * max(abs(v) for v in coeffs)
    cvals = [coeffs[k * J:(k + 1) * J] for k in range(J)]
    flip = -1 if sense == "max" else 1
    c = [[flip * v for v in r] for r in cvals]

    flow = _northwest_basis(margins[:J], margins[J:], J, zero)
    while True:
        parent, up, depth, order = _tree(flow, J)
        pot = _potentials(c, parent, up, order, zero)
        entering = next(((i, j) for i in range(J) for j in range(J)
                         if (i, j) not in flow and c[i][j] - pot[i] - pot[J + j] < -tol),
                        None)
        if entering is None:
            break
        i, j = entering
        path = _cycle(parent, up, depth, J + j, i)
        leaving = min(path[0::2], key=lambda cell: (flow[cell], cell))
        theta = flow[leaving]
        for cell in path[0::2]:
            flow[cell] -= theta
        for cell in path[1::2]:
            flow[cell] += theta
        del flow[leaving]
        flow[entering] = theta

    x = [[flow.get((k, l), zero) for l in range(J)] for k in range(J)]
    value = sum(cvals[k][l] * x[k][l] for k in range(J) for l in range(J))
    if exact:   # back from numerators over D and D Dc
        value = Fraction(value, D * Dc)
        x = [[Fraction(v, D) for v in r] for r in x]
    else:
        x = [[0.0 if -1e-10 < v < 0 else v for v in r] for r in x]
    return value, JointDistribution(tuple(tuple(r) for r in x))


def alpha_bounds(m: MarginalPair):
    """Sharp bounds of alpha = pr{Y(1) > Y(0)} - pr{Y(1) < Y(0)}."""
    obj = sign_objective(m.J)
    lo, _ = optimize(m, obj, "min")
    hi, _ = optimize(m, obj, "max")
    return lo, hi
