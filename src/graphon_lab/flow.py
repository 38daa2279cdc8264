"""Exact solver for cluster assignment with minimum-size constraints.

The problem: given an ``n x K`` cost matrix, assign every item to one
cluster so that each cluster receives at least ``min_size`` items and the
total cost is minimal.  The feasible set is the vertex set of the
transportation polytope (rows sum to one, column sums at least
``min_size``); its constraint matrix is totally unimodular, so the linear
program attains its optimum at an integral vertex and a network-flow
computation returns it exactly.

The lower bounds are removed by the standard transformation: each cluster
gets ``min_size`` mandatory unit "slots", and whatever is not needed to
fill a slot flows to a shared overflow sink at the item's unconstrained
best cost.  Filling the slots is a transportation problem with unit
supplies, solved by shortest augmenting paths
(:func:`scipy.optimize.linear_sum_assignment`) on the regret matrix
``cost[i, k] - min_k cost[i, k]``.

scipy is imported on the first solve whose size floor binds, not when the
module loads: most fits never need it, and loading ``scipy.optimize`` costs
more than half a second of process start.
"""

from __future__ import annotations

import numpy as np

__all__ = ["min_cost_assignment", "InfeasibleSizeError"]


class InfeasibleSizeError(ValueError):
    """Raised when ``K * min_size`` exceeds the number of items."""


def min_cost_assignment(cost: np.ndarray, min_size: int) -> np.ndarray:
    """Labels minimizing ``sum_i cost[i, labels[i]]`` under size floors.

    Parameters
    ----------
    cost : np.ndarray
        ``n x K`` matrix of assignment costs.
    min_size : int
        Lower bound on every cluster's size.

    Returns
    -------
    np.ndarray
        Length-``n`` integer labels; every cluster has at least
        ``min_size`` members and the total cost equals the optimum of the
        relaxed linear program.  Without binding constraints ties go to
        the lowest cluster index.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, K = cost.shape
    if min_size < 0:
        raise ValueError("min_size must be nonnegative")
    if min_size * K > n:
        raise InfeasibleSizeError(
            f"cannot give {K} clusters {min_size} items each with only {n} items"
        )
    base = np.argmin(cost, axis=1)
    if min_size == 0:
        return base
    if np.bincount(base, minlength=K).min() >= min_size:
        return base

    # Deferred: scipy.optimize costs ~0.6 s to import and only binding floors need it.
    from scipy.optimize import linear_sum_assignment

    # Regret of forcing item i into slot-cluster k, relative to the cost it
    # pays anyway at its unconstrained optimum.
    best = cost[np.arange(n), base]
    regret = cost - best[:, None]
    slot_cluster = np.repeat(np.arange(K), min_size)
    slot_rows = regret.T[slot_cluster]  # (K * min_size) x n
    row_ind, col_ind = linear_sum_assignment(slot_rows)
    labels = base.copy()
    labels[col_ind] = slot_cluster[row_ind]
    return labels
