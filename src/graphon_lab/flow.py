"""Exact solver for cluster assignment with minimum-size constraints.

The problem: given an ``n x K`` cost matrix, assign every item to one
cluster so that each cluster receives at least ``min_size`` items and the
total cost is minimal.  The feasible set is the vertex set of the
transportation polytope (rows sum to one, column sums at least
``min_size``); its constraint matrix is totally unimodular, so the linear
program attains its optimum at an integral vertex and a network-flow
computation returns it exactly.

The solver works on the K-node cluster graph instead of the n items
(the min-cost-flow view of size-constrained k-means: Bradley, Bennett and
Demiriz 2000; successive shortest paths: Ahuja, Magnanti and Orlin,
*Network Flows*, ch. 9).  It starts from the unconstrained argmin and
keeps the regrets ``R[i, b] = cost[i, b] - cost[i, label_i]`` of moving
item i from its current cluster to b.  ``W[a, b]``, the smallest regret
over the members of a, is the cost of the edge a -> b; a path from a
cluster with a spare member (more than ``min_size``) to a deficit cluster
moves one item along each of its edges.  A moved item's way back has
negative regret, so distances come from Bellman-Ford.

Each round runs one Bellman-Ford on W from every cluster with a spare
member, then augments one tree path into every deficit cluster whose
path uses items not yet moved in this round.  A path's items are the
cheapest members as the clusters stood at the start of the round, so
every move is tight for the round's distances and the residual graph
stays free of negative cycles (picking them after earlier moves of the
same round can create one).  When a spare cluster s feeds a deficit t
directly and t has lost no member in the round, t also takes further
members of s in increasing regret, and stops at the first member already
moved, at t's deficit, at s's spare, or at the first regret above the
cheapest way into t through any other cluster x, ``min dist[x] +
W[x, t]``: successive-shortest-path distances never fall, so that bound
holds for every later path into t and each such move is itself a
shortest-path augmentation.  After the round the rows of W of the
clusters whose members changed are recomputed.

Cost: O(n K) to set up W, O(K^2) per Bellman-Ford pass (at most K passes
per round) and O(n K) per round to refresh W.  A round fills at least one
missing item, so there are at most as many rounds as items missing from
the deficit clusters, and usually far fewer.  Ties: without a binding
floor an item goes to the lowest cluster index among its cheapest;
among members of one cluster with equal regret, the lowest item index
moves.  Bellman-Ford ignores improvements below the rounding error of a
K-edge path, so on non-integer costs the total is optimal up to that
rounding.
"""

from __future__ import annotations

import itertools

import numpy as np

__all__ = ["min_cost_assignment", "InfeasibleSizeError"]

_EPS = np.finfo(np.float64).eps


class InfeasibleSizeError(ValueError):
    """Raised when ``K * min_size`` exceeds the number of items."""


def min_cost_assignment(cost: np.ndarray, min_size: int) -> np.ndarray:
    """Labels minimizing ``sum_i cost[i, labels[i]]`` under size floors.

    Parameters
    ----------
    cost : np.ndarray
        ``n x K`` matrix of finite assignment costs.
    min_size : int
        Lower bound on every cluster's size.

    Returns
    -------
    np.ndarray
        Length-``n`` integer labels; every cluster has at least
        ``min_size`` members and the total cost equals the optimum of the
        relaxed linear program.  Without binding constraints ties go to
        the lowest cluster index.

    Raises ``ValueError`` when ``cost`` holds NaN or ±inf, whatever the
    floor, and :class:`InfeasibleSizeError` when ``K * min_size > n``.
    """
    cost = np.asarray(cost, dtype=np.float64)
    n, K = cost.shape
    if min_size < 0:
        raise ValueError("min_size must be nonnegative")
    if min_size * K > n:
        raise InfeasibleSizeError(
            f"cannot give {K} clusters {min_size} items each with only {n} items"
        )
    if not np.isfinite(cost).all():
        raise ValueError("cost must be finite")
    labels = np.argmin(cost, axis=1)
    if min_size == 0:
        return labels
    counts = np.bincount(labels, minlength=K)
    if counts.min() >= min_size:
        return labels
    _fill_floors(cost, labels, counts, min_size)
    return labels


def _bellman_ford(into, spare):
    """Distances and predecessors from every cluster with a spare member.

    ``into[b, a]`` is the cost of the edge a -> b.
    """
    K = len(into)
    dist = np.array([0.0 if x > 0 else np.inf for x in spare])
    pred = np.empty(K, dtype=np.int64)
    pred.fill(-1)
    cols = np.arange(K)
    for _ in range(K):
        via = into + dist
        best = via.argmin(axis=1)
        cand = via[cols, best]
        better = cand < dist
        if not np.count_nonzero(better):
            break
        np.copyto(pred, best, where=better)
        np.copyto(dist, cand, where=better)
    return dist, pred


def _fill_floors(cost, labels, counts, min_size):
    """Move items of ``labels`` (in place) until every cluster reaches the floor."""
    n, K = cost.shape
    R = cost - np.minimum.reduce(cost, axis=1)[:, None]
    # every edge carries the rounding error of a K-edge path, so that
    # Bellman-Ford ignores improvements below it and never follows a cycle
    # whose negative cost is rounding
    tol = 16 * K * _EPS * np.maximum.reduce(np.abs(cost), axis=None)
    into = np.full((K, K), np.inf)  # into[b, a] = W[a, b]
    spare = (counts - min_size).tolist()  # negative: items missing
    changed = range(K)
    while True:
        # cluster a's members, ascending, are order[ends[a] - sizes[a] : ends[a]]
        order = labels.argsort(kind="stable")
        sizes = [x + min_size for x in spare]
        ends = list(itertools.accumulate(sizes))

        def members(a):
            return order[ends[a] - sizes[a] : ends[a]]

        rows = [a for a in changed if sizes[a]]
        starts = [0, *itertools.accumulate(sizes[a] for a in rows[:-1])]
        fresh = order if len(rows) == K else np.concatenate([members(a) for a in rows])
        into[:, rows] = np.minimum.reduceat(R[fresh], np.array(starts)).T + tol
        for a in rows:
            into[a, a] = np.inf
        dist, pred = _bellman_ford(into, spare)
        dist_l, pred = dist.tolist(), pred.tolist()
        deficits = sorted((t for t in range(K) if spare[t] < 0), key=dist_l.__getitem__)
        used, lost, moved, dest, tight = set(), set(), [], [], {}
        for t in deficits:
            path = [t]
            while pred[path[-1]] >= 0:
                path.append(pred[path[-1]])
                if len(path) > K + 1:
                    raise RuntimeError("negative cycle in the cluster graph")
            s = path[-1]
            if spare[s] == 0:
                continue
            items = []
            for b, a in zip(path, path[1:]):
                if (a, b) not in tight:
                    # the lowest-index member of a with the least regret of
                    # moving to b, as labelled at the start of the round
                    m = members(a)
                    tight[a, b] = m[R[m, b].argmin()].item()
                items.append(tight[a, b])
            if not used.isdisjoint(items):
                continue
            used.update(items)
            lost.update(path[1:])
            moved += items
            dest += path[:-1]
            spare[s] -= 1
            spare[t] += 1
            take = min(-spare[t], spare[s])
            if len(path) > 2 or t in lost or take == 0:
                continue
            # bulk: further members of s straight to t while no other
            # cluster offers a cheaper way into t
            via = (into[t] + dist).tolist()
            via[s] = np.inf
            bound = min(via) - tol
            m = members(s)
            regret = R[m, t]
            nxt = regret.argsort(kind="stable")[1 : take + 1]
            for i, r in zip(m[nxt].tolist(), regret[nxt].tolist()):
                if i in used or r > bound:
                    break
                used.add(i)
                moved.append(i)
                dest.append(t)
                spare[s] -= 1
                spare[t] += 1
        labels[moved] = dest
        if min(spare) >= 0:
            return
        moved = np.array(moved)
        R[moved] = cost[moved] - cost[moved, dest][:, None]
        changed = sorted(lost.union(dest))
