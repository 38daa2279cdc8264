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

Cost: a call sets up in O(n K): the regrets from the cost entries at the
argmin labels (the row minima bit for bit), the tolerance from the
largest cost and the smallest row minimum, W, and one set of
Bellman-Ford buffers that every round reuses.  A round then takes a
stable argsort of the labels, held in the smallest unsigned dtype (numpy
sorts 8- and 16-bit keys by radix, in O(n)); the refresh of the rows of
W of the clusters whose members changed (O(n K) at most) and of its
diagonal in one indexed write; Bellman-Ford at O(K^2) per pass, at most
K passes; per deficit a tree walk of at most K edges and, per edge not
yet seen in the round, an argmin over the members of its tail (the bulk
moves sort one cluster's regrets); and the regret update of the moved
items (O(K) each).  A round fills at least one missing item, so there are
at most as many rounds as items missing from the deficit clusters, and
usually far fewer.

Ties: without a binding floor an item goes to the lowest cluster index
among its cheapest; among members of one cluster with equal regret, the
lowest item index moves.  Bellman-Ford ignores improvements below the
rounding error of a K-edge path, so on non-integer costs the total is
optimal up to that rounding.
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
    labels = cost.argmin(axis=1)
    if min_size == 0:
        return labels
    sizes = np.bincount(labels, minlength=K).tolist()
    if min(sizes) >= min_size:
        return labels
    _fill_floors(cost, labels, sizes, min_size)
    return labels


def _bellman_ford(into, dist, pred, via, rowstarts):
    """Distances and predecessors, into ``dist`` and ``pred``, from the clusters
    whose ``dist`` is 0 (the others' is inf); ``via`` is a ``K x K`` work
    buffer and ``rowstarts`` the flat index of each of its rows.

    ``into[b, a]`` is the cost of the edge a -> b.
    """
    pred.fill(-1)
    flat = via.ravel()
    for _ in range(len(into)):
        np.add(into, dist, out=via)
        best = via.argmin(axis=1)
        cand = flat[best + rowstarts]
        better = cand < dist
        if not np.count_nonzero(better):
            break
        np.putmask(pred, better, best)
        np.putmask(dist, better, cand)


def _fill_floors(cost, labels, sizes, min_size):
    """Move items of ``labels`` and ``sizes`` (in place) until every cluster reaches the floor."""
    n, K = cost.shape
    # the entries at the argmin labels are the row minima bit for bit
    base = cost[np.arange(n), labels]
    # every edge carries the rounding error of a K-edge path, so that
    # Bellman-Ford ignores improvements below it and never follows a cycle
    # whose negative cost is rounding (the smallest cost is a row minimum)
    tol = 16 * K * _EPS * max(cost.max(), -base.min())
    into = np.full((K, K), np.inf)  # into[b, a] = W[a, b]
    via, dist, pred = np.empty((K, K)), np.empty(K), np.empty(K, dtype=np.int64)
    rowstarts = np.arange(0, K * K, K)  # via[b, best[b]] is via.flat[rowstarts + best]
    keys = labels.astype(np.min_scalar_type(K - 1))  # a small dtype sorts by radix
    R = cost - base[:, None]
    changed = everything = range(K)
    while True:
        # cluster a's members, ascending, are order[begins[a] : begins[a + 1]]
        order = keys.argsort(kind="stable")
        begins = [0, *itertools.accumulate(sizes)]
        rows = [a for a in changed if sizes[a]]
        # order lists every cluster in round 1; numpy takes arrays faster than lists
        fresh = order if changed is everything else np.concatenate(
            [order[begins[a] : begins[a + 1]] for a in rows])
        starts = np.array([0, *itertools.accumulate([sizes[a] for a in rows[:-1]])])
        into[:, np.array(rows)] = np.minimum.reduceat(R.take(fresh, axis=0), starts).T + tol
        into.flat[::K + 1] = np.inf
        dist[:] = [0.0 if x > min_size else np.inf for x in sizes]
        _bellman_ford(into, dist, pred, via, rowstarts)
        dist_l, pred_l = dist.tolist(), pred.tolist()
        deficits = sorted([t for t in range(K) if sizes[t] < min_size], key=dist_l.__getitem__)
        used, lost, moved, dest, tight = set(), set(), [], [], {}
        for t in deficits:
            path = [t]
            while pred_l[path[-1]] >= 0:
                path.append(pred_l[path[-1]])
                if len(path) > K + 1:
                    raise RuntimeError("negative cycle in the cluster graph")
            s = path[-1]
            if sizes[s] == min_size:
                continue
            items = []
            for b, a in zip(path, path[1:]):
                i = tight.get((a, b))
                if i is None:
                    # the lowest-index member of a with the least regret of
                    # moving to b, as labelled at the start of the round
                    # (R[:, b][m] gathers from one column, faster than R[m, b])
                    m = order[begins[a] : begins[a + 1]]
                    i = tight[a, b] = m.item(R[:, b][m].argmin())
                items.append(i)
            if not used.isdisjoint(items):
                continue
            used.update(items)
            lost.update(path[1:])
            moved += items
            dest += path[:-1]
            sizes[s] -= 1
            sizes[t] += 1
            take = min(min_size - sizes[t], sizes[s] - min_size)
            if len(path) > 2 or t in lost or take == 0:
                continue
            # bulk: further members of s straight to t while no other
            # cluster offers a cheaper way into t
            ways = (into[t] + dist).tolist()
            ways[s] = np.inf
            bound = min(ways) - tol
            m = order[begins[s] : begins[s + 1]]
            regret = R[:, t][m]
            nxt = regret.argsort(kind="stable")[1 : take + 1]
            for i, r in zip(m[nxt].tolist(), regret[nxt].tolist()):
                if i in used or r > bound:
                    break
                used.add(i)
                moved.append(i)
                dest.append(t)
                sizes[s] -= 1
                sizes[t] += 1
        moved, dest = np.array(moved), np.array(dest)
        labels[moved] = keys[moved] = dest
        if min(sizes) >= min_size:
            return
        R[moved] = cost[moved] - cost[moved, dest][:, None]
        changed = sorted(lost.union(dest.tolist()))
