import itertools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphon_lab.flow import InfeasibleSizeError, min_cost_assignment


def brute_force_optimum(cost, min_size):
    n, K = cost.shape
    best = np.inf
    for labeling in itertools.product(range(K), repeat=n):
        if np.bincount(labeling, minlength=K).min() >= min_size:
            best = min(best, cost[np.arange(n), list(labeling)].sum())
    return best


def total(cost, labels):
    return cost[np.arange(len(labels)), labels].sum()


def round_by_round_reference(cost, min_size):
    """The K-node solver with every round's inputs derived afresh: regrets
    against the row minima, the tolerance from ``|cost|``, new Bellman-Ford
    arrays per round and per-cluster diagonal writes.  Same rounds, ties
    and bulk rule as the package's solver, so the labels must match."""
    n, K = cost.shape
    labels = np.argmin(cost, axis=1)
    counts = np.bincount(labels, minlength=K)
    if min_size == 0 or counts.min() >= min_size:
        return labels
    R = cost - np.minimum.reduce(cost, axis=1)[:, None]
    tol = 16 * K * np.finfo(np.float64).eps * np.abs(cost).max()
    into = np.full((K, K), np.inf)
    spare = (counts - min_size).tolist()
    changed = range(K)
    while True:
        order = labels.argsort(kind="stable")
        sizes = [x + min_size for x in spare]
        ends = list(itertools.accumulate(sizes))

        def members(a):
            return order[ends[a] - sizes[a] : ends[a]]

        rows = [a for a in changed if sizes[a]]
        fresh = np.concatenate([members(a) for a in rows])
        starts = [0, *itertools.accumulate(sizes[a] for a in rows[:-1])]
        into[:, rows] = np.minimum.reduceat(R[fresh], np.array(starts)).T + tol
        for a in rows:
            into[a, a] = np.inf
        dist = np.array([0.0 if x > 0 else np.inf for x in spare])
        pred = np.full(K, -1)
        for _ in range(K):
            via = into + dist
            best = via.argmin(axis=1)
            cand = via[np.arange(K), best]
            better = cand < dist
            if not better.any():
                break
            pred[better], dist[better] = best[better], cand[better]
        deficits = sorted((t for t in range(K) if spare[t] < 0), key=lambda t: dist[t])
        used, lost, moved, dest, tight = set(), set(), [], [], {}
        for t in deficits:
            path = [t]
            while pred[path[-1]] >= 0:
                path.append(int(pred[path[-1]]))
            s = path[-1]
            if spare[s] == 0:
                continue
            items = []
            for b, a in zip(path, path[1:]):
                if (a, b) not in tight:
                    m = members(a)
                    tight[a, b] = int(m[R[m, b].argmin()])
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
            ways = into[t] + dist
            ways[s] = np.inf
            bound = ways.min() - tol
            m = members(s)
            regret = R[m, t]
            for j in regret.argsort(kind="stable")[1 : take + 1]:
                if int(m[j]) in used or regret[j] > bound:
                    break
                used.add(int(m[j]))
                moved.append(int(m[j]))
                dest.append(t)
                spare[s] -= 1
                spare[t] += 1
        labels[moved] = dest
        if min(spare) >= 0:
            return labels
        moved = np.array(moved)
        R[moved] = cost[moved] - cost[moved, dest][:, None]
        changed = sorted(lost.union(dest))


def lsap_reference(cost, min_size):
    """The slot-matrix solve the package used before the K-node solver.

    Each cluster gets ``min_size`` mandatory slots; filling them is a
    rectangular assignment problem on the regrets against the argmin,
    solved by scipy's shortest augmenting paths.
    """
    from scipy.optimize import linear_sum_assignment

    n, K = cost.shape
    base = np.argmin(cost, axis=1)
    if min_size == 0 or np.bincount(base, minlength=K).min() >= min_size:
        return base
    regret = cost - cost[np.arange(n), base][:, None]
    slot_cluster = np.repeat(np.arange(K), min_size)
    row_ind, col_ind = linear_sum_assignment(regret.T[slot_cluster])
    labels = base.copy()
    labels[col_ind] = slot_cluster[row_ind]
    return labels


def test_vacuous_constraint_matches_argmin_with_ties():
    # two identical columns: argmin tie-break picks the lower index
    cost = np.array([[1.0, 1.0, 2.0], [0.5, 0.5, 0.1], [3.0, 3.0, 3.0]])
    labels = min_cost_assignment(cost, 0)
    assert labels.tolist() == [0, 2, 0]


def test_forced_move_single_unit():
    cost = np.array([[0.0, 5.0], [0.0, 5.0], [0.0, 5.0]])
    labels = min_cost_assignment(cost, 1)
    assert np.bincount(labels, minlength=2).min() >= 1
    assert total(cost, labels) == pytest.approx(5.0)
    assert total(cost, labels) == pytest.approx(brute_force_optimum(cost, 1))


def test_random_six_by_three_min_size_two():
    rng = np.random.default_rng(2024)
    for _ in range(100):
        cost = rng.normal(size=(6, 3))
        labels = min_cost_assignment(cost, 2)
        assert np.bincount(labels, minlength=3).min() >= 2
        assert total(cost, labels) == pytest.approx(
            brute_force_optimum(cost, 2), abs=1e-9
        )


def test_integrality_and_row_validity():
    rng = np.random.default_rng(7)
    cost = rng.normal(size=(12, 4))
    labels = min_cost_assignment(cost, 3)
    assert labels.dtype.kind == "i"
    assert labels.shape == (12,)
    assert labels.min() >= 0 and labels.max() < 4
    assert np.bincount(labels, minlength=4).min() >= 3


def test_tight_feasibility_uses_every_slot():
    rng = np.random.default_rng(11)
    cost = rng.normal(size=(8, 4))
    labels = min_cost_assignment(cost, 2)
    assert np.bincount(labels, minlength=4).tolist() == [2, 2, 2, 2]
    assert total(cost, labels) == pytest.approx(
        brute_force_optimum(cost, 2), abs=1e-9
    )


def test_path_through_three_clusters():
    # cluster 2 is empty and cluster 1 has no member to spare: the cheap way
    # to fill cluster 2 moves item 3 from 1 to 2 and refills 1 from 0, at
    # regret 2 instead of 100; of the three equal candidates in 0, item 0 moves
    cost = np.array(
        [[0.0, 1.0, 100.0], [0.0, 1.0, 100.0], [0.0, 1.0, 100.0], [100.0, 0.0, 1.0]]
    )
    labels = min_cost_assignment(cost, 1)
    assert labels.tolist() == [1, 0, 0, 2]
    assert total(cost, labels) == brute_force_optimum(cost, 1) == 2.0


def test_bulk_step_stops_at_the_bound_through_another_cluster():
    # cluster 2 needs two items; the first comes straight from cluster 0
    # (item 0, regret 1), but the next member of 0 costs 10 against 3 for
    # moving item 4 from 1 to 2 and refilling 1 from 0
    cost = np.array(
        [
            [0.0, 1.0, 1.0],
            [0.0, 1.0, 10.0],
            [0.0, 1.0, 10.0],
            [0.0, 1.0, 10.0],
            [5.0, 0.0, 2.0],
            [5.0, 0.0, 2.0],
        ]
    )
    labels = min_cost_assignment(cost, 2)
    assert labels.tolist() == [2, 1, 0, 0, 2, 1]
    assert total(cost, labels) == brute_force_optimum(cost, 2) == 4.0


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.data(),
    st.integers(min_value=0, max_value=2**31),
)
def test_matches_lsap_reference_with_ties(K, data, seed):
    # integer costs drawn from a few distinct rows, so that equal regrets
    # and equal rows are common; tied optimal labelings may differ, so only
    # feasibility and the total cost are compared
    n0 = data.draw(st.integers(min_value=0, max_value=60 // K), label="n0")
    n = data.draw(st.integers(min_value=max(K * n0, 1), max_value=60), label="n")
    rng = np.random.default_rng(seed)
    rows = rng.integers(-5, 6, size=(int(rng.integers(1, 8)), K))
    cost = rows[rng.integers(0, len(rows), size=n)].astype(np.float64)
    labels = min_cost_assignment(cost, n0)
    assert labels.shape == (n,)
    assert np.bincount(labels, minlength=K).min() >= n0
    assert total(cost, labels) == total(cost, lsap_reference(cost, n0))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**31))
def test_matches_lsap_reference_on_tight_floors(K, seed):
    # K * n0 = n: every cluster ends with exactly n0 items
    rng = np.random.default_rng(seed)
    n0 = int(rng.integers(1, 60 // K + 1))
    cost = rng.normal(size=(K * n0, K))
    labels = min_cost_assignment(cost, n0)
    assert np.bincount(labels, minlength=K).tolist() == [n0] * K
    assert total(cost, labels) == pytest.approx(
        total(cost, lsap_reference(cost, n0)), rel=1e-12, abs=1e-12
    )


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=2, max_value=16),
    st.data(),
    st.integers(min_value=0, max_value=2**31),
)
def test_labels_match_round_by_round_reference(K, data, seed):
    # the solver reads the regrets at its argmin labels, the tolerance from
    # the largest and smallest cost, keeps its Bellman-Ford arrays across
    # rounds and gathers members from one column of the regrets; labels,
    # ties and signed zeros included, must equal those of the reference
    # that derives all of these afresh
    n0 = data.draw(st.integers(min_value=1, max_value=80 // K), label="n0")
    n = data.draw(st.integers(min_value=K * n0, max_value=80), label="n")
    kind = data.draw(st.sampled_from(["few rows", "signed zeros", "normal"]), label="kind")
    rng = np.random.default_rng(seed)
    if kind == "few rows":
        rows = rng.integers(-5, 6, size=(int(rng.integers(1, 8)), K)).astype(np.float64)
        cost = rows[rng.integers(0, len(rows), size=n)]
    elif kind == "signed zeros":
        cost = rng.choice([-0.0, 0.0, 1.0, -1.0], size=(n, K))
    else:
        cost = rng.normal(size=(n, K)) * 2.0 ** int(rng.integers(-30, 31))
    assert np.array_equal(min_cost_assignment(cost, n0), round_by_round_reference(cost, n0))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "preferred, min_size",
    [([0, 1, 0, 1, 0, 1], 0), ([0, 1, 0, 1, 0, 1], 2), ([0] * 6, 2)],
    ids=["floor0", "nonbinding", "binding"],
)
def test_non_finite_cost_rejected(bad, preferred, min_size):
    cost = np.ones((6, 2))
    cost[np.arange(6), preferred] = 0.0
    cost[0, 1] = bad
    with pytest.raises(ValueError, match="finite"):
        min_cost_assignment(cost, min_size)


def test_infeasible_raises():
    with pytest.raises(InfeasibleSizeError):
        min_cost_assignment(np.zeros((3, 2)), 2)
    with pytest.raises(ValueError):
        min_cost_assignment(np.zeros((3, 2)), -1)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=2, max_value=5),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2**31),
)
def test_always_integral_and_feasible(K, n0, seed):
    rng = np.random.default_rng(seed)
    n = K * n0 + int(rng.integers(0, 6))
    if n == 0:
        n = 1
        n0 = 0
    cost = rng.normal(size=(n, K))
    labels = min_cost_assignment(cost, n0)
    assert labels.shape == (n,)
    assert labels.min() >= 0 and labels.max() < K
    assert np.bincount(labels, minlength=K).min() >= n0
    # never worse than any single-cluster feasible labeling
    if n0 == 0:
        assert total(cost, labels) <= cost.sum(axis=0).min() + 1e-9


def test_binding_floor_leaves_scipy_unloaded():
    # importing the package, a floor-0 fit, a non-binding and a binding
    # solve all leave scipy.optimize unloaded; the binding solve is exact
    script = textwrap.dedent(
        """
        import json, sys
        import numpy as np
        import graphon_lab, graphon_lab.cli
        from graphon_lab.estimation import FitConfig, lloyd_fit
        from graphon_lab.flow import min_cost_assignment

        rng = np.random.default_rng(0)
        lloyd_fit((rng.random((30, 20)) < 0.4).astype(float), FitConfig(K=2, L=2))
        cost = rng.normal(size=(9, 3))
        cost[np.arange(9), np.arange(9) % 3] -= 10.0
        assert min_cost_assignment(cost, 3).tolist() == [0, 1, 2] * 3
        cost[:, 0] -= 50.0  # every argmin is cluster 0, so a floor of 2 binds
        labels = min_cost_assignment(cost, 2)
        print(json.dumps({"loaded": "scipy.optimize" in sys.modules,
                          "cost": cost.tolist(), "labels": labels.tolist()}))
        """
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout)
    assert not result["loaded"]
    cost, labels = np.array(result["cost"]), np.array(result["labels"])
    assert np.bincount(labels, minlength=3).min() >= 2
    assert total(cost, labels) == pytest.approx(brute_force_optimum(cost, 2), abs=1e-9)
