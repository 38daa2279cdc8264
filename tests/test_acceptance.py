"""Acceptance gate: one test per criterion, at its stated tolerance.

Run ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Expected values are either computed here by independent
brute-force oracles or derived in closed form.
"""

import itertools
import math
import time

import numpy as np
import pytest

from graphon_lab.aggregation import ewa_weights
from graphon_lab.core import AssignmentMatrix, NoiseModel, group_sums, induced_mean
from graphon_lab.estimation import FitConfig, lloyd_fit
from graphon_lab.evaluation import (
    delta_tilde,
    mse_theta,
    oracle_fit,
    oracle_risk_bernoulli,
)
from graphon_lab.experiments import ExperimentSpec, run_ewa_experiment, run_experiment
from graphon_lab.flow import min_cost_assignment
from graphon_lab.synthesis import (
    SynthConfig,
    make_standard_graphon,
    sample_latents,
    sample_observations,
    synthesize,
    true_assignments,
)
from graphon_lab.core import Graphon


def _report(criterion, detail):
    print(f"\nPASS criterion {criterion}: {detail}", flush=True)


# --------------------------------------------------------------------------
# 1. Flow-solver exactness against exhaustive enumeration
# --------------------------------------------------------------------------


def assignment_costs(H, Q, fixed_cols):
    """Row-update costs ``-2 (H Z_c Q^T)_{ik} + (Q D Q^T)_{kk}``, ``D`` the
    column cluster sizes: the Lloyd loop's formula, read from H."""
    D = fixed_cols.counts()
    col_sums = group_sums(H, fixed_cols.labels, fixed_cols.K, axis=1)
    quad = (Q * Q) @ D.astype(np.float64)
    return -2.0 * col_sums @ Q.T + quad[None, :]


def test_criterion_1_flow_exactness():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    while checked < 200:
        n = int(rng.integers(3, 9))
        m = int(rng.integers(3, 7))
        K = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4))
        n0 = int(rng.integers(0, 3))
        if K * n0 > n or L > m:
            continue
        H = rng.random((n, m))
        Q = rng.random((K, L))
        col_labels = np.r_[np.arange(L), rng.integers(0, L, m - L)]
        zc = AssignmentMatrix(m, L, col_labels)
        c = assignment_costs(H, Q, zc)
        zr = AssignmentMatrix(n, K, min_cost_assignment(c, n0))
        assert zr.counts().min() >= n0
        phi_flow = c[np.arange(n), zr.labels].sum()
        phi_best = min(
            c[np.arange(n), list(lab)].sum()
            for lab in itertools.product(range(K), repeat=n)
            if np.bincount(lab, minlength=K).min() >= n0
        )
        assert abs(phi_flow - phi_best) <= 1e-9
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(1, f"200 flow solves match enumeration exactly ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 2. Cost trajectories never increase
# --------------------------------------------------------------------------


def test_criterion_2_lloyd_monotonicity():
    rng = np.random.default_rng(202)
    noises = [
        NoiseModel.bernoulli(),
        NoiseModel.binomial(5),
        NoiseModel.scaled_poisson(3.0),
        NoiseModel.gaussian(0.04),
    ]
    t0 = time.perf_counter()
    runs = 0
    for trial in range(50):
        setup = ("rand", "cos", "hoelder")[trial % 3]
        rho = 0.3 + 0.4 * rng.random()
        if setup == "hoelder":
            graphon = make_standard_graphon("hoelder", rho=rho)
        else:
            graphon = make_standard_graphon(setup, K=3, L=3, rho=rho, seed=trial)
        noise = noises[trial % 4]
        n = int(rng.integers(24, 40))
        m = int(rng.integers(18, 30))
        obs = synthesize(SynthConfig(n, m, graphon, noise, seed=trial))
        K = int(rng.integers(2, 5))
        L = int(rng.integers(2, 5))
        n0 = int(rng.choice([0, 2, 4]))
        m0 = int(rng.choice([0, 2, 4]))
        if K * n0 > n or L * m0 > m:
            n0 = m0 = 0
        for init in ("spectral", "random"):
            report = lloyd_fit(
                obs.H,
                FitConfig(K=K, L=L, n0=n0, m0=m0, init=init, restarts=3, seed=trial),
            )
            diffs = np.diff(report.cost_trajectory)
            assert diffs.size == 0 or diffs.max() <= 1e-9
            runs += 1
    elapsed = time.perf_counter() - t0
    assert runs == 100
    assert elapsed < 60.0
    _report(2, f"100 mixed runs all non-increasing within 1e-9 ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 3. Multi-restart fits reach the exhaustive global optimum at micro scale
# --------------------------------------------------------------------------


def _global_lse_cost_2x2(H):
    """Exact least-squares over all 2^n x 2^m bipartitions (K = L = 2)."""
    n, m = H.shape
    H_sq = float((H * H).sum())
    S = np.zeros((2**n, m))
    for b in range(n):
        idx = np.flatnonzero((np.arange(2**n) >> b) & 1)
        S[idx] = S[idx ^ (1 << b)] + H[b]
    bits = ((np.arange(2**m)[:, None] >> np.arange(m)[None, :]) & 1).astype(float)
    T = S @ bits.T
    pop = lambda r: np.array([bin(x).count("1") for x in r], dtype=float)
    n1 = pop(range(2**n))[:, None]
    m1 = pop(range(2**m))[None, :]
    n_0, m_0 = n - n1, m - m1
    rows_tot = S.sum(axis=1)[:, None]
    cols_tot = T[-1][None, :]
    total = H.sum()
    b11 = T
    b10 = rows_tot - b11
    b01 = cols_tot - b11
    b00 = total - b11 - b10 - b01

    def fit_term(b, cr, cc):
        denom = cr * cc
        return np.where(denom > 0, b * b / np.where(denom > 0, denom, 1.0), 0.0)

    explained = (
        fit_term(b11, n1, m1)
        + fit_term(b10, n1, m_0)
        + fit_term(b01, n_0, m1)
        + fit_term(b00, n_0, m_0)
    )
    return H_sq - float(explained.max())


def test_criterion_3_global_optimum_micro():
    t0 = time.perf_counter()
    hits = 0
    for trial in range(20):
        graphon = make_standard_graphon("rand", K=2, L=2, rho=0.9, seed=300 + trial)
        obs = synthesize(SynthConfig(12, 8, graphon, NoiseModel.bernoulli(), seed=trial))
        global_cost = _global_lse_cost_2x2(obs.H)
        best = min(
            lloyd_fit(
                obs.H,
                FitConfig(K=2, L=2, init="random", restarts=100, seed=trial,
                          tol_gamma=0.0, max_iters=100),
            ).final_cost,
            lloyd_fit(
                obs.H,
                FitConfig(K=2, L=2, init="spectral", seed=trial,
                          tol_gamma=0.0, max_iters=100),
            ).final_cost,
        )
        assert best >= global_cost - 1e-9
        hits += best <= global_cost + 1e-9
    elapsed = time.perf_counter() - t0
    assert hits >= 18
    assert elapsed < 120.0
    _report(3, f"global optimum attained in {hits}/20 micro instances ({elapsed:.1f}s)")


# --------------------------------------------------------------------------
# 4. Monte Carlo oracle risk matches the closed form
# --------------------------------------------------------------------------


def test_criterion_4_oracle_risk_closed_form():
    t0 = time.perf_counter()
    n = m = 200
    kk, ll = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
    Q_star = np.where((kk + ll) % 2 == 0, 0.25, 0.75)
    rows = AssignmentMatrix(n, 4, np.repeat(np.arange(4), 50))
    cols = AssignmentMatrix(m, 4, np.repeat(np.arange(4), 50))
    theta_star = Q_star[np.ix_(rows.labels, cols.labels)]
    closed = oracle_risk_bernoulli(Q_star, n, m)
    assert closed == pytest.approx(16 * 0.25 * 0.75 / (n * m))
    reps = 500
    mses = np.empty(reps)
    for r in range(reps):
        H = sample_observations(theta_star, NoiseModel.bernoulli(), seed=4000 + r)
        oracle = oracle_fit(H, rows, cols)
        mses[r] = mse_theta(induced_mean(oracle), theta_star)
    se = mses.std(ddof=1) / math.sqrt(reps)
    elapsed = time.perf_counter() - t0
    assert abs(mses.mean() - closed) <= 4 * se
    assert elapsed < 60.0
    _report(
        4,
        f"oracle MSE {mses.mean():.3e} vs closed form {closed:.3e} "
        f"(|diff| <= 4 se = {4 * se:.2e}, {elapsed:.1f}s)",
    )


# --------------------------------------------------------------------------
# 5. Size sweep shows the expected qualitative error curves
# --------------------------------------------------------------------------


def test_criterion_5_rand_graphon_sweep():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        name="accept_rand",
        setup="rand_graphon",
        rho=0.6,
        K=8,
        L=8,
        n_values=(256, 512, 1024),
        reps=20,
        inits=("spectral",),
        seed=505,
    )
    result = run_experiment(spec)
    med = {
        row["sweep_value"]: row["median"]
        for row in result.summary
        if row["init"] == "spectral"
    }
    oracle_med = {
        row["sweep_value"]: row["median"]
        for row in result.summary
        if row["init"] == "oracle"
    }
    bounds = {
        rec["sweep_value"]: rec["rate_bound"] for rec in result.records
    }
    assert med[256] >= med[512] >= med[1024]
    assert med[1024] <= 3 * oracle_med[1024]
    for n in (256, 512, 1024):
        assert med[n] <= bounds[n]
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    _report(
        5,
        "median MSE non-increasing "
        f"({med[256]:.2e} >= {med[512]:.2e} >= {med[1024]:.2e}), "
        f"<= 3x oracle at n=1024, below the rate bound ({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# 6. Aggregation tracks the best grid fit at desk scale
# --------------------------------------------------------------------------


def test_criterion_6_ewa_oracle_behavior():
    t0 = time.perf_counter()
    n, m = 400, 200
    graphon = make_standard_graphon("cos", K=4, L=4, rho=0.6)
    out = run_ewa_experiment(
        n, m, graphon, NoiseModel.bernoulli(), reps=20, seed=606, beta=8.0 / 3.0
    )
    ewa_median = float(np.median([r["ewa_mse"] for r in out["records"]]))
    best_median = float(np.median([r["best_fit_mse"] for r in out["records"]]))
    remainder = 8.0 * math.log(out["grid_size"]) / (3.0 * n * m)
    elapsed = time.perf_counter() - t0
    assert ewa_median <= 1.25 * best_median + remainder
    assert elapsed < 600.0
    _report(
        6,
        f"median EWA MSE {ewa_median:.3e} <= 1.25 x {best_median:.3e} + "
        f"{remainder:.3e} over a {out['grid_size']}-entry grid ({elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# 7. Weight limits and log-sum-exp stability
# --------------------------------------------------------------------------


def test_criterion_7_ewa_limits():
    # beta -> 0 with a residual gap >= 1 concentrates on the best fit
    w = ewa_weights(np.array([3.0, 4.0, 7.5]), beta=1e-8)
    assert w[0] >= 1 - 1e-9
    # beta -> infinity flattens to uniform
    w = ewa_weights(np.array([3.0, 250.0, 999.0]), beta=1e9)
    assert np.abs(w - 1 / 3).max() <= 1e-6
    # normalization across nine orders of magnitude
    r = np.array([1e-3, 1.0, 1e2, 1e4, 1e7])
    for beta in (1e-8, 1e-3, 1.0, 1e3, 1e9):
        w = ewa_weights(r, beta)
        assert abs(w.sum() - 1.0) <= 1e-12
        assert (w >= 0).all()
    _report(7, "weight concentration, flattening and normalization limits hold")


# --------------------------------------------------------------------------
# 8. Sort-aligned distance proxy sanity
# --------------------------------------------------------------------------


def test_criterion_8_delta_tilde_sanity():
    # perfectly aligned piecewise-constant estimate
    rng = np.random.default_rng(808)
    n, m = 20, 25
    values = rng.random((n, m)) * 0.8
    pc = Graphon.piecewise_constant(
        np.linspace(0, 1, n + 1), np.linspace(0, 1, m + 1), values, rho=0.8
    )
    U, V = sample_latents(n, m, seed=8)
    r1 = np.empty(n, dtype=int)
    r1[np.argsort(U, kind="stable")] = np.arange(n)
    r2 = np.empty(m, dtype=int)
    r2[np.argsort(V, kind="stable")] = np.arange(m)
    aligned = delta_tilde(values[np.ix_(r1, r2)], pc, U, V, grid_res=1000)
    assert aligned <= 1e-3

    # constant estimate against the zero graphon returns the constant
    zero = Graphon.piecewise_constant([0, 1.0], [0, 1.0], [[0.0]], rho=1.0, validate=False)
    U2, V2 = sample_latents(15, 10, seed=9)
    c = 0.61
    exact = delta_tilde(np.full((15, 10), c), zero, U2, V2)
    assert exact == pytest.approx(c, abs=1e-9)

    # Riemann refinement is stable on the smooth graphon
    bump = make_standard_graphon("hoelder", rho=0.9)
    U3, V3 = sample_latents(50, 50, seed=10)
    theta_hat = bump.evaluate_grid(U3, V3)
    d1 = delta_tilde(theta_hat, bump, U3, V3, grid_res=1000)
    d2 = delta_tilde(theta_hat, bump, U3, V3, grid_res=2000)
    assert abs(d1 - d2) <= 1e-3
    _report(
        8,
        f"aligned {aligned:.1e} <= 1e-3, constant case exact, "
        f"refinement shift {abs(d1 - d2):.1e} <= 1e-3",
    )


# --------------------------------------------------------------------------
# 9. Intensity sweep: oracle error rises then falls
# --------------------------------------------------------------------------


def test_criterion_9_rho_sweep_shape():
    t0 = time.perf_counter()
    n, m, K, L = 400, 200, 20, 10
    rho_grid = [round(0.1 * i, 1) for i in range(1, 10)]
    reps = 60
    q_tilde = make_standard_graphon("cos", K=K, L=L, rho=1.0).values
    rho_star = min(max(q_tilde.sum() / (2 * (q_tilde**2).sum()), 0.0), 1.0)
    medians = []
    for rho in rho_grid:
        graphon = make_standard_graphon("cos", K=K, L=L, rho=rho)
        vals = []
        for rep in range(reps):
            obs = synthesize(
                SynthConfig(n, m, graphon, NoiseModel.bernoulli(),
                            seed=909 + 1000 * rep + int(rho * 10))
            )
            r, c = true_assignments(graphon, *obs.latents)
            oracle = oracle_fit(
                obs.H, AssignmentMatrix(n, K, r), AssignmentMatrix(m, L, c)
            )
            vals.append(mse_theta(induced_mean(oracle), obs.theta_star))
        medians.append(float(np.median(vals)))
    peak = int(np.argmax(medians))
    assert 0 < peak < len(rho_grid) - 1, "maximizer must be interior"
    for i in range(peak):
        assert medians[i] <= medians[i + 1] + 1e-15
    for i in range(peak, len(medians) - 1):
        assert medians[i] >= medians[i + 1] - 1e-15
    assert abs(rho_grid[peak] - rho_star) <= 0.1 + 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    _report(
        9,
        f"oracle curve unimodal with peak at rho={rho_grid[peak]} "
        f"(theory {rho_star:.3f}, {elapsed:.0f}s)",
    )


# --------------------------------------------------------------------------
# 10. Missing data: unbiased path, and p=1 is a bitwise no-op
# --------------------------------------------------------------------------


def test_criterion_10_missing_data():
    graphon = make_standard_graphon("rand", K=3, L=3, rho=0.6, seed=12)
    noise = NoiseModel.bernoulli()

    half = synthesize(SynthConfig(60, 40, graphon, noise, seed=13, missing_p=0.5))
    adjusted = half.adjusted()
    assert set(np.unique(adjusted)) <= {0.0, 2.0}
    report = lloyd_fit(adjusted, FitConfig(K=3, L=3, init="spectral", seed=2))
    assert np.isfinite(report.final_cost)
    assert (np.diff(report.cost_trajectory) <= 1e-9).all()
    assert 1 <= report.iterations <= 40

    full = synthesize(SynthConfig(60, 40, graphon, noise, seed=13, missing_p=1.0))
    plain = synthesize(SynthConfig(60, 40, graphon, noise, seed=13))
    assert np.array_equal(full.adjusted(), plain.H)
    cfg = FitConfig(K=3, L=3, init="spectral", seed=2)
    fit_full = lloyd_fit(full.adjusted(), cfg)
    fit_plain = lloyd_fit(plain.H, cfg)
    assert np.array_equal(fit_full.model.z_rows.labels, fit_plain.model.z_rows.labels)
    assert np.array_equal(fit_full.model.z_cols.labels, fit_plain.model.z_cols.labels)
    assert np.array_equal(fit_full.model.Q, fit_plain.model.Q)
    assert fit_full.cost_trajectory == fit_plain.cost_trajectory
    _report(10, "inverse-weighted fits converge; p=1 path is bit-identical")
