import dataclasses
import math
from pathlib import Path

import numpy as np
import pytest

from graphon_lab.aggregation import ewa_aggregate
from graphon_lab.core import NoiseModel
from graphon_lab.estimation import FitConfig, HyperGrid, default_grid, fit_grid, lloyd_fit
from graphon_lab.evaluation import mse_theta
from graphon_lab import estimation, experiments
from graphon_lab.experiments import (
    ExperimentSpec,
    emit_outputs,
    hoelder_KL_rule,
    run_ewa_experiment,
    run_experiment,
    worker_count,
)
from graphon_lab.synthesis import SynthConfig, cell_seed, make_standard_graphon, synthesize
from graphon_lab.core import induced_mean


def load_records_csv(path):
    """The records of a records CSV that :func:`emit_outputs` wrote, as dicts."""
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    out = []
    for line in lines[1:]:
        rec = {}
        for key, raw in zip(header, line.split(",")):
            if raw == "":
                rec[key] = None
            elif key in ("init",):
                rec[key] = raw
            elif key in ("rep", "seed", "psi_ok"):
                rec[key] = int(raw)
            elif key == "sweep_value":
                rec[key] = float(raw) if "." in raw or "e" in raw else int(raw)
            else:
                rec[key] = float(raw)
        out.append(rec)
    return out


class TestHoelderRule:
    def test_direct_formula(self):
        # floor((3 n m L^2 / (25 s^2 + 4 b rho))^(1/4)) at n = m = 100
        noise = NoiseModel.bernoulli()
        K, L = hoelder_KL_rule(100, 100, 0.5, noise, hoelder_L=1.0)
        raw = (3 * 100 * 100 * 1.0 / (25 * 0.5 + 4 * (1 / 3) * 0.5)) ** 0.25
        assert K == L == int(math.floor(raw))

    def test_clamped_below(self):
        K, L = hoelder_KL_rule(100, 100, 0.5, NoiseModel.bernoulli(), hoelder_L=1e-6)
        assert K == L == 2

    def test_grows_with_size(self):
        noise = NoiseModel.bernoulli()
        k_small, _ = hoelder_KL_rule(100, 100, 0.5, noise, hoelder_L=1.0)
        k_big, _ = hoelder_KL_rule(1600, 1600, 0.5, noise, hoelder_L=1.0)
        assert k_big > k_small
        # K ~ sqrt(n) at fixed constants: 16x the size means 4x the count,
        # up to the two floors
        assert 4 * k_small <= k_big <= 4 * (k_small + 1)


_N_VALUES = "n_values must be a non-empty list of positive integers"


def tiny_spec(**kw):
    defaults = dict(
        name="tiny",
        setup="rand_graphon",
        rho=0.7,
        K=2,
        L=2,
        n_values=(20,),
        reps=2,
        inits=("spectral",),
        restarts=3,
        seed=9,
    )
    defaults.update(kw)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_single_cell_single_record(self):
        result = run_experiment(tiny_spec(reps=1))
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec["sweep_value"] == 20 and rec["init"] == "spectral"
        assert rec["mse"] >= 0 and rec["rate_bound"] > 0
        assert rec["oracle_mse"] is not None

    def test_deterministic_reruns(self):
        a = run_experiment(tiny_spec())
        b = run_experiment(tiny_spec())
        for ra, rb in zip(a.records, b.records):
            for key in ra:
                if key != "runtime_ms":
                    assert ra[key] == rb[key]
        assert a.summary == b.summary

    def test_m_is_half_n(self):
        spec = tiny_spec(n_values=(24,), reps=1)
        result = run_experiment(spec)
        rec = result.records[0]
        obs = synthesize(
            SynthConfig(
                24, 12,
                make_standard_graphon("rand", K=2, L=2, rho=0.7,
                                      seed=_graphon_seed(spec)),
                spec.noise, seed=rec["seed"],
            )
        )
        fit = lloyd_fit(obs.H, FitConfig(K=2, L=2, init="spectral", seed=rec["seed"]))
        assert mse_theta(induced_mean(fit.model), obs.theta_star) == pytest.approx(rec["mse"])

    def test_rho_sweep(self):
        spec = ExperimentSpec(
            name="rho", setup="cos_graphon", K=2, L=2,
            rho_values=(0.3, 0.6), n=20, m=16, reps=1, inits=("random",),
            restarts=2, seed=4,
        )
        result = run_experiment(spec)
        assert [r["sweep_value"] for r in result.records] == [0.3, 0.6]
        # intensity sweeps overlay the closed-form oracle curve
        formula = {
            r["sweep_value"]: r["median"]
            for r in result.summary
            if r["init"] == "oracle_formula"
        }
        from graphon_lab.evaluation import oracle_risk_bernoulli
        from graphon_lab.synthesis import make_standard_graphon

        for rho in (0.3, 0.6):
            g = make_standard_graphon("cos", K=2, L=2, rho=rho)
            assert formula[rho] == pytest.approx(
                oracle_risk_bernoulli(g.values, 20, 16)
            )

    def test_cos_quarter_scale_bracket(self):
        # median fit error sits between the oracle's and ten times the
        # theoretical remainder on a mid-sized oscillating-block instance
        spec = ExperimentSpec(
            name="cos_bracket", setup="cos_graphon", rho=0.6, K=8, L=8,
            n_values=(256,), reps=20, inits=("spectral",), seed=77,
        )
        result = run_experiment(spec)
        med = {r["init"]: r["median"] for r in result.summary}
        bound = result.records[0]["rate_bound"]
        assert np.isfinite(med["spectral"])
        assert med["oracle"] <= med["spectral"] <= 10 * bound

    def test_hoelder_setup_records_delta(self):
        spec = ExperimentSpec(
            name="smooth", setup="hoelder", rho=0.8, n_values=(24,),
            reps=1, inits=("spectral",), seed=6, delta_grid=200,
        )
        result = run_experiment(spec)
        rec = result.records[0]
        assert rec["delta_tilde"] is not None and rec["delta_tilde"] >= 0
        assert rec["oracle_mse"] is None  # no true clusters for smooth truths

    def test_summary_quantile_order(self):
        result = run_experiment(tiny_spec(reps=5))
        for row in result.summary:
            assert row["q10"] <= row["median"] <= row["q90"]

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            tiny_spec(n_values=None, rho_values=None)
        with pytest.raises(ValueError):
            tiny_spec(rho_values=(0.5,), n_values=None)  # missing n, m
        with pytest.raises(ValueError):
            tiny_spec(K=None)
        # the JSON form round-trips, and a missing noise model is Bernoulli
        spec = tiny_spec(noise=NoiseModel.gaussian(0.5))
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        without_noise = {k: v for k, v in spec.to_dict().items() if k != "noise"}
        assert ExperimentSpec.from_dict(without_noise).noise == NoiseModel.bernoulli()
        for bad in ({**without_noise, "rho": "high"}, {"name": "x"}, "spec"):
            with pytest.raises(ValueError):
                ExperimentSpec.from_dict(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0, -0.5])
    def test_rho_checked_at_construction(self, bad):
        # every value, before any cell runs
        with pytest.raises(ValueError, match="rho"):
            tiny_spec(rho=bad)
        with pytest.raises(ValueError, match="rho"):
            tiny_spec(n_values=None, rho_values=(0.5, bad), n=20, m=16)
        spec = tiny_spec().to_dict()
        with pytest.raises(ValueError, match="rho"):
            ExperimentSpec.from_dict({**spec, "n_values": None, "rho_values": [bad],
                                      "n": 20, "m": 16})

    @pytest.mark.parametrize(
        "bad, message",
        [(dict(n_values=(20.7, 24)), rf"^{_N_VALUES}, got \(20\.7, 24\)$"),
         (dict(n_values=(24, True)), rf"^{_N_VALUES}, got \(24, True\)$"),
         (dict(n_values=24), rf"^{_N_VALUES}, got 24$"),
         (dict(n_values=None, rho_values=(True,), n=20, m=16),
          r"^rho must be a number in \(0, 1e\+100\], got True$"),
         (dict(n_values=None, rho_values=(0.5,), n=20.0, m=16), r"^n must be a positive integer"),
         (dict(reps=True), r"^reps must be a positive integer, got True$"),
         (dict(reps="3"), r"^reps must be a positive integer, got '3'$"),
         (dict(delta_grid=2.5), r"^delta_grid must be an integer, got 2\.5$"),
         (dict(name=7), r"^name must be a string, got 7$"),
         (dict(noise="bernoulli"), r"^noise must be a NoiseModel, got 'bernoulli'$"),
         (dict(inits=()), r"^inits must be a non-empty list of strings, got \(\)$"),
         (dict(inits="spectral"), r"^inits must be a non-empty list of strings, got 'spectral'$"),
         (dict(rho=1e200), r"^rho must be a number in \(0, 1e\+100\], got 1e\+200$")],
        ids=["n-float", "n-bool", "n-scalar", "rho-bool", "fixed-n-float", "reps-bool",
             "reps-string", "delta-grid-float", "name", "noise", "inits-empty", "inits-string",
             "rho-huge"],
    )
    def test_field_types_checked_without_conversion(self, bad, message):
        # n_values=(20.7, True) used to run cells of n = 20 and n = 1, rho_values=(True,)
        # rho = 1.0, reps="3" raised a TypeError, and reps=True and delta_grid=2.5 passed
        with pytest.raises(ValueError, match=message):
            tiny_spec(**bad)

    def test_sweep_values_keep_their_type(self):
        spec = tiny_spec(n_values=[20, np.int64(24)])
        assert spec.n_values == (20, 24) and type(spec.n_values[1]) is np.int64
        spec = tiny_spec(n_values=None, rho_values=[1, 0.5], n=20, m=16)
        assert spec.rho_values == (1, 0.5) and type(spec.rho_values[0]) is int

    @pytest.mark.parametrize(
        "spec, cell",
        [(dict(K=4, L=4, n0=5, n_values=(40, 16)),
          r"n=16, m=8 \(K=4, L=4, n0=5, m0=0, .*infeasible row sizes: 4 \* 5 > 16"),
         (dict(K=2, L=3, n_values=(4,)), r"n=4, m=2 \(K=2, L=3, .*more clusters than rows"),
         (dict(setup="hoelder", K=None, L=None, m0=7, n_values=(24,)),
          r"n=24, m=12 \(K=2, L=2, n0=0, m0=7, .*infeasible column sizes: 2 \* 7 > 12")],
        ids=["row-floor", "too-many-columns", "hoelder-rule"],
    )
    def test_an_infeasible_cell_is_refused_naming_it(self, spec, cell, monkeypatch):
        # such a cell used to be skipped with a log line; a spec of only such
        # cells ran to an empty records CSV
        monkeypatch.setattr(experiments, "synthesize", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=rf"^the fit of the cell {cell}"):
            tiny_spec(**spec)
        with pytest.raises(ValueError, match=cell):
            ExperimentSpec.from_dict({**tiny_spec().to_dict(), **spec})

    def test_the_hoelder_rule_builds_one_graphon_per_distinct_rho(self, monkeypatch):
        built = []
        real = experiments.make_standard_graphon
        monkeypatch.setattr(experiments, "make_standard_graphon",
                            lambda *a, **kw: built.append(kw["rho"]) or real(*a, **kw))
        ExperimentSpec(name="smooth", setup="hoelder", n_values=None, n=24, m=12,
                       rho_values=(0.3, 0.7, 0.3, 0.7, 0.3), delta_grid=100)
        assert sorted(built) == [0.3, 0.7]

    @pytest.mark.parametrize(
        "spec, cell",
        [(dict(n_values=(16, 20000)),
          r"n=20000, m=10000, rho=0\.7: an observation set has at most 2\^27 entries"),
         (dict(K=5000, L=5000, n_values=(10000,)),
          r"n=10000, m=5000, rho=0\.7: a rand graphon has at most 2\^24 cells")],
        ids=["entries", "graphon-cells"],
    )
    def test_a_cell_whose_data_cannot_be_built_is_refused_naming_it(self, spec, cell,
                                                                    monkeypatch):
        # the n = 16 cell used to run before the n = 20000 cell was refused, and a
        # graphon of 5000 x 5000 cells was accepted
        monkeypatch.setattr(experiments, "synthesize", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=rf"^the data of the cell {cell}"):
            tiny_spec(**spec)
        with pytest.raises(ValueError, match=cell):
            ExperimentSpec.from_dict({**tiny_spec().to_dict(), **spec})

    @pytest.mark.parametrize(
        "sweep, rhos",
        [(dict(n_values=(20, 24), reps=3), [0.7]),
         (dict(setup="cos_graphon", n_values=None, rho_values=(0.3, 0.6), n=20, m=16, reps=2),
          [0.3, 0.6])],
        ids=["n-sweep", "rho-sweep"],
    )
    def test_a_run_builds_one_graphon_per_distinct_rho(self, sweep, rhos, monkeypatch):
        # each (sweep value, rep) cell used to build its own graphon, and each
        # closed-form oracle row one more: 6 in both runs
        spec = tiny_spec(**sweep)
        built = []
        real = experiments.make_standard_graphon
        monkeypatch.setattr(experiments, "make_standard_graphon",
                            lambda *a, **kw: built.append(kw["rho"]) or real(*a, **kw))
        result = run_experiment(spec)
        assert sorted(built) == rhos
        assert len(result.records) == len(spec.sweep_cells()) * spec.reps

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1e-3])
    def test_tol_gamma_checked_at_construction(self, bad):
        with pytest.raises(ValueError, match="tol_gamma"):
            tiny_spec(tol_gamma=bad)
        with pytest.raises(ValueError, match="tol_gamma"):
            ExperimentSpec.from_dict({**tiny_spec().to_dict(), "tol_gamma": bad})

    @pytest.mark.parametrize(
        "bad, message",
        [(dict(n0=-1), "minimum sizes"), (dict(m0=-1), "minimum sizes"),
         (dict(restarts=0), "restarts"), (dict(max_iters=0), "max_iters"),
         (dict(K=1), "K and L"), (dict(L=1), "K and L"),
         (dict(inits=("spectral", "given")), "init_labels"),
         (dict(inits=("lloyd",)), "unknown init"),
         (dict(setup="hoelder", K=None, L=None, n0=-1), "minimum sizes"),
         (dict(setup="hoelder", K=3, L=None), "give K and L")],
        ids=["n0", "m0", "restarts", "max_iters", "K", "L", "given", "unknown", "hoelder-n0",
             "hoelder-K-only"],
    )
    def test_fit_rules_checked_at_construction(self, bad, message, monkeypatch):
        # FitConfig's rules, before any cell draws its data
        monkeypatch.setattr(experiments, "synthesize", lambda *a: pytest.fail("a cell ran"))
        with pytest.raises(ValueError, match=message):
            tiny_spec(**bad)
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_dict({**tiny_spec().to_dict(), **bad})

    @pytest.mark.parametrize("beta", [0.0, -1.0, float("nan"), float("inf")])
    def test_ewa_experiment_checks_beta_before_any_draw(self, beta, monkeypatch):
        monkeypatch.setattr(experiments, "synthesize", lambda *a: pytest.fail("data drawn"))
        graphon = make_standard_graphon("cos", K=2, L=2, rho=0.6)
        with pytest.raises(ValueError, match="beta must be finite and positive"):
            run_ewa_experiment(20, 20, graphon, NoiseModel.bernoulli(), reps=1, seed=0, beta=beta)

    def test_cells_get_the_spec_itself(self, monkeypatch):
        # no cell parses the spec's dict form again
        monkeypatch.setattr(
            ExperimentSpec, "from_dict", staticmethod(lambda d: pytest.fail("re-parsed"))
        )
        assert len(run_experiment(tiny_spec(reps=2)).records) == 2

    @pytest.mark.parametrize(
        "sweep, delta_grid",
        [
            (dict(n_values=(24,)), 50),  # below delta_tilde's floor of 100
            (dict(n_values=(24, 400)), 300),  # below the larger cell's n
            (dict(rho_values=(0.5,), n=120, m=150), 140),  # below m
        ],
    )
    def test_hoelder_delta_grid_checked_at_construction(self, sweep, delta_grid):
        with pytest.raises(ValueError, match="delta_grid"):
            ExperimentSpec(name="smooth", setup="hoelder", delta_grid=delta_grid, **sweep)
        # the same grids pass where the largest side fits, and where no
        # delta_tilde is computed
        ExperimentSpec(name="smooth", setup="hoelder", n_values=(24,), delta_grid=100)
        ExperimentSpec(
            name="rand", setup="rand_graphon", K=2, L=2, delta_grid=delta_grid, **sweep
        )


def _graphon_seed(spec):
    return cell_seed(spec.seed, 99)


class TestEmitOutputs:
    def test_files_and_round_trip(self, tmp_path):
        result = run_experiment(tiny_spec(reps=3, inits=("spectral", "random")))
        paths = emit_outputs(result, tmp_path)
        assert paths["csv"].exists() and paths["json"].exists() and paths["svg"].exists()
        parsed = load_records_csv(paths["csv"])
        assert len(parsed) == len(result.records)
        for got, want in zip(parsed, result.records):
            for key, val in want.items():
                if val is None:
                    assert got[key] is None
                elif isinstance(val, float):
                    assert got[key] == pytest.approx(val, rel=1e-15)
                else:
                    assert got[key] == val

    def test_records_read_back_with_value_and_type(self, tmp_path):
        # a rho sweep holding 1.0 must read back floats, not the int 1
        spec = ExperimentSpec(
            name="rho", setup="cos_graphon", K=2, L=2, rho_values=(0.5, 1.0),
            n=20, m=16, reps=1, inits=("spectral",), n0=3, m0=3, seed=4,
        )
        result = run_experiment(spec)
        paths = emit_outputs(result, tmp_path, formats=("csv",))
        parsed = load_records_csv(paths["csv"])
        assert [r["sweep_value"] for r in parsed] == [0.5, 1.0]

        def typed(rec):
            return {k: (type(v).__name__, v.hex() if isinstance(v, float) else v)
                    for k, v in rec.items()}

        assert [typed(r) for r in parsed] == [typed(r) for r in result.records]

    def test_svg_curve_count(self, tmp_path):
        result = run_experiment(tiny_spec(reps=2, inits=("spectral", "random")))
        paths = emit_outputs(result, tmp_path, formats=("svg",))
        text = paths["svg"].read_text()
        # one polyline per init plus the oracle and bound curves
        assert text.count("<polyline") == 4

    def test_empty_records_header_only(self, tmp_path):
        from graphon_lab.experiments import ExperimentResult

        empty = ExperimentResult(name="none", spec={}, records=[], summary=[])
        paths = emit_outputs(empty, tmp_path, formats=("csv",))
        lines = paths["csv"].read_text().strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("sweep_value,")


class TestFitGrid:
    def test_all_entries_fitted_with_floors(self):
        rng = np.random.default_rng(0)
        H = rng.random((40, 40))
        grid = default_grid(40, 40)
        reports = fit_grid(H, grid, seed=1)
        assert set(reports) == set(grid.entries)
        for (K, L, n0, m0), rep in reports.items():
            assert rep.model.K == K and rep.model.L == L
            assert rep.model.z_rows.counts().min() >= n0
            assert rep.model.z_cols.counts().min() >= m0
            assert (np.diff(rep.cost_trajectory) <= 1e-9).all()

    def test_reuse_shares_objects(self):
        rng = np.random.default_rng(1)
        H = rng.random((30, 30))
        grid = HyperGrid(((2, 2, 4, 4), (2, 2, 5, 5)))
        reports = fit_grid(H, grid, seed=0)
        a, b = reports[(2, 2, 4, 4)], reports[(2, 2, 5, 5)]
        # with two balanced clusters of ~15 the floors never bind, so both
        # entries reuse the shared unconstrained trajectory
        if a.traj_min_sizes[0] >= 5 and a.traj_min_sizes[1] >= 5:
            assert a is b

    @staticmethod
    def _grid_case():
        g = make_standard_graphon("rand", K=3, L=3, rho=0.7, seed=2)
        H = synthesize(SynthConfig(60, 45, g, NoiseModel.bernoulli(), seed=4)).H
        floors = ((0, 0), (2, 2), (5, 3), (8, 6), (14, 10), (19, 14), (19, 2))
        return H, HyperGrid(tuple((K, K, n0, m0) for K in (2, 3) for n0, m0 in floors))

    @staticmethod
    def _record_runs(monkeypatch):
        """Record ``(config, report)`` of every run fit_grid performs."""
        runs = []
        real = estimation._fit_starts

        def recording_fit(prep, starts, config):
            report = real(prep, starts, config)
            runs.append((config, report))
            return report

        monkeypatch.setattr(estimation, "_fit_starts", recording_fit)
        return runs

    def test_reused_entries_match_direct_runs(self, monkeypatch):
        # every entry served by an earlier run must equal a direct fit with
        # the entry's own floors from that run's initial labels
        runs = self._record_runs(monkeypatch)
        H, grid = self._grid_case()
        reports = fit_grid(H, grid, seed=3)
        own = {id(rep): cfg for cfg, rep in runs}
        reused = binding = 0
        for (K, L, n0, m0), rep in reports.items():
            cfg = own[id(rep)]
            if (cfg.n0, cfg.m0) == (n0, m0):
                binding += n0 > 0 or m0 > 0
                continue
            reused += n0 > 0 or m0 > 0
            direct = lloyd_fit(H, dataclasses.replace(cfg, n0=n0, m0=m0))
            assert np.array_equal(direct.model.z_rows.labels, rep.model.z_rows.labels)
            assert np.array_equal(direct.model.z_cols.labels, rep.model.z_cols.labels)
            assert np.array_equal(direct.model.Q, rep.model.Q)
            assert direct.cost_trajectory == rep.cost_trajectory
        assert reused > 0 and binding > 0

    def test_prepares_once_and_own_runs_equal_lloyd_fit(self, monkeypatch):
        # one preparation of H serves every run, no run goes through
        # lloyd_fit, and each entry with its own run is bitwise the
        # lloyd_fit of that run's configuration
        prepared = []
        real_prepare = estimation._prepare
        monkeypatch.setattr(estimation, "_prepare",
                            lambda H, H_sq: prepared.append(H) or real_prepare(H, H_sq))
        monkeypatch.setattr(estimation, "lloyd_fit", None)
        runs = self._record_runs(monkeypatch)
        H, grid = self._grid_case()
        reports = fit_grid(H, grid, seed=3)
        assert len(prepared) == 1
        monkeypatch.undo()
        own = {id(rep): cfg for cfg, rep in runs}
        checked = 0
        for (K, L, n0, m0), rep in reports.items():
            cfg = own[id(rep)]
            if (cfg.n0, cfg.m0) != (n0, m0):
                continue
            direct = lloyd_fit(H, cfg)
            assert direct.model.z_rows.labels.tobytes() == rep.model.z_rows.labels.tobytes()
            assert direct.model.z_cols.labels.tobytes() == rep.model.z_cols.labels.tobytes()
            assert direct.model.Q.tobytes() == rep.model.Q.tobytes()
            assert [x.hex() for x in direct.cost_trajectory] == [
                x.hex() for x in rep.cost_trajectory
            ]
            assert direct.traj_min_sizes == rep.traj_min_sizes
            assert direct.iterations == rep.iterations
            checked += 1
        assert checked == len(runs) > 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, bad):
        H = np.random.default_rng(2).random((20, 20))
        H[0, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_grid(H, HyperGrid(((2, 2, 0, 0),)), seed=0)


@pytest.mark.parametrize("raw", ["abc", "2.5", ""])
def test_worker_count_rejects_non_integer(monkeypatch, raw):
    monkeypatch.setenv("GRAPHON_LAB_THREADS", raw)
    with pytest.raises(ValueError, match="GRAPHON_LAB_THREADS"):
        worker_count()


def test_worker_count_reads_integer(monkeypatch):
    monkeypatch.setenv("GRAPHON_LAB_THREADS", "3")
    assert worker_count() == 3
    monkeypatch.setenv("GRAPHON_LAB_THREADS", "0")
    assert worker_count() == 1


def test_pool_has_at_most_one_worker_per_cell(monkeypatch):
    # a stand-in executor records the pool size and maps in this process, so
    # no worker starts; a real pool would fork all 64 at the first submit
    import concurrent.futures

    sizes = []

    class RecordingExecutor:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor,
                        raising=False)
    monkeypatch.setenv("GRAPHON_LAB_THREADS", "64")
    result = run_experiment(tiny_spec(n_values=(20, 24), reps=2))
    assert len(result.records) == 4
    assert sizes == [4]


def test_ewa_experiment_matches_ewa_aggregate():
    n, m, seed, beta = 40, 30, 7, 8.0 / 3.0
    graphon = make_standard_graphon("cos", K=2, L=2, rho=0.6)
    noise = NoiseModel.bernoulli()
    grid = HyperGrid(((2, 2, 0, 0), (2, 2, 10, 10), (3, 2, 5, 5), (4, 3, 0, 0)))
    out = run_ewa_experiment(n, m, graphon, noise, reps=1, seed=seed, beta=beta, grid=grid)
    # replay the repetition's draw and grid fits
    rep_seed = cell_seed(seed, 3, 0)
    obs = synthesize(
        SynthConfig(n, m, graphon, noise, seed=rep_seed, with_second_copy=True)
    )
    reports = fit_grid(obs.H, grid, seed=rep_seed)
    result = ewa_aggregate([reports[e].model for e in grid], obs.H_prime, beta)
    record = out["records"][0]
    assert record["ewa_mse"] == mse_theta(result.aggregate, obs.theta_star)
    best = int(np.argmin(result.residuals))
    assert record["argmin_weight"] == result.weights[best]
