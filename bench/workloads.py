"""The benchmark workloads: inputs from a seed, one timed pass, output checks.

cli-bands-csv
    ``condbands bands`` on an m1 CSV (n = 10 000) over 41 locations at each
    curve's own jump points: about 44 k output rows.  CSV ingest and
    ``BandTable.to_csv`` dominate, so it shows changes to the I/O layer.
lib-bands-dense
    cdf, regression and quantile bands from the library on one m1 sample
    (n = 20 000) over 201 locations; the timed pass writes nothing, the
    tables are serialised afterwards for the checks.  Every location is fitted
    about six times on all n points, so kernel evaluation and local fits
    dominate; an I/O change should not move it.
exp-sup-m2
    ``sup_experiment`` on m2 (n = 5000, 10 replications, 2 worker threads):
    many small samples, centering quadrature and the worker pool.

A workload object is built from a work directory and a seed.  ``setup`` makes
the inputs, ``run`` is the timed pass, ``write_outputs`` turns a pass result
into files (untimed) and ``check`` validates those files in another process.

Each pass takes about half a second on 2 vCPUs, so that a run holds a few dozen
passes and its fastest pass is seldom one that other tenants of a shared host
slowed down (see ``run.py``).
"""

from __future__ import annotations

import json
import os

import numpy as np

from condbands import bands, cli, estimator, experiments, kernels, simulation

import checks

DEFAULT_SEED = 0


def _config(n: int) -> estimator.EstimatorConfig:
    return estimator.EstimatorConfig(
        kernel=kernels.get_kernel("epanechnikov"),
        bandwidth=estimator.reference_bandwidth(n),
        order=1,
    )


class CliBandsCsv:
    name = "cli-bands-csv"
    N = 10_000
    EPSILON = 0.5
    X_GRID = np.linspace(-1.0, 1.0, 41)
    params = {"model": "m1", "n": N, "epsilon": EPSILON, "x_grid": "-1:1:41",
              "t_grid": "jumps", "kernel": "epanechnikov", "order": 1, "bandwidth": "auto"}

    def __init__(self, workdir: str, seed: int):
        self.workdir, self.seed = workdir, seed
        self.input = os.path.join(workdir, "input.csv")
        self.output = os.path.join(workdir, "bands.csv")

    def setup(self) -> None:
        rc = cli.main(["simulate", "--model", "m1", "--n", str(self.N),
                       "--seed", str(self.seed), "--output", self.input])
        if rc != 0:
            raise RuntimeError(f"condbands simulate exited {rc}")

    def run(self):
        rc = cli.main(["bands", "--input", self.input, "--epsilon", str(self.EPSILON),
                       "--x-grid=-1:1:41", "--t-grid", "jumps", "--output", self.output])
        if rc != 0:
            raise RuntimeError(f"condbands bands exited {rc}")

    def write_outputs(self, result) -> dict[str, str]:
        return {"bands.csv": self.output}

    def check(self, out_dir: str) -> list[str]:
        xy = np.loadtxt(self.input, delimiter=",", skiprows=1, ndmin=2)
        sample = estimator.Sample(xs=xy[:, 0], ys=xy[:, 1])
        cols, lines = checks.read_table(os.path.join(out_dir, "bands.csv"))
        problems = checks.table_invariants(cols, lines, self.X_GRID, clipped=True)
        problems += checks.spot_check_cdf(cols, sample, _config(sample.n), self.EPSILON, self.seed)
        if not np.isin(cols["t"], sample.ys).all():
            problems.append("a jump point is not a sample response")
        return problems


class LibBandsDense:
    name = "lib-bands-dense"
    N = 20_000
    EPSILON = 0.5
    Y_RANGE = (0.0, 1.0)
    ALPHA = 0.5
    X_GRID = np.linspace(-1.5, 1.5, 201)
    T_GRID = np.linspace(0.0, 1.0, 101)
    params = {"model": "m1", "n": N, "epsilon": EPSILON, "x_grid": [-1.5, 1.5, 201],
              "t_grid": [0.0, 1.0, 101], "y_range": list(Y_RANGE), "alpha": ALPHA,
              "density": "plugin", "kernel": "epanechnikov", "order": 1,
              "bandwidth": "n**-0.2"}

    def __init__(self, workdir: str, seed: int):
        self.workdir, self.seed = workdir, seed

    def setup(self) -> None:
        self.sample = simulation.draw(simulation.sim_model("m1"), self.N, self.seed)
        self.cfg = _config(self.N)

    def run(self):
        s, cfg = self.sample, self.cfg
        return {
            "cdf.csv": bands.cdf_band(s, self.X_GRID, self.T_GRID, cfg, epsilon=self.EPSILON),
            "regression.csv": bands.regression_band(s, self.X_GRID, cfg, self.Y_RANGE),
            "quantile.csv": bands.quantile_band(
                s, self.X_GRID, self.ALPHA, cfg,
                lambda x, y: bands.density_plugin(s, x, y, cfg),
            ),
        }

    def write_outputs(self, tables) -> dict[str, str]:
        paths = {}
        for name, table in tables.items():
            paths[name] = os.path.join(self.workdir, name)
            table.to_csv(paths[name])
        return paths

    def check(self, out_dir: str) -> list[str]:
        self.setup()
        s, cfg = self.sample, self.cfg
        problems = []
        cols, lines = checks.read_table(os.path.join(out_dir, "cdf.csv"))
        problems += checks.table_invariants(cols, lines, self.X_GRID, clipped=True)
        blocks, rest = divmod(cols["t"].size, self.T_GRID.size)
        if rest or not np.array_equal(cols["t"], np.tile(self.T_GRID, blocks)):
            problems.append("cdf t column is not the explicit t-grid at every location")
        problems += checks.spot_check_cdf(cols, s, cfg, self.EPSILON, self.seed)
        cols, lines = checks.read_table(os.path.join(out_dir, "regression.csv"))
        problems += checks.table_invariants(cols, lines, self.X_GRID, clipped=False)
        problems += checks.spot_check_regression(cols, s, cfg, self.Y_RANGE, self.seed)
        cols, lines = checks.read_table(os.path.join(out_dir, "quantile.csv"))
        problems += checks.table_invariants(cols, lines, self.X_GRID, clipped=False)
        problems += checks.spot_check_quantile(cols, s, cfg, self.ALPHA, self.seed)
        return problems


class ExpSupM2:
    name = "exp-sup-m2"
    N = 5000
    REPS = 10
    WORKERS = 2
    params = {"model": "m2", "n": N, "reps": REPS, "x_grid": "default (-1:1:41)",
              "workers": WORKERS, "kernel": "epanechnikov", "order": 1, "bandwidth": "n**-0.2"}

    def __init__(self, workdir: str, seed: int):
        self.workdir, self.seed = workdir, seed

    def setup(self) -> None:
        self.model = simulation.sim_model("m2")
        self.cfg = _config(self.N)

    def run(self, workers: int = WORKERS):
        return experiments.sup_experiment(
            self.model, self.N, self.REPS, self.cfg, None, self.seed, workers
        )

    def write_outputs(self, report) -> dict[str, str]:
        path = os.path.join(self.workdir, "report.json")
        with open(path, "w") as fh:
            fh.write(report.to_json())
        return {"report.json": path}

    def check(self, out_dir: str) -> list[str]:
        """The report must equal a single-worker run and be a sane sup report."""
        self.setup()
        with open(os.path.join(out_dir, "report.json")) as fh:
            text = fh.read()
        if text != self.run(workers=1).to_json():
            return ["report differs from the workers=1 report of the same seed"]
        doc = json.loads(text)
        summary = doc["summaries"][0]
        problems = []
        if (doc["kind"], doc["model"], doc["reps"], doc["seed"]) != ("sup", "m2", self.REPS, self.seed):
            problems.append("report header does not match the workload")
        for key in ("total_error", "stochastic_error"):
            stats = summary[key]
            if stats["count"] != self.REPS or not all(
                np.isfinite(stats[k]) and stats[k] >= 0 for k in ("mean", "median", "std")
            ):
                problems.append(f"{key} summary is not {self.REPS} finite non-negative values")
        return problems


WORKLOADS = {w.name: w for w in (CliBandsCsv, LibBandsDense, ExpSupM2)}
