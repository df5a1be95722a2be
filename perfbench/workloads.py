"""The benchmark's workloads: inputs, operations and output checks.

Each workload has two halves. ``generate`` runs in the benchmark's own
process: it draws every input from the workload seed with numpy's
generator, writes the inputs to the run's work directory and computes the
references that the output checks compare against. The workload class runs
in the measured worker process: ``setup`` turns the inputs into the
program's objects, ``op`` performs one operation, and the checks run after
the timed loop so they never land inside it.

Operations call the program through module attributes looked up at call
time (``inference.analyze``, ``cli.main``), which is where the tracer
wraps them.

All workloads use d = 8 and p = 2. ``tiny`` shrinks every shape for the
self-test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np
from scipy.special import ndtr, ndtri

import swinfer
from swinfer import cli, geometry, inference

D = 8
LEVEL = 0.95
# relative tolerance of the reference checks: loose enough for a change of
# summation order (about 1e-12 here), tight enough to catch a result scaled
# by 1 + 1e-6
RTOL = 1e-8
ATOL = 1e-10
# half-width of the pooled rejection band, in binomial standard errors
BAND_Z = 4.5
# the shift has norm 2, so the population sliced cost is 4 / d = 0.5
SHIFT_NORM = 2.0
TRUTH = SHIFT_NORM ** 2 / D

REPORT_KEYS = ("estimate", "w_hat_sq", "v_hat_pq_sq", "v_hat_qp_sq",
               "combined_variance", "statistic", "p_value", "ci_low", "ci_high")


def _shifted_pair(rng: np.random.Generator, n: int, m: int):
    shift = rng.standard_normal(D)
    shift *= SHIFT_NORM / np.linalg.norm(shift)
    X = rng.standard_normal((n, D))
    Y = rng.standard_normal((m, D)) + shift
    return X, Y


def scalar_reference(X: np.ndarray, Y: np.ndarray, dirs: np.ndarray,
                     delta: float) -> dict[str, float]:
    """Every reported number, one direction at a time through the scalar
    public path (``sort_projection``, ``wasserstein_pp``,
    ``potential_values``) and the paper's formulas written out here."""
    n, m, k = X.shape[0], Y.shape[0], dirs.shape[0]
    costs = np.empty(k)
    g_x = np.zeros(n)
    g_y = np.zeros(m)
    for row, theta in enumerate(dirs):
        s = swinfer.sort_projection(X @ theta)
        t = swinfer.sort_projection(Y @ theta)
        costs[row] = swinfer.wasserstein_pp(s, t, 2.0)
        g_x[s.perm] += swinfer.potential_values(s, t)
        g_y[t.perm] += swinfer.potential_values(t, s)
    estimate = float(costs.mean())
    w = float(costs.var())
    v_pq = float(np.var(g_x / k))
    v_qp = float(np.var(g_y / k))
    r = n * m / (n + m)
    tau = k / (k + r)
    lam = n / (n + m)
    combined = (1.0 - tau) * w + tau * ((1.0 - lam) * v_pq + lam * v_qp)
    rate = math.sqrt(k * r / (k + r))
    statistic = rate * (estimate - delta) / math.sqrt(combined)
    half = float(ndtri(0.5 + 0.5 * LEVEL)) * math.sqrt(combined) / rate
    return {"estimate": estimate, "w_hat_sq": w, "v_hat_pq_sq": v_pq,
            "v_hat_qp_sq": v_qp, "combined_variance": combined,
            "statistic": statistic, "p_value": float(2.0 * ndtr(-abs(statistic))),
            "ci_low": estimate - half, "ci_high": estimate + half}


def compare(got: dict, want: dict) -> str | None:
    for key in REPORT_KEYS:
        if not abs(got[key] - want[key]) <= RTOL * abs(want[key]) + ATOL:
            return f"{key} = {got[key]!r}, reference {want[key]!r}"
    return None


def report_numbers(report) -> dict[str, float]:
    vc = report.variance
    return {"estimate": report.estimate, "w_hat_sq": vc.w_hat_sq,
            "v_hat_pq_sq": vc.v_hat_pq_sq, "v_hat_qp_sq": vc.v_hat_qp_sq,
            "combined_variance": vc.combined, "statistic": report.statistic,
            "p_value": report.p_value, "ci_low": report.ci_low,
            "ci_high": report.ci_high}


def _quiet_main(argv: list[str]) -> int:
    """``cli.main`` with its stdout table kept out of the benchmark's output."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


class Workload:
    name = ""
    work_unit = ""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.workdir = Path(cfg["workdir"])

    def setup(self) -> None:
        """Program-side preparation; timed as part of ``setup_s``."""

    def op(self, i: int):
        raise NotImplementedError

    def work(self) -> float:
        """Units of useful work in one operation."""
        raise NotImplementedError

    def check(self, i: int, output) -> str | None:
        """None when operation i's output is right, else what is wrong."""
        raise NotImplementedError

    def check_run(self, passed: list[int]) -> str | None:
        """Checks over all passing operations of the run."""
        return None

    def determinism(self, output0) -> str | None:
        """Redo operation 0 with another thread count; None if bit-identical."""
        raise NotImplementedError


class AnalyzeMid(Workload):
    """``swinfer.analyze`` at n = m = 4000, k = 1024, threads = 1."""

    name = "analyze-mid"
    work_unit = "directions"
    POOL = 3

    @staticmethod
    def generate(seed: int, workdir: Path, tiny: bool) -> dict:
        n = m = 60 if tiny else 4000
        k = 40 if tiny else 1024
        rng = np.random.default_rng([seed, 1])
        refs = []
        for j in range(AnalyzeMid.POOL):
            X, Y = _shifted_pair(rng, n, m)
            dir_seed = int(rng.integers(1 << 62))
            np.save(workdir / f"x{j}.npy", X)
            np.save(workdir / f"y{j}.npy", Y)
            dirs = geometry.sample_directions(D, k, dir_seed, 0).dirs
            refs.append({"dir_seed": dir_seed,
                         "reference": scalar_reference(X, Y, dirs, TRUTH)})
        return {"n": n, "m": m, "k": k, "delta": TRUTH, "pool": refs}

    def __init__(self, cfg):
        super().__init__(cfg)
        self.arrays = [(np.load(self.workdir / f"x{j}.npy"),
                        np.load(self.workdir / f"y{j}.npy"))
                       for j in range(len(cfg["pool"]))]

    def setup(self):
        self.inputs = [(geometry.SampleMatrix(X), geometry.SampleMatrix(Y),
                        geometry.sample_directions(D, self.cfg["k"], entry["dir_seed"], 0))
                       for (X, Y), entry in zip(self.arrays, self.cfg["pool"])]

    def _analyze(self, i, threads):
        X, Y, dirs = self.inputs[i % len(self.inputs)]
        return inference.analyze(X, Y, dirs, p=2.0, delta=self.cfg["delta"],
                                 level=LEVEL, threads=threads)

    def op(self, i):
        return self._analyze(i, 1)

    def work(self):
        return self.cfg["k"]

    def check(self, i, report):
        ref = self.cfg["pool"][i % len(self.cfg["pool"])]["reference"]
        return compare(report_numbers(report), ref)

    def determinism(self, report0):
        if self._analyze(0, 2) != report0:
            return "threads=2 report differs from threads=1"
        return None


class SimulateNull(Workload):
    """``swinfer simulate`` on the criterion-6 cell, 32 replications per op."""

    name = "simulate-null"
    work_unit = "replications"

    @staticmethod
    def generate(seed: int, workdir: Path, tiny: bool) -> dict:
        # tiny keeps the cell, whose null calibration the run check tests,
        # and only cuts the replications
        plan = {"d": D, "n": 500, "m": 300, "k": 400, "h_values": [0.0],
                "delta": 1.0, "replications": 4 if tiny else 32,
                "master_seed": 0, "level": LEVEL}
        (workdir / "plan.json").write_text(json.dumps(plan))
        base_seed = int(np.random.default_rng([seed, 2]).integers(1 << 62))
        return {"plan": plan, "base_seed": base_seed}

    def __init__(self, cfg):
        super().__init__(cfg)
        self.rejects: dict[int, tuple[int, int]] = {}

    def _simulate(self, i, threads, tag):
        out = self.workdir / f"sim{i}{tag}"
        code = _quiet_main(["simulate", "--plan", str(self.workdir / "plan.json"),
                            "--threads", str(threads),
                            "--seed", str(self.cfg["base_seed"] + i),
                            "--out", str(out)])
        return code, out

    def op(self, i):
        return self._simulate(i, 2, "")

    def work(self):
        return self.cfg["plan"]["replications"]

    def check(self, i, output):
        code, out = output
        if code != 0:
            return f"exit code {code}"
        reps = self.cfg["plan"]["replications"]
        try:
            doc = json.loads(out.with_suffix(".json").read_text())
            lines = out.with_suffix(".csv").read_text().splitlines()
        except (OSError, ValueError) as exc:
            return f"unreadable output: {exc}"
        cell = doc["cells"][0]
        if cell["excluded"] != 0:
            return f"{cell['excluded']} replications excluded"
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != reps:
            return f"{len(rows)} CSV rows for {reps} replications"
        q = float(ndtri(0.5 + 0.5 * LEVEL))
        flags = 0
        for row in rows:
            t = float(row[3])
            if not math.isfinite(t):
                return f"non-finite statistic {row[3]}"
            if int(row[4]) != int(abs(t) > q):
                return f"reject flag {row[4]} disagrees with statistic {t}"
            flags += int(row[4])
        if cell["rejection_rate"] != flags / reps:
            return f"rejection rate {cell['rejection_rate']} for {flags}/{reps} rejects"
        self.rejects[i] = (flags, reps)
        return None

    def check_run(self, passed):
        rejected = sum(self.rejects[i][0] for i in passed)
        total = sum(self.rejects[i][1] for i in passed)
        alpha = round(1.0 - LEVEL, 12)
        band = BAND_Z * math.sqrt(alpha * (1.0 - alpha) / total)
        if abs(rejected / total - alpha) > band:
            return (f"pooled rejection rate {rejected}/{total} outside "
                    f"{alpha} +- {band:.4f}")
        return None

    def determinism(self, output0):
        code, out = self._simulate(0, 1, "t1")
        if code != 0:
            return f"threads=1 exit code {code}"
        for suffix in (".csv", ".json"):
            if out.with_suffix(suffix).read_bytes() != \
                    output0[1].with_suffix(suffix).read_bytes():
                return f"threads=1 {suffix} differs from threads=2"
        return None


class CliCsv(Workload):
    """``swinfer test`` on CSV files of 60000 and 36000 rows, k = 32."""

    name = "cli-csv"
    work_unit = "rows"

    @staticmethod
    def generate(seed: int, workdir: Path, tiny: bool) -> dict:
        # 100000 and 60000 rows gave only 11 to 13 operations a run, too
        # few for a steady median when the parse time swings by a third
        n, m = (600, 400) if tiny else (60_000, 36_000)
        k = 8 if tiny else 32
        rng = np.random.default_rng([seed, 3])
        X, Y = _shifted_pair(rng, n, m)
        cli_seed = int(rng.integers(1 << 62))
        for name, data in (("x.csv", X), ("y.csv", Y)):
            np.savetxt(workdir / name, data, fmt="%.17g", delimiter=",")
        # estimate and test draw their directions from this substream
        stream = getattr(cli, "_DIRECTIONS_STREAM", 1)
        dirs = geometry.sample_directions(D, k, cli_seed, stream).dirs
        return {"n": n, "m": m, "k": k, "delta": TRUTH, "cli_seed": cli_seed,
                "reference": scalar_reference(X, Y, dirs, TRUTH)}

    def _test(self, i, threads, tag):
        out = self.workdir / f"report{i}{tag}.json"
        code = _quiet_main(["test", "--x", str(self.workdir / "x.csv"),
                            "--y", str(self.workdir / "y.csv"),
                            "--k", str(self.cfg["k"]),
                            "--delta", repr(self.cfg["delta"]),
                            "--seed", str(self.cfg["cli_seed"]),
                            "--threads", str(threads), "--out", str(out)])
        return code, out

    def op(self, i):
        return self._test(i, 1, "")

    def work(self):
        return self.cfg["n"] + self.cfg["m"]

    def check(self, i, output):
        code, out = output
        if code != 0:
            return f"exit code {code}"
        try:
            doc = json.loads(out.read_text())
        except (OSError, ValueError) as exc:
            return f"unreadable report: {exc}"
        shape = (doc["n"], doc["m"], doc["d"], doc["k"])
        if shape != (self.cfg["n"], self.cfg["m"], D, self.cfg["k"]):
            return f"report shape (n, m, d, k) = {shape}"
        if not 0.0 <= doc["p_value"] <= 1.0:
            return f"p-value {doc['p_value']} outside [0, 1]"
        if not doc["ci_low"] <= doc["estimate"] <= doc["ci_high"]:
            return "estimate outside its own interval"
        se = math.sqrt(doc["combined_variance"]) / doc["effective_rate"]
        if abs(doc["estimate"] - TRUTH) > 6.0 * se:
            return f"estimate {doc['estimate']} more than 6 SE from {TRUTH}"
        return compare(doc, self.cfg["reference"])

    def determinism(self, output0):
        code, out = self._test(0, 2, "t2")
        if code != 0:
            return f"threads=2 exit code {code}"
        if out.read_bytes() != output0[1].read_bytes():
            return "threads=2 report differs from threads=1"
        return None


WORKLOADS = {w.name: w for w in (AnalyzeMid, SimulateNull, CliCsv)}

