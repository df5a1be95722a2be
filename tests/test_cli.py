import csv
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

CLI = [sys.executable, "-m", "swinfer.cli"]


def run_cli(*args, env_extra=None):
    env = os.environ.copy()
    env.update(env_extra or {})
    return subprocess.run(CLI + list(args), capture_output=True,
                          text=True, env=env)


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_data")
    rng = np.random.default_rng(1234)
    x = root / "x.csv"
    y = root / "y.csv"
    np.savetxt(x, rng.normal(0, 1, (40, 3)), delimiter=",")
    np.savetxt(y, rng.normal(0.5, 1, (30, 3)), delimiter=",")
    return {"x": str(x), "y": str(y), "root": root}


def estimate_json(data, *extra):
    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   "--k", "16", "--seed", "7", *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_estimate_identical_files(data):
    proc = run_cli("estimate", "--x", data["x"], "--y", data["x"],
                   "--k", "8", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["estimate"] == 0.0
    assert doc["ci_low"] <= 0.0 <= doc["ci_high"]


def test_estimate_report_fields(data):
    doc = estimate_json(data)
    assert doc["command"] == "estimate"
    assert (doc["n"], doc["m"], doc["d"], doc["k"]) == (40, 30, 3, 16)
    assert doc["estimate"] > 0
    assert doc["ci_low"] < doc["estimate"] < doc["ci_high"]
    assert 0 < doc["tau_hat"] < 1


def test_estimate_is_deterministic(data):
    a = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                "--k", "16", "--seed", "7")
    b = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                "--k", "16", "--seed", "7")
    assert a.stdout == b.stdout
    c = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                "--k", "16", "--seed", "8")
    assert c.stdout != a.stdout


def test_csv_and_json_reports_agree_bitwise(data):
    """Every float cell of the CSV row parses to the JSON report's value, bit
    for bit (``float.hex`` tells -0.0 from 0.0); p, level and a null value
    of -0.0 re-parse from the JSON as floats, the last with its sign."""
    for command in (("estimate",), ("test", "--delta=-0.0")):
        args = (*command, "--x", data["x"], "--y", data["y"], "--k", "16",
                "--seed", "7")
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        proc = run_cli(*args, "--format", "csv")
        assert proc.returncode == 0, proc.stderr
        header, row = csv.reader(proc.stdout.splitlines())
        assert header == list(doc)
        floats = {key: cell for key, cell in zip(header, row)
                  if isinstance(doc[key], float)}
        assert {"p", "level", "estimate", "ci_low", "ci_high"} <= set(floats)
        for key, cell in floats.items():
            assert float(cell).hex() == doc[key].hex(), key
    assert doc["delta"].hex() == "-0x0.0p+0"


def test_csv_report_quotes_a_path_with_a_comma(data, tmp_path):
    """A comma in an input path is quoted, so every CSV row has the
    header's width, and each cell reads back as the JSON report's value."""
    x = tmp_path / "first,sample.csv"
    x.write_bytes(open(data["x"], "rb").read())
    args = ("test", "--x", str(x), "--y", data["y"], "--k", "16", "--seed", "7",
            "--delta", "0.3")
    doc = json.loads(run_cli(*args).stdout)
    proc = run_cli(*args, "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    header, row = list(csv.reader(proc.stdout.splitlines()))
    assert header == list(doc) and len(row) == len(header)
    for key, cell in zip(header, row):
        value = doc[key]
        if isinstance(value, bool):
            assert cell == str(int(value)), key
        elif isinstance(value, (int, float)):
            assert float(cell) == value, key
        else:
            assert cell == value, key


def test_out_flag_writes_file(data, tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   "--k", "8", "--seed", "2", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stdout == ""
    doc = json.loads(out.read_text())
    assert doc["command"] == "estimate"


def test_test_at_fitted_value_gives_unit_pvalue(data):
    doc = estimate_json(data)
    proc = run_cli("test", "--x", data["x"], "--y", data["y"],
                   "--k", "16", "--seed", "7",
                   "--delta", format(doc["estimate"], ".17g"))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["statistic"] == 0.0
    assert out["p_value"] == 1.0
    assert out["reject"] is False


def test_test_far_null_rejects(data):
    proc = run_cli("test", "--x", data["x"], "--y", data["y"],
                   "--k", "16", "--seed", "7", "--delta", "1000000")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["p_value"] < 1e-10
    assert out["reject"] is True
    assert out["statistic"] < 0


def test_test_requires_delta(data):
    proc = run_cli("test", "--x", data["x"], "--y", data["y"],
                   "--k", "16")
    assert proc.returncode == 2
    assert "--delta" in proc.stderr


def test_input_problems_exit_2(data, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2,3\n4,nope,6\n")
    proc = run_cli("estimate", "--x", str(bad), "--y", data["y"], "--k", "8")
    assert proc.returncode == 2
    assert ":2:" in proc.stderr

    wide = tmp_path / "wide.csv"
    np.savetxt(wide, np.zeros((5, 7)), delimiter=",")
    proc = run_cli("estimate", "--x", data["x"], "--y", str(wide), "--k", "8")
    assert proc.returncode == 2
    assert "dimension mismatch" in proc.stderr

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   "--k", "8", "--p", "1.0")
    assert proc.returncode == 2

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"])
    assert proc.returncode == 2
    assert "--k" in proc.stderr or "SWINFER_K" in proc.stderr

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   "--k", "8", "--level", "1.5")
    assert proc.returncode == 2

    one = tmp_path / "one.csv"
    one.write_text("1,2,3\n")
    proc = run_cli("estimate", "--x", str(one), "--y", data["y"], "--k", "8")
    assert proc.returncode == 2
    assert "at least 2" in proc.stderr

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"], "--k", "8",
                   env_extra={"SWINFER_FORMAT": "xml"})
    assert proc.returncode == 2
    assert proc.stderr == "error: format must be csv or json, got 'xml'\n"

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"], "--k", "8",
                   "--p", "abc")
    assert proc.returncode == 2
    assert "--p: invalid float value: 'abc'" in proc.stderr


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_non_finite_delta_is_named(data, delta):
    proc = run_cli("test", "--x", data["x"], "--y", data["y"], "--k", "8",
                   f"--delta={delta}")
    assert proc.returncode == 2
    assert proc.stderr == f"error: null value delta must be finite, got {float(delta)}\n"


def test_degenerate_variance_exits_3(data, tmp_path):
    const = tmp_path / "const.csv"
    const.write_text("1,1\n1,1\n1,1\n1,1\n")
    proc = run_cli("test", "--x", str(const), "--y", str(const),
                   "--k", "8", "--delta", "0.5")
    assert proc.returncode == 3
    assert "variance" in proc.stderr


OVERFLOW_ERROR = ("error: the projected transport cost overflows float64; "
                  "rescale the data\n")
# one chunk in one thread, and three chunks in two pool threads
OVERFLOW_RUNS = (("--k", "16", "--threads", "1"), ("--k", "1100", "--threads", "2"))


def assert_overflow_exit(x, y):
    """``estimate`` and ``test`` exit 2 with the overflow error as the only
    line on stderr, no numpy RuntimeWarning before it, in each run."""
    for command in (("estimate",), ("test", "--delta", "0.5")):
        for run in OVERFLOW_RUNS:
            proc = run_cli(*command, "--x", str(x), "--y", str(y), *run)
            assert proc.returncode == 2, proc.stderr
            assert proc.stderr == OVERFLOW_ERROR


def test_overflowing_costs_exit_2(tmp_path):
    rng = np.random.default_rng(31)
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    np.savetxt(x, rng.normal(0.0, 1.0, (60, 3)) * 1e307, delimiter=",")
    np.savetxt(y, rng.normal(0.0, 1.0, (50, 3)) * 1e307, delimiter=",")
    assert_overflow_exit(x, y)


def test_overflowing_potentials_exit_2(tmp_path):
    x = tmp_path / "x.csv"
    x.write_text("0\n1e200\n3\n")
    assert_overflow_exit(x, x)


def test_overflowing_variances_exit_2(tmp_path):
    """Finite costs and potentials whose variances overflow."""
    x, y = tmp_path / "x.csv", tmp_path / "y.csv"
    x.write_text("0\n1e100\n3\n")
    y.write_text("0\n1\n2\n")
    assert_overflow_exit(x, y)


def test_bad_exponent_named_before_files_are_read(tmp_path):
    missing = str(tmp_path / "missing.csv")
    args = ("estimate", "--x", missing, "--y", missing, "--k", "8")
    for proc in (run_cli(*args, "--p", "inf"),
                 run_cli(*args, env_extra={"SWINFER_P": "inf"}),
                 run_cli(*args, "--p", "1.0")):
        assert proc.returncode == 2
        assert "order p" in proc.stderr
        assert "cannot open" not in proc.stderr


def test_budget_named_before_files_are_read(tmp_path):
    missing = str(tmp_path / "missing.csv")
    for args in (("estimate", "--k", "1"), ("test", "--k", "1", "--delta", "0"),
                 ("test", "--k", "0", "--delta", "0")):
        proc = run_cli(args[0], "--x", missing, "--y", missing, *args[1:])
        assert proc.returncode == 2
        assert proc.stderr == f"error: need at least 2 directions, got k={args[2]}\n"
    proc = run_cli("estimate", "--x", missing, "--y", missing,
                   env_extra={"SWINFER_K": "1"})
    assert proc.stderr == "error: need at least 2 directions, got k=1\n"


def test_bad_level_named_before_files_are_read(tmp_path):
    missing = str(tmp_path / "missing.csv")
    for level in ("1.5", "0", "nan"):
        proc = run_cli("test", "--x", missing, "--y", missing, "--k", "8",
                       "--delta", "0", "--level", level)
        assert proc.returncode == 2
        assert "level must lie in (0, 1)" in proc.stderr
        assert "cannot open" not in proc.stderr


def test_negative_float_values_reach_their_flag(data, tmp_path):
    """A value that argparse would take for an option reaches its flag."""
    proc = run_cli("test", "--x", data["x"], "--y", data["y"], "--k", "8",
                   "--delta", "-1e-3")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["delta"] == -0.001

    proc = run_cli("test", "--x", data["x"], "--y", data["y"], "--k", "8",
                   "--delta", "-inf")
    assert proc.returncode == 2
    assert proc.stderr == "error: null value delta must be finite, got -inf\n"

    missing = str(tmp_path / "missing.csv")
    proc = run_cli("test", "--x", missing, "--y", missing, "--k", "8",
                   "--delta", "0", "--level", "-1e-1")
    assert proc.returncode == 2
    assert "level must lie in (0, 1)" in proc.stderr


def test_threads_below_one_exit_2_before_files_are_read(tmp_path):
    missing = str(tmp_path / "missing.csv")
    for args in (("estimate", "--x", missing, "--y", missing, "--k", "8"),
                 ("test", "--x", missing, "--y", missing, "--k", "8",
                  "--delta", "0"),
                 ("simulate", "--plan", str(tmp_path / "missing.json"))):
        proc = run_cli(*args, "--threads", "0")
        assert proc.returncode == 2
        assert proc.stderr == "error: threads must be positive, got 0\n"


def test_env_fallback_and_flag_priority(data):
    env = {"SWINFER_K": "8", "SWINFER_SEED": "5"}
    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   env_extra=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["k"] == 8

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   "--k", "4", env_extra=env)
    doc = json.loads(proc.stdout)
    assert doc["k"] == 4
    assert doc["seed"] == 5

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   env_extra={"SWINFER_K": "not-a-number"})
    assert proc.returncode == 2
    assert "SWINFER_K" in proc.stderr


def test_other_exponents_run_without_a_flag(data):
    proc = run_cli("test", "--x", data["x"], "--y", data["y"],
                   "--k", "8", "--p", "3", "--delta", "0.3")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["p"] == 3.0
    assert math.isfinite(doc["statistic"]) and 0.0 <= doc["p_value"] <= 1.0
    assert doc["ci_low"] < doc["estimate"] < doc["ci_high"]

    proc = run_cli("estimate", "--x", data["x"], "--y", data["y"],
                   "--k", "8", "--p", "1.5")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["v_hat_pq_sq"] > 0.0 and doc["v_hat_qp_sq"] > 0.0
    assert doc["ci_low"] < doc["estimate"] < doc["ci_high"]
    assert math.isfinite(doc["ci_low"]) and math.isfinite(doc["ci_high"])
    assert "note" not in doc and "variance_mode" not in doc


def test_w_only_is_gone(data):
    proc = run_cli("test", "--x", data["x"], "--y", data["y"], "--k", "8",
                   "--p", "1.5", "--w-only", "--delta", "0.3")
    assert proc.returncode == 2
    assert "--w-only" in proc.stderr
    # the environment variable of the removed flag changes nothing
    args = ("estimate", "--x", data["x"], "--y", data["y"], "--k", "8")
    assert (run_cli(*args, env_extra={"SWINFER_W_ONLY": "1"}).stdout
            == run_cli(*args).stdout)


def test_test_report_equals_analyze(data):
    from swinfer import cli
    from swinfer._textio import read_matrix_csv
    from swinfer.geometry import SampleMatrix, sample_directions
    from swinfer.inference import analyze

    proc = run_cli("test", "--x", data["x"], "--y", data["y"], "--k", "16",
                   "--seed", "7", "--delta", "0.3", "--level", "0.9")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    X = SampleMatrix(read_matrix_csv(data["x"]))
    Y = SampleMatrix(read_matrix_csv(data["y"]))
    dirs = sample_directions(X.d, 16, 7, cli._DIRECTIONS_STREAM)
    rep = analyze(X, Y, dirs, delta=0.3, level=0.9)
    vc = rep.variance
    want = {"delta": rep.delta, "level": rep.level, "estimate": rep.estimate,
            "w_hat_sq": vc.w_hat_sq,
            "v_hat_pq_sq": vc.v_hat_pq_sq, "v_hat_qp_sq": vc.v_hat_qp_sq,
            "tau_hat": vc.tau_hat, "lambda_hat": vc.lambda_hat,
            "combined_variance": vc.combined,
            "effective_rate": rep.effective_rate, "statistic": rep.statistic,
            "p_value": rep.p_value, "reject": rep.reject, "ci_low": rep.ci_low,
            "ci_high": rep.ci_high}
    for key, value in want.items():
        assert doc[key] == value, key


def test_statistic_at_the_critical_value_rejects_nowhere(data, monkeypatch,
                                                         capsys):
    """|T| equal to z_0.975 is no rejection, in ``test`` and ``simulate``
    alike, though its p-value rounds to 0.05, below 1 - 0.95."""
    from scipy.special import ndtri

    import swinfer.inference
    from swinfer import cli
    from swinfer.sim import SimulationPlan, run_plan

    z = float(ndtri(0.975))
    monkeypatch.setattr(swinfer.inference, "test_statistic", lambda *args: z)
    assert cli.main(["test", "--x", data["x"], "--y", data["y"], "--k", "16",
                     "--delta", "0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["statistic"] == z and doc["p_value"] < 1.0 - 0.95
    assert doc["reject"] is False
    plan = SimulationPlan(d=2, n=25, m=20, k_values=(4,), h_values=(0.0,),
                          delta=1.0, replications=3, master_seed=99)
    cell = run_plan(plan).cells[0]
    assert cell.statistics.tolist() == [z] * 3
    assert cell.rejection_rate == 0.0


def test_estimate_constant_data_gives_point_interval(tmp_path):
    const = tmp_path / "const.csv"
    const.write_text("1,1\n1,1\n1,1\n1,1\n")
    proc = run_cli("estimate", "--x", str(const), "--y", str(const), "--k", "8")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["ci_low"] == doc["ci_high"] == doc["estimate"]


def write_plan(path, **overrides):
    plan = {"d": 2, "n": 30, "m": 25, "k_values": [4], "h_values": [0.0],
            "delta": 1.0, "replications": 3, "master_seed": 11}
    plan.update(overrides)
    path.write_text(json.dumps(plan))
    return path


def test_simulate_smoke(data, tmp_path):
    plan = write_plan(tmp_path / "plan.json")
    out = tmp_path / "sim"
    proc = run_cli("simulate", "--plan", str(plan), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("k h rejection_rate excluded\n")
    csv_text = (tmp_path / "sim.csv").read_text()
    assert csv_text.startswith("k,h,replication,statistic,reject\n")
    assert len(csv_text.strip().split("\n")) == 1 + 3
    doc = json.loads((tmp_path / "sim.json").read_text())
    assert doc["plan"]["replications"] == 3
    assert len(doc["cells"]) == 1


def test_simulate_error_is_the_same_for_every_worker_count(tmp_path):
    """A null value so far off that every statistic overflows to -inf: the
    serial loop and the worker pool both exit 2 with one stderr line."""
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"d": 2, "n": 25, "m": 20, "k": 4,
                                "h_values": [0.0], "delta": 1e308,
                                "replications": 3, "master_seed": 99}))
    for threads in ("1", "2"):
        proc = run_cli("simulate", "--plan", str(plan), "--threads", threads,
                       "--out", str(tmp_path / "s"))
        assert proc.returncode == 2
        assert proc.stderr == "error: statistic must be finite\n"
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("flag,value", [("--level", "0.5"), ("--format", "csv")])
def test_simulate_refuses_flags_it_would_ignore(tmp_path, flag, value):
    """The plan holds the level, and simulate always writes both formats."""
    plan = write_plan(tmp_path / "plan.json")
    proc = run_cli("simulate", "--plan", str(plan), "--out", str(tmp_path / "s"),
                   flag, value)
    assert proc.returncode == 2
    assert f"unrecognized arguments: {flag}" in proc.stderr
    assert not (tmp_path / "s.json").exists()


def test_simulate_help_names_its_four_flags():
    proc = run_cli("simulate", "--help")
    assert proc.returncode == 0, proc.stderr
    text = " ".join(proc.stdout.split())
    flags = {word.strip("[],") for word in text.split() if word.startswith(("--", "[--"))}
    assert flags == {"--help", "--plan", "--seed", "--threads", "--out"}
    assert "master_seed" in text
    assert "PREFIX.csv and PREFIX.json (default simulation)" in text
    assert "stdout" not in text


def test_simulate_seed_override(tmp_path):
    plan = write_plan(tmp_path / "plan.json")
    a, b = tmp_path / "a", tmp_path / "b"
    run_cli("simulate", "--plan", str(plan), "--out", str(a))
    run_cli("simulate", "--plan", str(plan), "--out", str(b), "--seed", "12")
    base = (tmp_path / "a.csv").read_text()
    assert (tmp_path / "b.csv").read_text() != base
    c = tmp_path / "c"
    run_cli("simulate", "--plan", str(plan), "--out", str(c), "--seed", "11")
    assert (tmp_path / "c.csv").read_text() == base


def test_simulate_scalar_k_alias(tmp_path):
    plan_doc = {"d": 2, "n": 20, "m": 20, "k": 4, "h_values": [0.0],
                "delta": 1.0, "replications": 2, "master_seed": 1}
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps(plan_doc))
    proc = run_cli("simulate", "--plan", str(plan),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("field,value", [
    ("reuse_directions", "false"), ("reuse_directions", 1),
    ("replications", 2.7), ("k_values", [4.9]), ("k_values", 4),
    ("d", True), ("n", "30"), ("m", 25.5), ("master_seed", 1.5),
    ("h_values", "05"), ("h_values", 0.5), ("h_values", [True]),
    ("h_values", ["0.5"]), ("delta", True), ("delta", "1"), ("p", "2"),
    ("p", False), ("p", float("nan")), ("delta", float("inf")),
    ("level", "0.95"), ("level", None), ("k_values", [4, 1])])
def test_simulate_rejects_coerced_plan_fields(tmp_path, field, value):
    plan = write_plan(tmp_path / "plan.json", **{field: value})
    proc = run_cli("simulate", "--plan", str(plan),
                   "--out", str(tmp_path / "s"))
    assert proc.returncode == 2, proc.stdout
    assert f"plan field {field!r}" in proc.stderr


def test_simulate_accepts_integral_floats_and_names_scalar_k(tmp_path):
    # integers are taken for the real fields too, and any p > 1 runs
    plan = write_plan(tmp_path / "plan.json", replications=3.0, k_values=[4.0],
                      h_values=[0, 0.5], p=3)
    proc = run_cli("simulate", "--plan", str(plan), "--out", str(tmp_path / "s"))
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "s.json").read_text())
    assert doc["plan"]["replications"] == 3
    assert doc["plan"]["k_values"] == [4]
    assert doc["plan"]["h_values"] == [0.0, 0.5]
    assert doc["plan"]["p"] == 3.0
    assert all(cell["excluded"] == 0 for cell in doc["cells"])

    scalar = {"d": 2, "n": 20, "m": 20, "k": 4.9, "h_values": [0.0],
              "delta": 1.0, "replications": 2, "master_seed": 1}
    plan.write_text(json.dumps(scalar))
    proc = run_cli("simulate", "--plan", str(plan), "--out", str(tmp_path / "t"))
    assert proc.returncode == 2
    assert "plan field 'k'" in proc.stderr


def test_simulate_rejects_bad_plans(tmp_path):
    missing = write_plan(tmp_path / "missing.json")
    doc = json.loads(missing.read_text())
    del doc["delta"]
    missing.write_text(json.dumps(doc))
    proc = run_cli("simulate", "--plan", str(missing),
                   "--out", str(tmp_path / "x"))
    assert proc.returncode == 2
    assert "delta" in proc.stderr

    unknown = write_plan(tmp_path / "unknown.json", typo_field=3)
    proc = run_cli("simulate", "--plan", str(unknown),
                   "--out", str(tmp_path / "y"))
    assert proc.returncode == 2
    assert "typo_field" in proc.stderr

    notjson = tmp_path / "notjson.json"
    notjson.write_text("{nope")
    proc = run_cli("simulate", "--plan", str(notjson),
                   "--out", str(tmp_path / "z"))
    assert proc.returncode == 2

    proc = run_cli("simulate", "--plan", str(tmp_path / "missing-plan.json"),
                   "--out", str(tmp_path / "w"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: cannot open ")

    listed = tmp_path / "list.json"
    listed.write_text("[1, 2]")
    proc = run_cli("simulate", "--plan", str(listed), "--out", str(tmp_path / "v"))
    assert proc.returncode == 2
    assert proc.stderr == f"error: {listed}: plan must be a JSON object\n"
