"""Self-test of the benchmark at tiny shapes.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its format, that every workload in both
modes prints every declared metric with its declared unit and passes its
own output checks, that the traced self times of each operation add up to
its wall time, that each output check rejects a result whose estimate is
scaled by 1 + 1e-6 (a non-finite statistic for the simulation), and that
the benchmark fails without printing a result when the sources are absent.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}$")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(message: str) -> None:
    print(f"selftest: FAIL: {message}")
    sys.exit(1)


def check_spec(spec: dict) -> None:
    if set(spec) != {"command", "paths", "run_seconds", "workloads",
                     "end_to_end", "per_layer"}:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    names = [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names:
        if not NAME.match(name):
            fail(f"bad name {name!r}")
    if len(set(names)) != len(names):
        fail("a name is used twice")
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            fail(f"workload entry {w['name']}")
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            fail(f"end-to-end entry {m['name']}")
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not UNIT.match(m["unit"]) or m["better"] not in ("higher", "lower"):
            fail(f"metric entry {m['name']}")
    if not any(m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
               for m in spec["end_to_end"]):
        fail("no setup_s metric")
    if not 1 <= spec["run_seconds"] <= 60 or not 2 <= len(spec["workloads"]) <= 8:
        fail("run_seconds or workload count out of range")


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "2", "--trace", str(trace),
                           "--tiny"], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def perturbed(output):
    """The output with its estimate scaled by 1 + 1e-6 (or, for a
    simulation, one statistic made non-finite); the self-test requires the
    check to reject it."""
    if not isinstance(output, tuple):
        return dataclasses.replace(output, estimate=output.estimate * (1.0 + 1e-6))
    code, out = output
    if out.suffix == ".json":
        doc = json.loads(out.read_text())
        doc["estimate"] *= 1.0 + 1e-6
        bad = out.with_name("perturbed.json")
        bad.write_text(json.dumps(doc))
        return code, bad
    bad = out.with_name("perturbed")
    lines = out.with_suffix(".csv").read_text().splitlines()
    row = lines[1].split(",")
    row[3] = "nan"
    lines[1] = ",".join(row)
    bad.with_suffix(".csv").write_text("\n".join(lines) + "\n")
    bad.with_suffix(".json").write_bytes(out.with_suffix(".json").read_bytes())
    return code, bad


def check_run_output(spec: dict, workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(lines[-2].removeprefix("detail "))
    if set(result) != RESULT_KEYS:
        fail(f"{workload} result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace} not correct: {detail}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = result["metrics"]
    if set(got) != set(want):
        fail(f"{workload} trace={trace} metrics differ: {set(got) ^ set(want)}")
    for name, entry in got.items():
        value = entry["value"]
        if entry["unit"] != want[name] or isinstance(value, bool) \
                or not isinstance(value, (int, float)) or not math.isfinite(value):
            fail(f"{workload} metric {name} = {entry}")
    if trace:
        if detail["absent"]:
            fail(f"{workload} trace lost wrap points {detail['absent']}")
        if detail["self_time_closure_max_rel_error"] > 1e-9:
            fail(f"{workload} self times do not add up to the op wall time")


def check_perturbations() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    base = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(base, ignore_errors=True)
    try:
        for name, cls in workloads.WORKLOADS.items():
            workdir = base / name
            workdir.mkdir(parents=True)
            cfg = cls.generate(5, workdir, True)
            cfg["workdir"] = str(workdir)
            wl = cls(cfg)
            wl.setup()
            output = wl.op(0)
            error = wl.check(0, output)
            if error is not None:
                fail(f"{name} rejects a correct output: {error}")
            if wl.check(0, perturbed(output)) is None:
                fail(f"{name} accepts a perturbed output")
            if wl.determinism(output) is not None:
                fail(f"{name} is not thread-deterministic")
    finally:
        shutil.rmtree(base, ignore_errors=True)


def check_without_sources() -> None:
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, "analyze-mid", 0)
        if proc.returncode == 0 or proc.stdout.strip():
            fail("the benchmark ran without the program's sources")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_without_sources()
    check_perturbations()
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            check_run_output(spec, workload, trace)
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
