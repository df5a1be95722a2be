"""swinfer benchmark: closed-loop workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload analyze-mid --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. The program is imported from ``src/``
as it stands; nothing is installed. Each run draws its inputs from
``--seed`` in this process, then starts the measured worker process, which
performs one operation at a time (a single caller; the next operation
starts when the previous one returns) for ``--seconds`` seconds and checks
every output.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; two extra worker processes repeat the set-up only, so that
``setup_s`` is a median of three. With ``--trace 1`` it holds the
per-layer metrics of a run whose first half is untraced and second half
traced. The line before it is a detail record (operation count, the tail
percentile, failures with their base, the traced self-time ranking).
``--tiny`` shrinks every shape; the self-test uses it.

Work files go to ``.bench_work/`` and are removed at exit; the spans of a
traced run are kept in ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("analyze-mid", "simulate-null", "cli-csv")
SETUP_PROBES = 2
# a tail percentile needs this many operations beyond it
TAIL_BEYOND = 10
# every run ends within this many seconds, whatever its workers do
RUN_LIMIT_S = 170.0
# the program's --threads is the only parallelism measured: with the BLAS
# pool left at its default, threads = 1 is not single-threaded and two
# replication workers oversubscribe a 2-CPU machine
SINGLE_THREADED_BLAS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                        "MKL_NUM_THREADS": "1"}


def tail(durations: list[float]) -> tuple[float, float]:
    """Value and nearest-rank percentile of the highest percentile with at
    least ``TAIL_BEYOND`` operations beyond it."""
    ordered = sorted(durations)
    rank = len(ordered) - TAIL_BEYOND
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def run_worker(config: Path, mode: str, workdir: Path, deadline: float) -> dict:
    result = workdir / f"result-{mode}.json"
    result.unlink(missing_ok=True)
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(config),
                             mode, str(result)],
                            cwd=ROOT, stdout=subprocess.DEVNULL,
                            env={**os.environ, **SINGLE_THREADED_BLAS})
    try:
        code = proc.wait(timeout=max(deadline - time.monotonic(), 0.0))
    except BaseException as exc:
        proc.kill()
        proc.wait()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{mode} worker passed the {RUN_LIMIT_S:.0f} s limit") from exc
        raise
    if code != 0:
        raise RuntimeError(f"{mode} worker exited with code {code}")
    return json.loads(result.read_text())


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, dict]:
    durations = main["durations"]
    tail_s, percentile = tail(durations)
    metrics = {
        "op_p50_s": {"value": statistics.median(durations), "unit": "s"},
        "op_tail_s": {"value": tail_s, "unit": "s"},
        "work_per_s": {"value": main["work"] / main["window_s"], "unit": "work/s"},
        "peak_rss_mib": {"value": main["peak_rss_kib"] / 1024.0, "unit": "MiB"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
    }
    detail = {"ops_timed": len(durations), "op_tail_percentile": percentile,
              "op_tail_samples": len(durations), "work_unit": main["work_unit"],
              "window_s": main["window_s"], "setup_samples_s": setups}
    return metrics, detail


def per_layer(main: dict) -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {entry["name"]: {"value": main["layers"][entry["name"]],
                               "unit": entry["unit"]}
               for entry in spec["per_layer"]}
    detail = dict(main["trace_detail"])
    detail["ops_untraced"] = len(main["durations"])
    detail["ops_traced"] = len(main["traced_durations"])
    return metrics, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny shapes, for the self-test")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not (SRC / "swinfer" / "__init__.py").is_file():
        print(f"error: no swinfer sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        cfg = workloads.WORKLOADS[args.workload].generate(args.seed, workdir, args.tiny)
        spans = ROOT / ".bench_out" / f"spans-{args.workload}.json"
        spans.parent.mkdir(exist_ok=True)
        cfg.update({"workload": args.workload, "seed": args.seed,
                    "seconds": args.seconds, "workdir": str(workdir),
                    "src": str(SRC), "spans": str(spans),
                    "min_ops": TAIL_BEYOND + 1})
        config = workdir / "config.json"
        config.write_text(json.dumps(cfg))
        if args.trace:
            main_result = run_worker(config, "trace", workdir, deadline)
            metrics, detail = per_layer(main_result)
        else:
            setups = [run_worker(config, "probe", workdir, deadline)["setup_s"]
                      for _ in range(SETUP_PROBES)]
            main_result = run_worker(config, "measure", workdir, deadline)
            metrics, detail = end_to_end(main_result, setups + [main_result["setup_s"]])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = main_result["attempted"], main_result["failed"]
    detail.update({"workload": args.workload, "seed": args.seed,
                   "failed_ratio": failed / attempted,
                   "failed_ratio_base": f"{failed} of {attempted} operations",
                   "errors": main_result["errors"],
                   "determinism": main_result["determinism"],
                   "run_check": main_result["run_check"] or "ok"})
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and main_result["run_check"] is None,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
