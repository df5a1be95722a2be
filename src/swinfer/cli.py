"""Command-line front end: estimate, test and simulate.

Inputs are headerless CSV files of floats, one observation per row; the
coordinate dimension is inferred and cross-checked between files. Reports
are JSON or CSV with floats at 17 significant digits, so emitted numbers
re-parse bit-exactly. Every flag has an environment fallback named
SWINFER_<FLAG>; an explicit flag wins over the environment.

Exit codes: 0 on success, 2 on any input problem, 3 when the variance
estimate degenerates to zero and no statistic exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import inference
from ._textio import InputError, dump_json, format_float, read_matrix_csv, write_text
# imported only so perfbench's tracer can wrap this name; the pass runs in inference
from .estimators import _direction_pass  # noqa: F401
from .geometry import SampleMatrix, sample_directions
from .inference import (DegenerateVarianceError, _estimate_and_variance,
                        confidence_interval, effective_rate)
from .ot1d import _check_p
from .sim import SimulationPlan, result_csv_text, result_json_text, run_plan

ENV_PREFIX = "SWINFER_"

# substream for direction draws in estimate/test; ids below 16 are reserved
# for direct CLI use, the replication harness starts at 16
_DIRECTIONS_STREAM = 1

_EXIT_OK = 0
_EXIT_INPUT = 2
_EXIT_DEGENERATE = 3


def _env(name: str) -> str | None:
    return os.environ.get(ENV_PREFIX + name)


def _resolve(flag_value, name: str, cast, default=None, required: bool = False):
    """Flag value if given, else environment, else default."""
    if flag_value is not None:
        return flag_value
    raw = _env(name)
    if raw is not None:
        try:
            return cast(raw)
        except ValueError as exc:
            raise InputError(f"bad {ENV_PREFIX}{name}={raw!r}: {exc}") from exc
    if required:
        raise InputError(f"missing --{name.lower().replace('_', '-')} "
                         f"(or {ENV_PREFIX}{name})")
    return default


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swinfer",
        description="Sliced transport-cost estimation and two-sample inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_data: bool):
        if with_data:
            p.add_argument("--x", help="CSV file with the first sample")
            p.add_argument("--y", help="CSV file with the second sample")
            p.add_argument("--k", type=int, help="number of random directions")
            p.add_argument("--p", type=float, help="cost exponent, must exceed 1")
        p.add_argument("--level", type=float, help="confidence level (default 0.95)")
        p.add_argument("--seed", type=int, help="seed for all randomness")
        p.add_argument("--threads", type=int, help="worker bound (default 1)")
        p.add_argument("--format", choices=("csv", "json"), dest="fmt",
                       help="report format (default json)")
        p.add_argument("--out", help="output path (default: print to stdout)")

    add_common(sub.add_parser("estimate", help="point estimate with variance"),
               with_data=True)
    tp = sub.add_parser("test", help="two-sided test of a null value")
    add_common(tp, with_data=True)
    tp.add_argument("--delta", type=float, help="null value of the sliced cost")
    sp = sub.add_parser("simulate", help="run a replication plan")
    sp.add_argument("--plan", help="JSON plan file")
    add_common(sp, with_data=False)
    return parser


def _load_samples(args, k, p, seed, level) -> tuple[SampleMatrix, SampleMatrix, dict]:
    """Both samples and the report head that describes the inputs."""
    x_path = _resolve(args.x, "X", str, required=True)
    y_path = _resolve(args.y, "Y", str, required=True)
    X = read_matrix_csv(x_path)
    Y = read_matrix_csv(y_path)
    if X.shape[0] < 2 or Y.shape[0] < 2:
        raise InputError("each sample needs at least 2 rows")
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"dimension mismatch: {x_path} has d={X.shape[1]}, "
                         f"{y_path} has d={Y.shape[1]}")
    head = {"x": x_path, "y": y_path, "n": X.shape[0], "m": Y.shape[0],
            "d": X.shape[1], "k": k, "p": p, "seed": seed, "level": level}
    return SampleMatrix(X), SampleMatrix(Y), head


def _common_values(args):
    p = _resolve(args.p, "P", float, default=2.0)
    k = _resolve(args.k, "K", int, required=True)
    level = _resolve(args.level, "LEVEL", float, default=0.95)
    seed = _resolve(args.seed, "SEED", int, default=0)
    threads = _resolve(args.threads, "THREADS", int, default=1)
    fmt = _resolve(args.fmt, "FORMAT", str, default="json")
    out = _resolve(args.out, "OUT", str, default=None)
    if fmt not in ("csv", "json"):
        raise InputError(f"format must be csv or json, got {fmt!r}")
    if k < 2:
        raise InputError(f"need at least 2 directions, got k={k}")
    inference._critical_value(level)  # refuses a level outside (0, 1)
    if threads < 1:
        raise InputError(f"threads must be positive, got {threads}")
    return _check_p(p), k, level, seed, threads, fmt, out


def _emit_report(doc: dict, fmt: str, out: str | None) -> None:
    if fmt == "json":
        text = dump_json(doc) + "\n"
    else:
        keys = list(doc.keys())
        cells = []
        for key in keys:
            val = doc[key]
            if isinstance(val, bool):
                cells.append(str(int(val)))
            elif isinstance(val, float):
                cells.append(format_float(val))
            else:
                cells.append(str(val))
        text = ",".join(keys) + "\n" + ",".join(cells) + "\n"
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _report(command: str, head: dict, estimate: float, vc, interval,
            rep=None) -> dict:
    """The estimate report, or with an InferenceReport ``rep`` the test report.

    The test report adds delta before the estimate and the statistic before
    the interval.
    """
    doc = {"command": command, **head}
    if rep is not None:
        doc["delta"] = rep.delta
    doc.update({
        "estimate": estimate,
        "w_hat_sq": vc.w_hat_sq,
        "v_hat_pq_sq": vc.v_hat_pq_sq,
        "v_hat_qp_sq": vc.v_hat_qp_sq,
        "tau_hat": vc.tau_hat,
        "lambda_hat": vc.lambda_hat,
        "combined_variance": vc.combined,
        "effective_rate": effective_rate(head["n"], head["m"], head["k"]),
    })
    if rep is not None:
        doc.update({"statistic": rep.statistic, "p_value": rep.p_value,
                    "reject": rep.reject})
    doc.update({"ci_low": interval[0], "ci_high": interval[1]})
    return doc


def cmd_estimate(args) -> int:
    p, k, level, seed, threads, fmt, out = _common_values(args)
    X, Y, head = _load_samples(args, k, p, seed, level)
    dirs = sample_directions(X.d, k, seed, _DIRECTIONS_STREAM)
    est, vc = _estimate_and_variance(X, Y, dirs, p, threads)
    interval = confidence_interval(est.sw_pp, est.n, est.m, k, vc.combined, level)
    _emit_report(_report("estimate", head, est.sw_pp, vc, interval), fmt, out)
    return _EXIT_OK


def cmd_test(args) -> int:
    p, k, level, seed, threads, fmt, out = _common_values(args)
    delta = _resolve(args.delta, "DELTA", float, required=True)
    X, Y, head = _load_samples(args, k, p, seed, level)
    dirs = sample_directions(X.d, k, seed, _DIRECTIONS_STREAM)
    # called through the module, where perfbench's tracer wraps ``analyze``
    rep = inference.analyze(X, Y, dirs, p=p, delta=delta, level=level,
                            threads=threads)
    _emit_report(_report("test", head, rep.estimate, rep.variance,
                         (rep.ci_low, rep.ci_high), rep), fmt, out)
    return _EXIT_OK


def _load_plan(path: str, seed_override: int | None) -> SimulationPlan:
    """The plan in a JSON file; ``SimulationPlan`` checks each field's value."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot open {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise InputError(f"{path}: plan must be a JSON object")
    raw = dict(raw)
    k_alias = "k" in raw and "k_values" not in raw
    if k_alias:
        raw["k_values"] = [raw.pop("k")]
    fields = dataclasses.fields(SimulationPlan)
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise InputError(f"{path}: plan lacks fields {missing}")
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise InputError(f"{path}: unknown plan fields {unknown}")
    if seed_override is not None:
        raw["master_seed"] = seed_override
    try:
        return SimulationPlan(**raw)
    except ValueError as exc:
        message = str(exc)
        if k_alias:
            message = message.replace("'k_values'", "'k'")
        raise InputError(f"{path}: invalid plan: {message}") from exc


def cmd_simulate(args) -> int:
    plan_path = _resolve(args.plan, "PLAN", str, required=True)
    seed = _resolve(args.seed, "SEED", int, default=None)
    threads = _resolve(args.threads, "THREADS", int, default=1)
    out = _resolve(args.out, "OUT", str, default="simulation")
    if threads < 1:
        raise InputError(f"threads must be positive, got {threads}")
    plan = _load_plan(plan_path, seed)
    try:
        result = run_plan(plan, threads=threads)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    csv_path, json_path = out + ".csv", out + ".json"
    write_text(csv_path, result_csv_text(result))
    write_text(json_path, result_json_text(result))
    sys.stdout.write("k h rejection_rate excluded\n")
    for cell in result.cells:
        rate = "nan" if np.isnan(cell.rejection_rate) \
            else format(cell.rejection_rate, ".4f")
        sys.stdout.write(f"{cell.k} {format_float(cell.h)} {rate} "
                         f"{cell.excluded}\n")
    sys.stdout.write(f"wrote {csv_path} and {json_path}\n")
    return _EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"estimate": cmd_estimate, "test": cmd_test,
                "simulate": cmd_simulate}
    try:
        return handlers[args.command](args)
    except DegenerateVarianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
