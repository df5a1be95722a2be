"""Command-line front end: estimate, test and simulate.

Inputs are headerless CSV files of floats, one observation per row; the
coordinate dimension is inferred and cross-checked between files. Reports
are JSON or CSV with floats spelled by ``repr``, so emitted numbers re-parse
bit-exactly. Every flag has an environment fallback named SWINFER_<FLAG>; an
explicit flag wins over the environment.

Exit codes: 0 on success, 1 when a replication worker of ``simulate``
dies, 2 on any input problem, 3 when the variance estimate degenerates to
zero and no statistic exists.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from concurrent.futures import BrokenExecutor

from . import inference
from ._textio import (InputError, csv_text, dump_json, format_float,
                      read_matrix_csv, write_text)
# _direction_pass only so perfbench's tracer can wrap it; the pass runs in inference
from .estimators import _check_budget, _check_threads, _direction_pass  # noqa: F401
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
_EXIT_FAILED = 1
_EXIT_INPUT = 2
_EXIT_DEGENERATE = 3


def _resolve(text, name: str, cast, default=None, required: bool = False):
    """The flag's text, else SWINFER_<NAME>'s, cast by ``cast``; else the default."""
    flag, env = "--" + name.lower(), ENV_PREFIX + name
    source, raw = (env, os.environ.get(env)) if text is None else (flag, text)
    if raw is None:
        if required:
            raise InputError(f"missing {flag} (or {env})")
        return default
    try:
        return cast(raw)
    except ValueError as exc:
        raise InputError(f"bad {source}={raw!r}: {exc}") from exc


class _Parser(argparse.ArgumentParser):
    """argparse's own errors (a flag without its value, an unknown flag, a
    missing or unknown subcommand) as InputError, which ``main`` prints on
    one line; the subparsers are built from this class too."""

    def error(self, message):
        raise InputError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="swinfer",
        description="Sliced transport-cost estimation and two-sample inference.")
    sub = parser.add_subparsers(dest="command", required=True)

    ep = sub.add_parser("estimate", help="point estimate with variance")
    tp = sub.add_parser("test", help="two-sided test of a null value")
    for p in (ep, tp):
        p.add_argument("--x", help="CSV file with the first sample")
        p.add_argument("--y", help="CSV file with the second sample")
        p.add_argument("--k", help="number of random directions")
        p.add_argument("--p", help="cost exponent, must exceed 1")
        p.add_argument("--level", help="confidence level (default 0.95)")
        p.add_argument("--seed", help="seed for all randomness")
        p.add_argument("--threads", help="worker bound (default 1)")
        p.add_argument("--format", metavar="{csv,json}", dest="fmt",
                       help="report format (default json)")
        p.add_argument("--out", help="output path (default: print to stdout)")
    tp.add_argument("--delta", help="null value of the sliced cost")
    sp = sub.add_parser("simulate", help="run a replication plan")
    sp.add_argument("--plan", help="JSON plan file")
    sp.add_argument("--seed", help="replaces the plan's master_seed")
    sp.add_argument("--threads",
                    help="worker processes for the replications (default 1)")
    sp.add_argument("--out", metavar="PREFIX",
                    help="write PREFIX.csv and PREFIX.json (default simulation)")
    return parser


def _emit_report(doc: dict, fmt: str, out: str | None) -> None:
    text = (dump_json(doc) + "\n" if fmt == "json"
            else csv_text(doc.keys(), [doc.values()]))
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def cmd_analyze(args) -> int:
    """``estimate`` and ``test``: every flag is checked before a file is
    read, then one direction pass gives one report. ``test`` adds delta
    after the inputs and its decision before the interval."""
    p = _resolve(args.p, "P", float, default=2.0)
    k = _resolve(args.k, "K", int, required=True)
    level = _resolve(args.level, "LEVEL", float, default=0.95)
    seed = _resolve(args.seed, "SEED", int, default=0)
    threads = _resolve(args.threads, "THREADS", int, default=1)
    fmt = _resolve(args.fmt, "FORMAT", str, default="json")
    out = _resolve(args.out, "OUT", str, default=None)
    if fmt not in ("csv", "json"):
        raise InputError(f"format must be csv or json, got {fmt!r}")
    _check_budget(k)
    inference._critical_value(level)  # refuses a level outside (0, 1)
    _check_threads(threads)
    p = _check_p(p)
    test = args.command == "test"
    if test:
        delta = _resolve(args.delta, "DELTA", float, required=True)
        inference._check_delta(delta)
    x_path = _resolve(args.x, "X", str, required=True)
    y_path = _resolve(args.y, "Y", str, required=True)
    X, Y = read_matrix_csv(x_path), read_matrix_csv(y_path)
    if X.shape[1] != Y.shape[1]:
        raise InputError(f"dimension mismatch: {x_path} has d={X.shape[1]}, "
                         f"{y_path} has d={Y.shape[1]}")
    X, Y = SampleMatrix(X), SampleMatrix(Y)  # each refuses fewer than 2 rows
    dirs = sample_directions(X.d, k, seed, _DIRECTIONS_STREAM)
    doc = {"command": args.command, "x": x_path, "y": y_path, "n": X.n,
           "m": Y.n, "d": X.d, "k": k, "p": p, "seed": seed, "level": level}
    if test:
        # called through the module, where perfbench's tracer wraps ``analyze``
        rep = inference.analyze(X, Y, dirs, p=p, delta=delta, level=level,
                                threads=threads)
        estimate, vc, interval = rep.estimate, rep.variance, (rep.ci_low, rep.ci_high)
        doc["delta"] = rep.delta
        decision = {"statistic": rep.statistic, "p_value": rep.p_value,
                    "reject": rep.reject}
    else:
        est, vc = _estimate_and_variance(X, Y, dirs, p, threads)
        estimate, decision = est.sw_pp, {}
        interval = confidence_interval(estimate, X.n, Y.n, k, vc.combined, level)
    doc.update(estimate=estimate, w_hat_sq=vc.w_hat_sq, v_hat_pq_sq=vc.v_hat_pq_sq,
               v_hat_qp_sq=vc.v_hat_qp_sq, tau_hat=vc.tau_hat,
               lambda_hat=vc.lambda_hat, combined_variance=vc.combined,
               effective_rate=effective_rate(X.n, Y.n, k), **decision,
               ci_low=interval[0], ci_high=interval[1])
    _emit_report(doc, fmt, out)
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
    _check_threads(threads)
    result = run_plan(_load_plan(plan_path, seed), threads=threads)
    csv_path, json_path = out + ".csv", out + ".json"
    write_text(csv_path, result_csv_text(result))
    write_text(json_path, result_json_text(result))
    sys.stdout.write("k h rejection_rate excluded\n")
    for cell in result.cells:
        sys.stdout.write(f"{cell.k} {format_float(cell.h)} "
                         f"{cell.rejection_rate:.4f} {cell.excluded}\n")
    sys.stdout.write(f"wrote {csv_path} and {json_path}\n")
    return _EXIT_OK


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse takes a value such as -1e-3 or -inf for an option, so each
    # value that float accepts is joined to its float flag, as --delta=-1e-3
    for i in range(len(argv) - 1, 0, -1):
        if argv[i - 1] in ("--p", "--level", "--delta"):
            try:
                float(argv[i])
            except ValueError:
                continue
            argv[i - 1:i + 1] = [f"{argv[i - 1]}={argv[i]}"]
    handlers = {"estimate": cmd_analyze, "test": cmd_analyze,
                "simulate": cmd_simulate}
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except DegenerateVarianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_DEGENERATE
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_INPUT
    except BrokenExecutor as exc:  # a replication worker died
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
