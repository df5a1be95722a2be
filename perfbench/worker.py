"""Measured process of one benchmark run.

    python3 perfbench/worker.py CONFIG MODE RESULT

MODE is ``probe`` (import plus the first operation only, for ``setup_s``),
``measure`` (closed loop, untraced) or ``trace`` (an untraced half then a
traced half of the same window). The result is written as JSON to RESULT.
Input generation happens in the parent, so this process's peak resident
memory covers the program and its operations only.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path
from statistics import median

MIN_OPS = 3
MAX_ERRORS_SHOWN = 10


def timed_loop(wl, first_index: int, seconds: float, tracer=None,
               min_ops: int = MIN_OPS):
    """Run operations one after another until ``seconds`` have passed."""
    durations, outputs = [], []
    start = time.perf_counter()
    i = first_index
    while time.perf_counter() - start < seconds or len(durations) < min_ops:
        span = None
        if tracer is not None:
            tracer.op_id = i
            span = tracer.open("op")
        t0 = time.perf_counter()
        try:
            output = wl.op(i)
        except Exception:
            traceback.print_exc()
            output = None
        durations.append(time.perf_counter() - t0)
        if span is not None:
            tracer.close(span)
        outputs.append((i, output))
        i += 1
    return durations, outputs, time.perf_counter() - start


def main(argv: list[str]) -> int:
    config_path, mode, result_path = argv
    cfg = json.loads(Path(config_path).read_text())
    sys.path.insert(0, cfg["src"])
    t0 = time.perf_counter()
    import swinfer
    import swinfer.cli
    import_s = time.perf_counter() - t0
    if not Path(swinfer.__file__).resolve().is_relative_to(Path(cfg["src"]).resolve()):
        raise RuntimeError(f"imported swinfer from {swinfer.__file__}")
    import workloads

    wl = workloads.WORKLOADS[cfg["workload"]](cfg)
    t1 = time.perf_counter()
    wl.setup()
    first = wl.op(0)
    setup_s = import_s + time.perf_counter() - t1
    result = {"setup_s": setup_s}
    if mode == "probe":
        Path(result_path).write_text(json.dumps(result))
        return 0

    seconds = cfg["seconds"]
    tracer = None
    if mode == "trace":
        import tracing
        durations, outputs, window = timed_loop(wl, 1, seconds / 2)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.measure_alloc = True
            _, alloc_outputs, _ = timed_loop(wl, len(outputs) + 1, 0, tracer, 1)
            tracer.measure_alloc = False
            traced, traced_outputs, _ = timed_loop(
                wl, len(outputs) + 2, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        outputs += alloc_outputs + traced_outputs
    else:
        durations, outputs, window = timed_loop(wl, 1, seconds,
                                                min_ops=cfg["min_ops"])
    peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors = {}
    passed = []
    for i, output in [(0, first)] + outputs:
        try:
            error = "raised" if output is None else wl.check(i, output)
        except Exception as exc:
            error = f"check raised {exc!r}"
        if error is None:
            passed.append(i)
        else:
            errors[i] = error
    try:
        mismatch = wl.determinism(first)
    except Exception as exc:
        mismatch = f"determinism check raised {exc!r}"
    run_error = wl.check_run(passed) if passed else "no operation passed"
    timed_passed = sum(1 for i, _ in outputs[:len(durations)] if i not in errors)

    result.update({
        "durations": durations,
        "window_s": window,
        "work": timed_passed * wl.work(),
        "work_unit": wl.work_unit,
        "peak_rss_kib": peak_rss_kib,
        "attempted": len(outputs) + 2,
        "failed": len(errors) + (mismatch is not None),
        "errors": {str(i): e for i, e in list(errors.items())[:MAX_ERRORS_SHOWN]},
        "determinism": mismatch or "bit-identical",
        "run_check": run_error,
    })
    if tracer is not None:
        alloc_op = alloc_outputs[0][0]
        layers, detail = tracing.layer_metrics(
            [s for s in tracer.spans if s["op"] != alloc_op],
            [s for s in tracer.spans if s["op"] == alloc_op])
        layers["trace_overhead_ratio"] = median(traced) / median(durations)
        detail["absent"] = tracer.absent
        result.update({"layers": layers, "trace_detail": detail,
                       "traced_durations": traced})
        Path(cfg["spans"]).write_text(json.dumps(tracer.spans))
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
