"""Summarize saved benchmark outputs into one trajectory point.

    python3 perfbench/summarize.py OUTPUT_FILE... > perfbench/results/BENCH_x.json

Each file holds the standard output of one ``perfbench/run.py`` run. Runs
are grouped by workload and by mode (end-to-end or traced); for every
metric the point records the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the spread (quartile
distance over the median) and the run count.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path


def load(path: Path) -> tuple[dict, dict]:
    lines = [line for line in path.read_text().splitlines() if line.strip()]
    results = [i for i, line in enumerate(lines) if line.startswith("{")]
    if not results:
        raise ValueError(f"{path}: no result line")
    last = results[-1]
    return json.loads(lines[last - 1].removeprefix("detail ")), json.loads(lines[last])


def summarize(paths: list[Path]) -> dict:
    groups: dict[tuple[str, str], list[tuple[dict, dict]]] = {}
    for path in paths:
        detail, result = load(path)
        mode = "traced" if "traced_ops" in detail else "end_to_end"
        groups.setdefault((detail["workload"], mode), []).append((detail, result))
    point: dict = {}
    for (workload, mode), runs in sorted(groups.items()):
        names = runs[0][1]["metrics"]
        entry = {"runs": len(runs), "seeds": [d["seed"] for d, _ in runs],
                 "all_correct": all(r["correct"] for _, r in runs),
                 "attempted": sum(r["attempted"] for _, r in runs),
                 "failed": sum(r["failed"] for _, r in runs), "metrics": {}}
        for name, first in names.items():
            values = [r["metrics"][name]["value"] for _, r in runs]
            median = statistics.median(values)
            stats = {"unit": first["unit"], "median": median}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                stats.update({"q1": q1, "q3": q3,
                              "spread": (q3 - q1) / median if median else 0.0})
            entry["metrics"][name] = stats
        if mode == "traced":
            ranks = [d["self_s_median_by_span"] for d, _ in runs]
            spans = sorted({name for rank in ranks for name in rank})
            entry["self_s_median_by_span"] = {
                name: statistics.median(rank.get(name, 0.0) for rank in ranks)
                for name in spans}
        point.setdefault(workload, {})[mode] = entry
    return point


def dump(obj, depth: int = 0) -> str:
    """JSON with one line per metric: an object that holds objects spreads
    over several lines, anything else stays on one."""
    if not isinstance(obj, dict) or not any(isinstance(v, dict) for v in obj.values()):
        return json.dumps(obj, sort_keys=True)
    pad = " " * (depth + 1)
    items = [f"{pad}{json.dumps(key)}: {dump(obj[key], depth + 1)}" for key in sorted(obj)]
    return "{\n" + ",\n".join(items) + "\n" + " " * depth + "}"


if __name__ == "__main__":
    print(dump(summarize([Path(p) for p in sys.argv[1:]])))
