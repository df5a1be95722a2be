import json
import multiprocessing
import os
import sys
import threading
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest
from scipy.special import ndtri

import swinfer.sim as sim
from swinfer import cli
from swinfer.inference import DegenerateVarianceError
from swinfer.sim import (SimulationPlan, _replication_streams, result_csv_text,
                         result_json_text, run_plan)


def tiny_plan(**overrides):
    base = dict(d=2, n=25, m=20, k_values=(4,), h_values=(0.0,),
                delta=1.0, replications=3, master_seed=99)
    base.update(overrides)
    return SimulationPlan(**base)


def test_plan_validation():
    with pytest.raises(ValueError):
        tiny_plan(replications=0)
    with pytest.raises(ValueError):
        tiny_plan(level=1.0)
    with pytest.raises(ValueError):
        tiny_plan(k_values=())
    with pytest.raises(ValueError):
        tiny_plan(k_values=(1,))
    with pytest.raises(ValueError):
        tiny_plan(h_values=())
    with pytest.raises(ValueError):
        tiny_plan(n=1)
    with pytest.raises(ValueError):
        tiny_plan(d=0)
    for p in (1.0, 0.5, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="order p"):
            tiny_plan(p=p)


@pytest.mark.parametrize("field,value", [
    ("k_values", (4.9,)), ("h_values", "05"), ("reuse_directions", "false"),
    ("master_seed", 1.5)])
def test_plan_refuses_coerced_fields(field, value):
    # coerced, these would run k = 4, the cells h = 0 and h = 5, reuse on
    # and a seed of 1.5
    with pytest.raises(ValueError, match=f"plan field {field!r}"):
        tiny_plan(**{field: value})


def test_plan_converts_integral_values():
    plan = tiny_plan(k_values=[4.0], h_values=[0, 1], replications=3.0,
                     master_seed=np.int64(7))
    assert plan.k_values == (4,) and type(plan.k_values[0]) is int
    assert plan.h_values == (0.0, 1.0) and type(plan.h_values[0]) is float
    assert type(plan.replications) is int and type(plan.master_seed) is int


def test_plan_cell_ordering():
    plan = tiny_plan(k_values=(2, 8), h_values=(0.0, 0.5))
    assert plan.cells == [(2, 0.0), (2, 0.5), (8, 0.0), (8, 0.5)]


def test_stream_layout_has_no_collisions():
    plan = tiny_plan(k_values=(2, 4), h_values=(0.0, 0.3), replications=5)
    seen = []
    for ci in range(len(plan.cells)):
        for ri in range(plan.replications):
            sx, sy, sd = _replication_streams(plan, ci, ri)
            seen.extend([sx, sy, sd])
    assert len(seen) == len(set(seen))
    assert min(seen) >= 16


def test_stream_layout_reuse_shares_directions_within_cell():
    plan = tiny_plan(k_values=(2, 4), replications=4, reuse_directions=True)
    per_cell = []
    all_xy = []
    for ci in range(len(plan.cells)):
        dirs_ids = set()
        for ri in range(plan.replications):
            sx, sy, sd = _replication_streams(plan, ci, ri)
            dirs_ids.add(sd)
            all_xy.extend([sx, sy])
        per_cell.append(dirs_ids)
    assert all(len(ids) == 1 for ids in per_cell)
    assert per_cell[0] != per_cell[1]
    assert len(all_xy) == len(set(all_xy))
    assert not (per_cell[0] | per_cell[1]) & set(all_xy)


def test_single_replication_cell():
    result = run_plan(tiny_plan(replications=1))
    cell = result.cells[0]
    assert cell.statistics.shape == (1,)
    assert cell.rejection_rate in (0.0, 1.0)
    assert cell.excluded == 0
    assert int(cell.hist_counts.sum()) == 1


def test_rejection_rate_recomputable_from_statistics():
    plan = tiny_plan(replications=40, level=0.9)
    result = run_plan(plan)
    q = ndtri(0.5 + 0.5 * plan.level)
    for cell in result.cells:
        assert cell.rejection_rate == np.mean(np.abs(cell.statistics) > q)
        assert int(cell.hist_counts.sum()) == cell.statistics.size


def test_thread_count_does_not_change_output_text():
    plan = tiny_plan(k_values=(3, 6), h_values=(0.0, 0.4), replications=6)
    serial = run_plan(plan, threads=1)
    pooled = run_plan(plan, threads=4)
    assert result_csv_text(serial) == result_csv_text(pooled)
    assert result_json_text(serial) == result_json_text(pooled)


def test_rerun_is_reproducible():
    plan = tiny_plan(replications=5)
    assert result_csv_text(run_plan(plan)) == result_csv_text(run_plan(plan))


def test_fresh_and_reused_directions_differ():
    fresh = run_plan(tiny_plan(replications=4))
    reused = run_plan(tiny_plan(replications=4, reuse_directions=True))
    assert (fresh.cells[0].statistics != reused.cells[0].statistics).any()


def test_null_cell_statistics_look_standard_normal():
    # needs n and k large enough that the studentizer has settled; tiny
    # direction budgets give visibly t-like tails
    plan = tiny_plan(d=4, n=400, m=400, k_values=(64,), replications=200,
                     master_seed=3)
    result = run_plan(plan, threads=4)
    stats = result.cells[0].statistics
    assert result.cells[0].excluded == 0
    assert abs(stats.mean()) <= 0.35
    assert 0.6 <= stats.var() <= 1.5
    assert result.cells[0].rejection_rate <= 0.13


def test_csv_text_round_trips():
    plan = tiny_plan(replications=4, level=0.9)
    result = run_plan(plan)
    text = result_csv_text(result)
    lines = text.strip().split("\n")
    assert lines[0] == "k,h,replication,statistic,reject"
    assert len(lines) == 1 + 4
    q = ndtri(0.5 + 0.5 * plan.level)
    for row, t in zip(lines[1:], result.cells[0].statistics):
        k, h, ri, stat, flag = row.split(",")
        assert int(k) == 4
        assert float(h) == 0.0
        assert float(stat) == t  # repr's shortest spelling survives the trip
        assert int(flag) == int(abs(t) > q)


def test_json_text_parses_and_echoes_plan():
    plan = tiny_plan(k_values=(3, 5), replications=4)
    result = run_plan(plan)
    doc = json.loads(result_json_text(result))
    assert list(doc["plan"]) == ["p", "d", "n", "m", "k_values", "h_values",
                                 "delta", "replications", "level",
                                 "master_seed", "reuse_directions"]
    assert SimulationPlan(**doc["plan"]) == plan
    assert doc["plan"]["k_values"] == [3, 5]
    assert len(doc["cells"]) == 2
    for cell_doc, cell in zip(doc["cells"], result.cells):
        assert cell_doc["k"] == cell.k
        assert cell_doc["rejection_rate"] == cell.rejection_rate
        assert sum(cell_doc["histogram"]["counts"]) == cell.statistics.size


def test_run_plan_runs_every_exponent():
    for p in (1.5, 3.0):
        plan = tiny_plan(p=p, replications=4)
        result = run_plan(plan)
        assert result.cells[0].excluded == 0
        assert np.isfinite(result.cells[0].statistics).all()
        assert result_csv_text(run_plan(plan, threads=2)) == result_csv_text(result)


def test_csv_flags_and_rate_read_each_report(monkeypatch):
    real = sim.analyze
    reports = []

    def recording(*args, **kwargs):
        reports.append(real(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(sim, "analyze", recording)
    result = run_plan(tiny_plan(replications=12, level=0.5))
    rows = result_csv_text(result).splitlines()[1:]
    flags = [int(row.split(",")[4]) for row in rows]
    assert flags == [int(rep.reject) for rep in reports]
    assert 0 < sum(flags) < len(flags)
    assert result.cells[0].rejects.tolist() == [rep.reject for rep in reports]
    assert result.cells[0].rejection_rate == np.mean([rep.reject for rep in reports])


def test_csv_keeps_replication_indices_after_exclusion(monkeypatch):
    real = sim._one_replication

    def drop_rep_1(plan, ci, ri, k, h):
        return None if ri == 1 else real(plan, ci, ri, k, h)

    plan = tiny_plan(replications=4)
    full = run_plan(plan)
    monkeypatch.setattr(sim, "_one_replication", drop_rep_1)
    result = run_plan(plan)
    cell = result.cells[0]
    assert cell.excluded == 1
    assert cell.replications.tolist() == [0, 2, 3]
    rows = result_csv_text(result).splitlines()[1:]
    assert [int(r.split(",")[2]) for r in rows] == [0, 2, 3]
    full_rows = result_csv_text(full).splitlines()[1:]
    assert rows == [full_rows[i] for i in (0, 2, 3)]


# a patch of the parent's module reaches the workers only when they are forked
forked_workers = pytest.mark.skipif(not sys.platform.startswith("linux"),
                                    reason="workers are forked on Linux only")


@pytest.mark.parametrize("threads", [1, pytest.param(2, marks=forked_workers)])
def test_cell_with_every_replication_excluded(monkeypatch, tmp_path, capsys,
                                              threads):
    """Every replication's variance degenerates: the cell keeps no
    statistic, its rate is NaN, and each output says so."""
    def analyze(*args, **kwargs):
        raise DegenerateVarianceError("combined variance estimate is zero")

    monkeypatch.setattr(sim, "analyze", analyze)
    plan = tiny_plan(replications=3)
    result = run_plan(plan, threads=threads)
    cell = result.cells[0]
    assert cell.excluded == plan.replications
    assert np.isnan(cell.rejection_rate)
    assert cell.statistics.size == cell.replications.size == 0
    doc = json.loads(result_json_text(result))["cells"][0]
    assert doc["rejection_rate"] is None and doc["excluded"] == 3
    assert doc["histogram"] == {"edges": [0.0], "counts": []}
    assert result_csv_text(result) == "k,h,replication,statistic,reject\n"

    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"d": 2, "n": 25, "m": 20, "k": 4,
                                "h_values": [0.0], "delta": 1.0,
                                "replications": 3, "master_seed": 99}))
    out = tmp_path / "s"
    assert cli.main(["simulate", "--plan", str(path), "--out", str(out),
                     "--threads", str(threads)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "4 0.0 nan 3"
    assert (tmp_path / "s.csv").read_text() == result_csv_text(result)


@forked_workers
def test_pool_raises_the_first_failing_replication(monkeypatch):
    """Two replications fail with different messages; every worker count
    raises the first one's error, as the serial loop does, and leaves no
    worker process behind."""
    plan = tiny_plan(k_values=(3, 6), replications=3)
    failing = {_replication_streams(plan, 0, 2)[2]: "first",
               _replication_streams(plan, 1, 0)[2]: "second"}
    real = sim.analyze

    def analyze(X, Y, dirs, **kwargs):
        if dirs.stream_id in failing:
            raise ValueError(f"{failing[dirs.stream_id]} failure")
        return real(X, Y, dirs, **kwargs)

    monkeypatch.setattr(sim, "analyze", analyze)
    for threads in (1, 2, 4):
        with pytest.raises(ValueError) as info:
            run_plan(plan, threads=threads)
        assert type(info.value) is ValueError
        assert str(info.value) == "first failure"
        assert multiprocessing.active_children() == []


@forked_workers
def test_pool_forks_before_any_helper_thread(monkeypatch):
    """A child forked while another thread holds a lock can deadlock, so
    every worker is forked while this process still has one thread."""
    real_fork = os.fork
    alive = []

    def fork():
        alive.append(threading.active_count())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    run_plan(tiny_plan(replications=4), threads=2)
    assert alive == [1, 1]


@forked_workers
def test_pool_fails_when_a_worker_dies(monkeypatch):
    """A worker killed mid-run, as for memory, fails the run instead of
    hanging it, and no worker process is left behind."""
    plan = tiny_plan(replications=4)
    dying = _replication_streams(plan, 0, 2)[2]
    real = sim.analyze
    here = os.getpid()

    def analyze(X, Y, dirs, **kwargs):
        if dirs.stream_id == dying and os.getpid() != here:
            os._exit(9)
        return real(X, Y, dirs, **kwargs)

    monkeypatch.setattr(sim, "analyze", analyze)
    with pytest.raises(BrokenProcessPool):
        run_plan(plan, threads=2)
    assert multiprocessing.active_children() == []


@forked_workers
def test_simulate_exits_1_when_a_worker_dies(monkeypatch, tmp_path, capsys):
    """A dead worker fails ``simulate`` with one error line and exit code 1,
    not a traceback, and leaves no worker or file behind."""
    real = sim._one_replication
    here = os.getpid()

    def one_replication(*args):
        if os.getpid() != here:
            os._exit(1)
        return real(*args)

    monkeypatch.setattr(sim, "_one_replication", one_replication)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps({"d": 2, "n": 25, "m": 20, "k": 4,
                                "h_values": [0.0], "delta": 1.0,
                                "replications": 3, "master_seed": 99}))
    assert cli.main(["simulate", "--plan", str(path), "--out",
                     str(tmp_path / "s"), "--threads", "2"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "s.csv").exists()


def test_pool_never_outnumbers_the_replications(monkeypatch):
    """More workers asked for than there are replications: one worker per
    replication, and a single replication runs without a pool."""
    real = sim._worker_pool
    sizes = []

    def spy(workers):
        sizes.append(workers)
        return real(workers)

    monkeypatch.setattr(sim, "_worker_pool", spy)
    plan = tiny_plan(replications=2)
    serial = run_plan(plan)
    pooled = run_plan(plan, threads=3)
    assert sizes == [2]
    assert result_csv_text(pooled) == result_csv_text(serial)
    assert result_json_text(pooled) == result_json_text(serial)
    single = tiny_plan(replications=1)
    assert result_csv_text(run_plan(single, threads=3)) == \
        result_csv_text(run_plan(single))
    assert sizes == [2]
    assert multiprocessing.active_children() == []


def test_run_plan_refuses_a_worker_bound_below_one(monkeypatch):
    """Refused before any replication runs or any worker forks."""
    def fail(*args, **kwargs):
        raise AssertionError("ran a replication")

    monkeypatch.setattr(sim, "_worker_pool", fail)
    monkeypatch.setattr(sim, "_one_replication", fail)
    with pytest.raises(ValueError, match="threads must be positive, got 0"):
        run_plan(tiny_plan(), threads=0)
