"""Tests of the benchmark's own machinery.

    python3 -m pytest -q perfbench/tests
"""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import benchstats
import harness
import tracer as tracer_mod
from isacbeam import config, design, manifold, rcg

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _small_scenario(overload=0.7):
    cfg = config.parse_config(harness.scenario_ini(8, 2, snapshots=64))
    return config.build_scenario(cfg, seed=3, overload=overload)


def test_instrumented_restores_every_patched_name():
    import isacbeam
    originals = {(mod, name): getattr(mod, name)
                 for mod, name in [(rcg, "retract"), (rcg, "project_tangent"),
                                   (manifold, "retract"), (design, "run"),
                                   (isacbeam, "run"), (isacbeam, "fisher_matrix")]}
    with tracer_mod.instrumented(tracer_mod.Tracer()):
        for (mod, name), func in originals.items():
            assert getattr(mod, name) is not func
            assert getattr(mod, name).__wrapped__ is func
    for (mod, name), func in originals.items():
        assert getattr(mod, name) is func


def test_instrumented_restores_on_error():
    original = design.run
    with pytest.raises(RuntimeError):
        with tracer_mod.instrumented(tracer_mod.Tracer()):
            raise RuntimeError("boom")
    assert design.run is original


def test_traced_design_reaches_names_imported_by_name():
    tr = tracer_mod.Tracer()
    sc = _small_scenario()
    with tracer_mod.instrumented(tr):
        with tr.span("op.sgcdf"):
            result = design.run(sc, mode="sgcdf")
    table = tr.table(root_prefix="op.")
    # rcg holds retract/project_tangent under its own names; design reaches
    # crlb and comm through module attributes
    for name in ("manifold.retract", "manifold.project_tangent", "crlb.fisher_matrix",
                 "comm.rates", "rcg.wolfe_linesearch"):
        assert table[name]["calls"] > 0, name
    metrics = tracer_mod.layer_metrics(tr, 1)
    assert metrics["rcg.sp1.iterations"] == result.traces["sp1"].iterations
    assert metrics["rcg.linesearch.steps"] == metrics["rcg.wolfe_linesearch.calls"]
    assert metrics["rcg.linesearch.probes_per_step"] >= 1.0


def test_self_time_subtracts_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    tr = tracer_mod.Tracer(clock=lambda: next(ticks))
    inner = tr.wrap("inner", lambda: None)

    def outer_body():
        inner()
        inner()

    tr.wrap("outer", outer_body)()
    table = tr.table()
    assert table["outer"] == {"calls": 1, "self_s": 10.0 - 2.0 - 0.5, "total_s": 10.0}
    assert table["inner"] == {"calls": 2, "self_s": 2.5, "total_s": 2.5}


def test_p90_refused_with_fewer_than_ten_samples_beyond():
    with pytest.raises(ValueError):
        benchstats.percentile(range(99), 90)
    assert benchstats.percentile(range(100), 90) == 89


@pytest.mark.parametrize("corrupt", ["off_manifold", "below_floor"])
def test_corrupted_result_counts_as_failed(corrupt):
    sc = _small_scenario()
    result = design.run(sc, mode="sgcdf")
    ledger = harness.Ledger()
    assert ledger.checked(harness.check_design(sc, result))
    if corrupt == "off_manifold":
        w = result.w.copy()
        w[0] *= 1.01
        bad = dataclasses.replace(result, w=w)
    else:
        bad = dataclasses.replace(result, r_min=result.rates.min_rate + 0.5)
    assert not ledger.checked(harness.check_design(sc, bad))
    assert (ledger.attempted, ledger.failed, ledger.correct) == (2, 1, False)


def test_sensing_columns_must_stay_zero():
    sc = _small_scenario()
    result = design.run(sc, mode="no_dedicated_stream")
    assert harness.check_design(sc, result) == []
    w = result.w.copy()
    w[:, sc.num_users] = 1e-9
    assert harness.check_design(sc, dataclasses.replace(result, w=w))


def test_sweep_check_rejects_short_or_non_finite_csv():
    from isacbeam import cli
    header = ",".join(cli.SWEEP_POWER_HEADER)
    row = "0.0,sgcdf,1.0,1.0,1.0,1.0,1.0"
    assert harness.check_sweep("\n".join([header] + [row] * 6))[0] == []
    assert harness.check_sweep("\n".join([header] + [row] * 5))[0]
    assert harness.check_sweep("\n".join([header] + [row] * 5 + [row.replace("1.0", "nan", 1)]))[0]


def test_every_per_layer_metric_is_computed_and_mapped():
    spec = _spec()
    computed = set(tracer_mod.layer_metrics(tracer_mod.Tracer(), 1))
    computed |= {"rcg.crlb_gap_pct", "trace.wall_s", "trace.overhead_pct"}
    mapped = {m for layer in json.loads((BENCH / "layer_map.json").read_text())["layers"]
              for m in layer["metrics"]}
    for metric in spec["per_layer"]:
        assert metric["name"] in computed, metric["name"]
        assert metric["name"] in mapped, metric["name"]
    mapped_workloads = set(json.loads((BENCH / "layer_map.json").read_text())["workloads"])
    assert mapped_workloads == set(harness.WORKLOADS)
    assert {w["name"] for w in spec["workloads"]} <= mapped_workloads


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "design_paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_fixed_workloads_only_reorder_with_the_seed():
    a = harness.DesignTight(1, None).ops
    b = harness.DesignTight(2, None).ops
    key = lambda ops: sorted((op.scenario.seed, op.kind) for op in ops)
    assert key(a) == key(b)
    assert len(a) == 10 and np.all([op.kind == "sgcdf" for op in a])
