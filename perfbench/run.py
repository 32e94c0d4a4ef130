"""Benchmark of the isacbeam design pipeline and its Monte-Carlo sweep.

    python3 perfbench/run.py --workload design_paper --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
`src/`. One workload runs in this process as a closed loop: one caller
runs operations back to back, with BLAS and OpenMP pinned to one thread.
The workload's operations, built from `--seed`, run in passes until the
next pass would overrun `--seconds` (at least one pass runs). A fixed
numpy kernel timed around each pass scales that pass's times to a
reference machine speed (see `harness.Gauge`), and each operation's time
is the median of its scaled times over the passes. Every operation's
output is checked outside its timed region.

`--trace 0` reports the end-to-end metrics listed in BENCHMARK.json;
`--trace 1` runs pairs of passes, untraced and then with every public
function of the library layers wrapped in spans, reports the per-layer
metrics and the tracing overhead, and writes the spans to
`perfbench/out/`. The last line of standard output is the JSON result.
`perfbench/layer_map.json` says which end-to-end metric each layer
metric should move, and on which workload.

Besides the workloads in BENCHMARK.json, `--workload design_tight`
(overload 0.95) and `--workload design_large` (M_T = 128) run by hand:
one pass of either takes 20-30 s and varies by about 16% between runs
on a shared host, too much for a gated workload, but their traced runs
show the stage-II and memory-bound regimes.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5          # set-ups timed in fresh processes; setup_s is their median
PROBE_TIMEOUT_S = 120


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   help="a workload of BENCHMARK.json, or design_tight / design_large")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="set the workload up, print 'ready' and exit")
    return p.parse_args(argv)


def environment():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        **{var: os.environ[var] for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
    }


def time_setup(args):
    """Seconds from process start until a fresh process finished set-up."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed


def passes_within(seconds):
    """Count passes over the workload until the median pass so far would
    overrun `seconds`; there is always at least one."""
    t_start = time.perf_counter()
    spent = []
    while not spent or time.perf_counter() - t_start + statistics.median(spent) <= seconds:
        t0 = time.perf_counter()
        yield len(spent)
        spent.append(time.perf_counter() - t0)


def run_pass(harness, workload, ledger, gauge, **kwargs):
    """Operation times of one pass, scaled to calibration speed, and the
    scale factor."""
    gauge.start()
    times = []
    for op in workload.ops:
        times.append(harness.run_op(workload, op, ledger, **kwargs))
        gauge.sample_if_due()
    factor = gauge.factor()
    return [t * factor for t in times], factor


def run_untraced(harness, workload, seconds, ledger, gauge):
    """Per-operation median scaled time over the passes, the passes' scale
    factors and the quality references (taken in the first pass)."""
    quality = harness.Quality()
    passes, factors = [], []
    for i in passes_within(seconds):
        times, factor = run_pass(harness, workload, ledger, gauge,
                                 quality=quality if i == 0 else None)
        passes.append(times)
        factors.append(factor)
    return [statistics.median(times) for times in zip(*passes)], factors, quality


def run_traced(harness, tracer_mod, workload, seconds, ledger, gauge, tracer):
    """Pairs of passes, one untraced and one traced, in alternating order so
    that warm-up favours neither; their summed scaled times."""
    plain, traced = [], []
    for i in passes_within(seconds):
        for with_trace in ((False, True) if i % 2 == 0 else (True, False)):
            if with_trace:
                with tracer_mod.instrumented(tracer):
                    traced.append(sum(run_pass(harness, workload, ledger, gauge,
                                               tracer=tracer)[0]))
            else:
                plain.append(sum(run_pass(harness, workload, ledger, gauge)[0]))
    return plain, traced


def select(spec_metrics, values):
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark computes no value for {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec_metrics}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = parse_args(argv)
    for var in THREAD_VARS:     # before numpy loads, here and in set-up probes
        os.environ[var] = "1"
    if not (ROOT / "src" / "isacbeam" / "__init__.py").is_file():
        print(f"perfbench: no isacbeam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    import harness
    import tracer as tracer_mod
    from benchstats import MIN_BEYOND, geomean, percentile

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = harness.setup(args.workload, args.seed, OUT)
    if args.setup_probe:
        print("ready", flush=True)
        return 0

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    gauge = harness.Gauge()
    ledger = harness.Ledger()

    if args.trace:
        tracer = tracer_mod.Tracer()
        plain, traced = run_traced(harness, tracer_mod, workload, args.seconds, ledger, gauge,
                                   tracer)
        values = tracer_mod.layer_metrics(tracer, len(traced) * len(workload.ops))
        values["rcg.crlb_gap_pct"] = harness.crlb_gap_pct()
        values["trace.wall_s"] = statistics.median(traced)
        values["trace.overhead_pct"] = 100.0 * statistics.median(
            t / p - 1.0 for p, t in zip(plain, traced))
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.save(spans)
        print(f"traced {len(traced)} passes of {len(workload.ops)} operations; "
              f"untraced wall_s {statistics.median(plain):.4f} s, "
              f"traced {values['trace.wall_s']:.4f} s; spans in {spans.relative_to(ROOT)}")
        for kind, (layers, radar_share) in tracer_mod.shape(tracer).items():
            top = ", ".join(f"{name} {100 * share:.1f}%" for name, share in layers)
            print(f"shape {kind}: largest self time {top}; radar.* {100 * radar_share:.1f}%")
        metrics = select(spec["per_layer"], values)
    else:
        gauge.start()
        setups = []
        for _ in range(SETUP_PROBES):
            setups.append(time_setup(args))
            gauge.sample()
        setup_factor = gauge.factor()
        op_times, factors, quality = run_untraced(harness, workload, args.seconds, ledger,
                                                  gauge)
        values = {
            "setup_s": setup_factor * statistics.median(setups),
            "wall_s": sum(op_times),
            "op_s_p50": statistics.median(op_times),
            "crlb_vs_omni": geomean(quality.crlb_vs_omni),
            "rmse_over_rcrlb": geomean(quality.rmse_over_rcrlb),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = select(spec["end_to_end"], values)
        try:
            p90 = f"{percentile(op_times, 90):.4f} s"
        except ValueError:
            p90 = f"not reported (needs {MIN_BEYOND} samples beyond it)"
        print(f"calibration: {len(gauge.samples)} samples, median "
              f"{statistics.median(gauge.samples):.4f} s; scale factors: set-up "
              f"{setup_factor:.4f}, passes {' '.join(f'{f:.4f}' for f in factors)}")
        print(f"{len(factors)} passes of {len(op_times)} operations, median of the passes "
              f"per operation; op_s p90 {p90}; "
              f"crlb_vs_omni over {len(quality.crlb_vs_omni)} designs, "
              f"rmse_over_rcrlb over {len(quality.rmse_over_rcrlb)}")
        print(f"setup_s samples (unscaled) {' '.join(f'{s:.4f}' for s in setups)}")

    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"attempted {ledger.attempted} failed {ledger.failed} "
          f"errors {json.dumps(ledger.errors, sort_keys=True)}")
    for problem in ledger.problems:
        print(f"check failed: {problem}")
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
