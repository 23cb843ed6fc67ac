"""Benchmark of the mgdeform pipeline on three seeded workloads.

Run from the repository root:

    python3 perfbench/run.py --workload acceptance_flow --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads: acceptance_flow, curved_history, bvp_files (see workloads.py for
why each exists).  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
runs every operation after the first twice, untraced and traced, and reports
the per-layer metrics of the traced copies plus the tracing overhead.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name with its unit and sample count.  Per-operation records, the
environment and (traced runs) every span go to ``.bench_work/``.

``--seconds`` fixes the measured work: after the cold first operation a run
repeats its workload's cycle ``round(seconds / nominal cycle time)`` times
(at least the workload's minimum), the nominal time being the cycle's
untraced wall time on a 2-core x86 machine at the commit that added this
benchmark.  A faster program
therefore measures the same operations in less time.  ``--smoke`` shrinks
every workload to a 16x32 grid for the benchmark's own tests.
"""

import os

# Pin the BLAS/OpenMP pools before numpy is imported; setting them later (as
# the CLI's --threads flag does) has no effect.
PINNED_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = PINNED_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
WORKLOAD_NAMES = ("acceptance_flow", "curved_history", "bvp_files")

END_TO_END = [
    ("setup_s", "s"),
    ("steady_step_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_share", "share"),
]

# metric -> span name: calls per traced operation
CALLS = {
    "grid.deriv_calls": "grid.deriv",
    "grid.line_integral_calls": "grid.line_integral",
    "grid.reflect_calls": "grid.reflect",
    "metrics.christoffel_calls": "metrics.christoffel",
    "surface.oracle_calls": "surface.oracle",
    "transport.ode_calls": "transport.ode",
    "transport.series_calls": "transport.series",
    "gdef.assemble_calls": "gdef.assemble",
    "cdot.solve_calls": "cdot.solve",
    "kpres.variation_calls": "kpres.variation",
    "vekua.bvp_calls": "vekua.bvp",
    "vekua.t_operator_calls": "vekua.t_operator",
    "vekua.holomorphic_calls": "vekua.holomorphic",
    "kernels.einsum_calls": "kernels.einsum",
    "kernels.fft_calls": "kernels.fft",
    "kernels.lstsq_calls": "kernels.lstsq",
}
# metric -> span name: self seconds per traced operation
SELF_S = {
    "grid.deriv_s": "grid.deriv",
    "grid.line_integral_s": "grid.line_integral",
    "grid.reflect_s": "grid.reflect",
    "metrics.christoffel_s": "metrics.christoffel",
    "surface.oracle_s": "surface.oracle",
    "transport.ode_s": "transport.ode",
    "transport.series_s": "transport.series",
    "transport.normal_s": "transport.normal",
    "gdef.assemble_s": "gdef.assemble",
    "gdef.normal_residual_s": "gdef.normal_residual",
    "cdot.solve_s": "cdot.solve",
    "kpres.delta_g_s": "kpres.delta_g",
    "kpres.delta_b_s": "kpres.delta_b",
    "kpres.rates_s": "kpres.rates",
    "kpres.rhs_s": "kpres.rhs",
    "vekua.bvp_s": "vekua.bvp",
    "vekua.t_operator_s": "vekua.t_operator",
    "vekua.holomorphic_s": "vekua.holomorphic",
    "vekua.io_read_s": "vekua.io_read",
    "vekua.io_write_s": "vekua.io_write",
    "flow.step_self_s": "flow.step",
    "kernels.einsum_s": "kernels.einsum",
    "kernels.fft_s": "kernels.fft",
    "kernels.lstsq_s": "kernels.lstsq",
}
# counters summed by the tracer's hooks, per traced operation
COUNTERS = {
    "transport.rk4_stages": "1/op",
    "cdot.sweeps": "1/op",
    "vekua.inner_iterations": "1/op",
    "vekua.gmres_solves": "1/op",
    "vekua.io_bytes": "B/op",
    "kernels.einsum_bytes": "B/op",
}
# largest value seen over the run (tracer hooks and operation checks)
QUALITY = [
    "cdot.rate_max",
    "kpres.dk_oracle_rel_max",
    "gdef.g_residual_max",
    "transport.norm_drift_max",
    "vekua.boundary_residual_max",
    "vekua.fixed_point_residual_max",
    "vekua.recovery_err_max",
]
FAILURE_CLASSES = [
    "UnsolvableDataError", "ConvergenceError", "ContractionFailureError",
    "NoContractionError", "MgError", "other", "check",
]

# The cold first operation is one sample per run; across ten seeded runs it
# spread by 25-41% of its median on the 2-core machine the benchmark was
# written on, beyond the largest bound a gate may use, so it is reported, not
# gated.
PER_LAYER = (
    [("first_step_s", "s")]
    + [(m, "1/op") for m in CALLS]
    + [(m, "s/op") for m in SELF_S]
    + list(COUNTERS.items())
    + [
        ("surface.build_s", "s"),
        ("transport.s_per_sample", "s/sample"),
        ("vekua.assembler_calls_per_solve", "ratio"),
        ("vekua.accepted_solve_ratio", "ratio"),
        ("flow.assembler_calls_per_step", "ratio"),
    ]
    + [(m, "ratio") for m in QUALITY]
    + [(f"failures.{c}", "count") for c in FAILURE_CLASSES]
    + [
        ("failed_share", "share"),
        ("trace.overhead_s", "s/op"),
        ("trace.overhead_share", "share"),
        ("trace.self_time_share", "share"),
        ("trace.other_self_s", "s/op"),
        ("trace.spans_per_op", "1/op"),
    ]
)

SETUP_OP = -1         # tracer operation id of the traced set-up build
SETUP_PROCESSES = 5   # fresh processes timing one set-up each


def load_package():
    """Import numpy and mgdeform from this checkout's src/ directory."""
    if not os.path.isfile(os.path.join(SRC, "mgdeform", "__init__.py")):
        sys.exit(f"perfbench: no mgdeform sources under {SRC}")
    sys.path.insert(0, SRC)
    import mgdeform
    if not os.path.abspath(mgdeform.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported mgdeform from {mgdeform.__file__}, not {SRC}")


def environment():
    import numpy as np

    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep['name']} {dep['version']}"
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "numpy": np.__version__, "blas": blas, "nproc": os.cpu_count(),
        "pinned_threads": int(PINNED_THREADS), "python": platform.python_version(),
        "machine": platform.machine(),
    }


def _timed(fn):
    """Run one operation; errors count as failures, not crashes."""
    from mgdeform.errors import MgError

    t0 = time.perf_counter()
    result, error = None, None
    try:
        result = fn()
    except MgError as exc:
        error = type(exc).__name__
    except Exception:  # the run must go on and report the failure
        traceback.print_exc(file=sys.stderr)
        error = "other"
    return time.perf_counter() - t0, result, error


def _failure_label(name):
    return name if name in FAILURE_CLASSES else "MgError"


def measure(workload_cls, seed, seconds, trace, smoke, workdir):
    from tracer import Tracer

    tracer = Tracer() if trace else None
    count = tracer.add if tracer else (lambda key, value: None)
    wl = workload_cls(seed, smoke, workdir, count)

    objects = wl.setup()
    if trace:
        tracer.run_op(SETUP_OP, wl.setup)
    wl.prepare(objects)

    cycles = max(wl.min_cycles, round(seconds / wl.nominal_cycle_s))
    ops = [wl.first()] + [op for _ in range(cycles) for op in wl.cycle()]
    records = []
    for i, op in enumerate(ops):
        rec = {"index": i, "kind": op.kind}
        if trace and i > 0:
            plain = op.fork() if op.fork else op.run
            traced = lambda: tracer.run_op(i, op.run)  # noqa: E731
            runs = [(False, plain), (True, traced)]
            if i % 2:
                runs.reverse()
            outcome = {flag: _timed(fn) for flag, fn in runs}
            wall, result, error = outcome[False]
            rec["traced_wall"], t_result, t_error = outcome[True]
            if error is None and t_error is not None:
                result, error = t_result, t_error
            elif result is not None and t_result is not None:
                if t_result.missed:
                    result = t_result
                elif result.fingerprint != t_result.fingerprint:
                    result.missed = max(result.missed, 1)
                    result.detail = "traced and untraced results differ"
        else:
            wall, result, error = _timed(op.run)
        rec["wall"] = wall
        if error is not None:
            rec["units"], rec["missed"] = op.units, 0
            rec["failures"] = [_failure_label(error)] * op.units
            rec["detail"], rec["quality"] = error, {}
        else:
            rec["units"], rec["missed"] = result.units, result.missed
            rec["failures"] = ([_failure_label(e) for e in result.errors]
                               + ["check"] * result.missed)
            rec["detail"], rec["quality"] = result.detail, result.quality
        records.append(rec)
    return wl, tracer, records


def setup_probe(args):
    """Print the time of one set-up in this process, after an untimed one."""
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.smoke, None, None)
    wl.setup()
    t0 = time.perf_counter()
    wl.setup()
    print(time.perf_counter() - t0)


def fresh_setup_times(args):
    """Set-up times from SETUP_PROCESSES fresh processes.

    One process's set-up time stays put across repetitions but differs from
    the next process's by up to a third, so the samples come from separate
    processes.
    """
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(SETUP_PROCESSES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(proc.stdout.split()[-1]))
    return times


def tally(records):
    """(attempted units, failed units, correct) over the run."""
    attempted = sum(r["units"] for r in records)
    failed = sum(len(r["failures"]) for r in records)
    return attempted, failed, all(r["missed"] == 0 for r in records)


def end_to_end_metrics(wl, setup_times, records):
    steady = [r["wall"] for r in records[1:] if r["kind"] == wl.steady_kind]
    attempted, failed, _ = tally(records)
    return {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "first_step_s": (records[0]["wall"], 1),
        "steady_step_s": (statistics.median(steady), len(steady)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
        "ok_share": (1.0 - failed / attempted, attempted),
    }


def per_layer_metrics(wl, tracer, records):
    traced = [r for r in records if "traced_wall" in r]
    ops = [r["index"] for r in traced]
    n_ops = len(ops)
    calls, self_s = tracer.totals(ops)
    out = {"first_step_s": records[0]["wall"]}
    out.update({m: calls[s] / n_ops for m, s in CALLS.items()})
    out.update({m: self_s[s] / n_ops for m, s in SELF_S.items()})
    out.update({m: tracer.counter(m, ops) / n_ops for m in COUNTERS})

    _, setup_self = tracer.totals([SETUP_OP])
    out["surface.build_s"] = setup_self["surface.build"]
    slope = 0.0
    lengths = {"short": getattr(wl, "short", 0), "long": getattr(wl, "long", 0)}
    by_kind = {k: [r["wall"] for r in traced if r["kind"] == k] for k in lengths}
    if all(by_kind.values()):
        slope = ((statistics.median(by_kind["long"]) - statistics.median(by_kind["short"]))
                 / (lengths["long"] - lengths["short"]))
    out["transport.s_per_sample"] = slope
    bvp = calls["vekua.bvp"]
    steps = calls["flow.step"]
    out["vekua.assembler_calls_per_solve"] = (
        tracer.counter("vekua.assembler_calls", ops) / bvp if bvp else 0.0)
    units = sum(r["units"] for r in traced)
    out["vekua.accepted_solve_ratio"] = units / bvp if bvp else 0.0
    out["flow.assembler_calls_per_step"] = calls["cdot.solve"] / steps if steps else 0.0

    for key in QUALITY:
        seen = [r["quality"][key] for r in records if key in r["quality"]]
        out[key] = max(seen + [tracer.maxima.get(key, 0.0)])
    labels = [label for r in records for label in r["failures"]]
    for cls in FAILURE_CLASSES:
        out[f"failures.{cls}"] = labels.count(cls)
    attempted, failed, _ = tally(records)
    out["failed_share"] = failed / attempted

    extra = [r["traced_wall"] - r["wall"] for r in traced]
    out["trace.overhead_s"] = statistics.median(extra)
    out["trace.overhead_share"] = out["trace.overhead_s"] / statistics.median(
        r["wall"] for r in traced)
    root = tracer.root_seconds(ops)
    out["trace.self_time_share"] = sum(self_s.values()) / root
    listed = set(SELF_S.values())
    out["trace.other_self_s"] = sum(v for k, v in self_s.items() if k not in listed) / n_ops
    out["trace.spans_per_op"] = sum(calls.values()) / n_ops
    return out


NOTES = {
    "setup_s": "median set-up time over fresh processes",
    "first_step_s": "first operation, cold; reported, not gated",
    "steady_step_s": "median later operation of the measured kind",
    "peak_rss_mb": "peak resident memory of the run",
    "ok_share": "units of work passing their checks",
}


def run_one(args):
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from workloads import WORKLOADS

    if args.setup_probe:
        setup_probe(args)
        return
    setup_times = [] if args.trace else fresh_setup_times(args)
    workdir = os.path.join(WORK, f"run-{args.workload}-{os.getpid()}")
    try:
        wl, tracer, records = measure(
            WORKLOADS[args.workload], args.seed, args.seconds, args.trace,
            args.smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print(f"# {args.workload} seed {args.seed}: numpy {env['numpy']}, blas {env['blas']}, "
          f"nproc {env['nproc']}, pinned threads {env['pinned_threads']}")
    attempted, failed, correct = tally(records)
    for r in records:
        if r["failures"]:
            print(f"# op {r['index']} ({r['kind']}) failed: {', '.join(r['failures'])}"
                  f"{' -' + r['detail'] if r['missed'] else ''}")
    if not args.trace:
        print(f"# failed_share = {failed / attempted:.4f} share "
              f"({failed} of {attempted} {wl.units_label})")

    if args.trace:
        values = per_layer_metrics(wl, tracer, records)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER}
        for name, unit in PER_LAYER:
            note = ("  [computed: operand plus output bytes]"
                    if name == "kernels.einsum_bytes" else "")
            print(f"# {name} = {values[name]:.6g} {unit}{note}")
        spans_path = os.path.join(WORK, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
    else:
        values = end_to_end_metrics(wl, setup_times, records)
        metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
        for name, unit in END_TO_END + [("first_step_s", "s")]:
            value, n = values[name]
            print(f"# {name} = {value:.6g} {unit}  [{NOTES[name]}; n={n}]")
        value, n = values["steady_step_s"]
        if args.workload == "curved_history":
            print(f"# history_step_s = {value:.6g} s  [median 40-step assembly; n={n}]")
        elif args.workload == "bvp_files":
            per_file = value / wl.units_per_round
            print(f"# bvp_op_s = {per_file:.6g} s  [median round / {wl.units_per_round} "
                  f"files; n={n} rounds]")

    with open(os.path.join(WORK, f"result-{args.workload}-seed{args.seed}"
                                 f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "smoke": args.smoke, "environment": env,
                   "setup_times": setup_times,
                   "operations": records,
                   "metrics": metrics}, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


def run_all(args):
    """Run every workload in its own process and print one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, val in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = val
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny 16x32 grids, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_package()
    os.makedirs(WORK, exist_ok=True)
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
