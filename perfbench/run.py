#!/usr/bin/env python3
"""Benchmark of the spectral-pair package: end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload diagram-stream --seed 1 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from any directory; the package is imported from ``src/`` next to this
directory, never from an installed copy, and every subprocess gets that path
too.  One run sets its workload up several times (median reported as
``setup_s``), then loops ops for ``--seconds`` (default 15, as
BENCHMARK.json's run_seconds).  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs half the time untraced and
half traced and reports the per-layer metrics.  The last stdout line is one
JSON object; a readable report goes to stderr.  ``--workload all`` runs every
workload both ways in subprocesses and prints one table.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from refclock import SpeedProbe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# the workloads BENCHMARK.json lists come first; boundary-mix has known
# failing ops (ROADMAP item 4), so it is reported here but not listed there
WORKLOAD_NAMES = ("verify-suite", "diagram-stream", "cli-docs",
                  "boundary-mix")
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "goodput_ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "sound_share": "share",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
KERNELS = ("det3", "adj3", "matmul3", "char_poly3", "kernel_vector3",
           "solve_cubic_raw", "eval_curve9")
# called by every workload, so their self time is never a constant 0 ms
SELF_MS_FUNCTIONS = (
    "linalg.eig3", "linalg.inv3", "linalg.solve_cubic", "linalg.kernel_vector",
    "spectral.normalize_pair", "spectral.spectral_data",
    "spectral.validate_spectral_data", "reconstruct.reconstruct",
    "reconstruct.canonical_form", "gl2z.swap_spectral", "gl2z.invert_spectral",
    "gl2z.shear_spectral", "gl2z.act_on_pair", "cubic.chord_swap_divisor")


def subprocess_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def import_package():
    """Import spectral_pair from this checkout's ``src``, or exit with an
    error when it is not there."""
    if not (SRC / "spectral_pair" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'spectral_pair'}")
    sys.path.insert(0, str(SRC))
    import spectral_pair

    if not Path(spectral_pair.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"error: spectral_pair came from {spectral_pair.__file__}")
    return spectral_pair


def make_workload(name: str):
    import workloads

    if name == "cli-docs":
        return workloads.CliDocs(WORK, subprocess_env(),
                                 HERE / "traced_cli.py")
    return {"verify-suite": workloads.VerifySuite,
            "diagram-stream": workloads.DiagramStream,
            "boundary-mix": workloads.BoundaryMix}[name]()


def set_up(name: str, seed: int, repeats: int):
    """Set the workload up ``repeats`` times, warm-up op included; keep the
    last one.  Returns it with the median set-up time in reference seconds,
    each set-up scaled by the host's slowness probed just before and after."""
    import workloads

    times, workload = [], None
    for _ in range(repeats):
        if workload is not None:
            workload.close()
        probe = SpeedProbe()
        for _ in range(5):
            probe.sample()
        start = time.perf_counter()
        workload = make_workload(name)
        workload.setup(seed)
        workloads.classify(workload, 0)
        elapsed = time.perf_counter() - start
        for _ in range(5):
            probe.sample()
        times.append(elapsed / probe.slowness())
    return workload, statistics.median(times)


def op_loop(workload, seconds: float, min_ops: int = 0, tracer=None):
    """Closed loop from op 0 until ``seconds`` have passed and at least
    ``min_ops`` ops are done, probing the host's speed between ops.
    Returns (outcomes, op wall times in s, op times in reference s, run
    slowness)."""
    import workloads

    outcomes, spans = [], []
    probe = SpeedProbe()
    probe.sample()
    clock = time.perf_counter
    deadline = clock() + seconds
    i = 0
    while clock() < deadline or i < min_ops:
        if tracer is not None:
            tracer.begin_op(i)
        t0 = clock()
        outcome = workloads.classify(workload, i)
        t1 = clock()
        if tracer is not None:
            tracer.end_op(i)
        outcomes.append(outcome)
        spans.append((t0, t1))
        i += 1
        probe.maybe_sample()
    probe.sample()
    wall = [t1 - t0 for t0, t1 in spans]
    ref = [(t1 - t0) / probe.slowness_near(t0, t1) for t0, t1 in spans]
    return outcomes, wall, ref, probe.slowness()


def goodput(outcomes, latencies, slowness) -> float:
    """Delivered ops per reference second of op time."""
    return outcomes.count("ok") * slowness / sum(latencies)


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    k = max(0, min(len(sorted_values) - 1,
                   int(-(-p * len(sorted_values) // 100)) - 1))
    return sorted_values[k]


def peak_rss_mb(name: str) -> float:
    """Peak resident set of the process doing the work: the CLI children for
    cli-docs, this process otherwise (ru_maxrss is in KiB on Linux)."""
    who = (resource.RUSAGE_CHILDREN if name == "cli-docs"
           else resource.RUSAGE_SELF)
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    workload, setup_s = set_up(name, seed, SETUP_REPEATS)
    try:
        outcomes, latencies, ref, slowness = op_loop(workload, seconds)
    finally:
        workload.close()
    attempted = len(outcomes)
    failed = sum(o.startswith("failed.") for o in outcomes)
    delivered = sorted(t for t, o in zip(ref, outcomes) if o == "ok")
    p = workload.tail_percentile
    values = {
        "goodput_ops_per_s": goodput(outcomes, latencies, slowness),
        "op_p50_ms": 1e3 * statistics.median(delivered) if delivered else 0.0,
        "op_tail_ms": 1e3 * percentile(delivered, p) if delivered else 0.0,
        "sound_share": (attempted - failed) / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(name),
    }
    beyond = len(delivered) - int(-(-p * len(delivered) // 100))
    info = {"attempted": attempted, "failed": failed,
            "delivered": len(delivered), "tail_percentile": p,
            "beyond_tail": beyond, "slowness": slowness,
            "outcomes": {o: outcomes.count(o) for o in sorted(set(outcomes))}}
    return values, info


def kernel_ns_per_call(seed: int) -> dict[str, float]:
    """Median over 5 repeats of the mean ns per call of each pure-Python
    kernel on 200 seeded inputs, 2000 calls per repeat."""
    import random

    from spectral_pair import _kernels_py as k

    rng = random.Random(f"kernels:{seed}")

    def z(r=1.0):
        return complex(rng.uniform(-r, r), rng.uniform(-r, r))

    mats = [tuple(z() for _ in range(9)) for _ in range(200)]
    cases = {
        "det3": [(m,) for m in mats],
        "adj3": [(m,) for m in mats],
        "matmul3": list(zip(mats, mats[1:] + mats[:1])),
        "char_poly3": [(m,) for m in mats],
        "kernel_vector3": [(m,) for m in mats],
        "solve_cubic_raw": [(1.0 + 0j, z(2), z(2), z(2)) for _ in mats],
        "eval_curve9": [(tuple(z() for _ in range(9)), z(), z(), z())
                        for _ in mats],
    }
    out = {}
    for name in KERNELS:
        fn, args = getattr(k, name), cases[name] * 10
        runs = []
        for _ in range(5):
            probe = SpeedProbe()
            probe.sample()
            start = time.perf_counter_ns()
            for a in args:
                fn(*a)
            elapsed = time.perf_counter_ns() - start
            probe.sample()
            runs.append(elapsed / len(args) / probe.slowness())
        out[name] = statistics.median(runs)
    return out


def startup_ms() -> tuple[float, float]:
    """Median of 5 cold starts each: a bare interpreter, and the time
    ``import spectral_pair`` takes inside a fresh one."""
    env = subprocess_env()
    bare, imports = [], []
    for _ in range(5):
        probe = SpeedProbe()
        probe.sample()
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True,
                       timeout=60)
        bare_s = time.perf_counter() - start
        out = subprocess.run(
            [sys.executable, "-c",
             "import time; t = time.perf_counter(); import spectral_pair; "
             "print(time.perf_counter() - t)"],
            env=env, check=True, capture_output=True, text=True, timeout=60)
        probe.sample()
        bare.append(1e3 * bare_s / probe.slowness())
        imports.append(1e3 * float(out.stdout) / probe.slowness())
    return statistics.median(bare), statistics.median(imports)


def per_layer(name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    import workloads
    from spectral_pair import generation_attempts
    from spectral_pair.verify import PROPERTIES
    from tracer import SPAN_NAMES, Tracer

    workload, _ = set_up(name, seed, 1)
    tracer = Tracer()
    try:
        plain, plain_lat, _, plain_slow = op_loop(workload, seconds / 2)
        workload.tracer = tracer
        tracer.install()
        try:
            traced, traced_lat, _, traced_slow = op_loop(
                workload, seconds / 2, workload.count_ops, tracer)
        finally:
            tracer.uninstall()
            workload.tracer = None
        attempts = [generation_attempts(s) for s in workload.generator_seeds()]
    finally:
        workload.close()

    k = workload.count_ops
    values = {}
    summary = tracer.summary(k, len(traced))
    traced_ms = 1e3 * sum(traced_lat) / len(traced)
    self_ms = {fn: summary[fn]["self_ms_per_op"] / traced_slow
               for fn in SPAN_NAMES}
    for fn in SPAN_NAMES:
        values[f"{fn}.calls_per_op"] = summary[fn]["calls_per_op"]
        if fn in SELF_MS_FUNCTIONS:
            values[f"{fn}.self_ms_per_op"] = self_ms[fn]
        else:
            values[f"{fn}.self_share"] = (summary[fn]["self_ms_per_op"]
                                          / traced_ms)
    values["linalg.Mat3.new_per_op"] = tracer.mat3_new_by_op[k - 1] / k
    values["randgen.attempts_per_pair"] = (
        statistics.mean(attempts) if attempts else 0.0)
    details = getattr(workload, "details", {})
    for prop in PROPERTIES:
        skipped, over = details.get(prop, (0, 0.0))
        values[f"verify.{prop}.skipped_share"] = skipped / k
        values[f"verify.{prop}.residual_over_tol"] = over
    for outcome in workloads.OUTCOMES:
        values[f"outcome.{outcome}"] = traced[:k].count(outcome)
    for kernel, ns in kernel_ns_per_call(seed).items():
        values[f"kernels_py.{kernel}.ns_per_call"] = ns
    values["cli.python_startup_ms"], values["cli.import_ms"] = startup_ms()
    plain_rate = goodput(plain, plain_lat, plain_slow)
    values["trace.overhead_share"] = (
        1.0 - goodput(traced, traced_lat, traced_slow) / plain_rate
        if plain_rate else 0.0)

    WORK.mkdir(exist_ok=True)
    spans_path = WORK / f"trace-{name}.jsonl"
    tracer.write_spans(spans_path)
    info = {"attempted": len(plain) + len(traced),
            "failed": sum(o.startswith("failed.") for o in plain + traced),
            "count_ops": k, "traced_ops": len(traced),
            "traced_op_ms": traced_ms / traced_slow, "self_ms_per_op": self_ms,
            "spans": str(spans_path.relative_to(ROOT))}
    return values, info


UNIT_SUFFIXES = (("calls_per_op", "count"), ("new_per_op", "count"),
                 ("attempts_per_pair", "count"), ("_ms_per_op", "ms"),
                 ("_share", "share"), ("residual_over_tol", "ratio"),
                 ("ns_per_call", "ns"), ("_ms", "ms"))


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.startswith("outcome."):
        return "count"
    return next(unit for suffix, unit in UNIT_SUFFIXES
                if metric.endswith(suffix))


def run_one(args) -> int:
    spectral_pair = import_package()
    # one CPU for this process and the CLI processes it starts, so the speed
    # probes run where the measured work runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        values, info = per_layer(args.workload, args.seed, args.seconds)
    else:
        values, info = end_to_end(args.workload, args.seed, args.seconds)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"python={sys.version.split()[0]} backend={spectral_pair.BACKEND}",
          file=sys.stderr)
    for key, value in info.items():
        if key != "self_ms_per_op":
            print(f"#   {key}: {value}", file=sys.stderr)
    for key, value in values.items():
        print(f"{key:<52} {value:>14.6g} {unit_of(key)}", file=sys.stderr)
    for fn, ms in info.get("self_ms_per_op", {}).items():
        if fn in SELF_MS_FUNCTIONS:
            continue
        print(f"{fn + '.self_ms_per_op':<52} {ms:>14.6g} ms (report only)",
              file=sys.stderr)
    failed = info["failed"]
    result = {"correct": failed == 0, "attempted": info["attempted"],
              "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)}
                          for k, v in values.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced and traced, one subprocess at a time."""
    rows = []
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            sys.stderr.write(proc.stderr)
            result = json.loads(proc.stdout.splitlines()[-1])
            rows.append((name, trace, result))
    print(f"\n{'workload':<16} {'run':<6} {'metric':<52} {'value':>14}  unit"
          "\n(per-layer metrics that read 0 are left out)")
    for name, trace, result in rows:
        run = "traced" if trace else "e2e"
        print(f"{name:<16} {run:<6} {'correct (attempted / failed)':<52} "
              f"{str(result['correct']):>14}  "
              f"({result['attempted']} / {result['failed']})")
        for metric, m in result["metrics"].items():
            if m["value"]:
                print(f"{name:<16} {run:<6} {metric:<52} {m['value']:>14.6g}"
                      f"  {m['unit']}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
