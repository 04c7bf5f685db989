"""Benchmark of the mellin_deconv package.

    python3 perfbench/run.py --workload serve_estimate --seed 1 --seconds 50 --trace 0

Runs one workload (see workloads.py) in this process for ``--seconds``,
checks every output against the golden values in ``golden/``, and prints
readable lines followed, as the last line, by one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones in BENCHMARK.json; with ``--trace 1`` the
run spends half its time untraced and then replays the same operations
with every module boundary traced, and reports the per-layer metrics.

Exit codes: 0 when every output matched, 1 when some did not (the JSON
still prints), 2 when the package sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import common

#: end-to-end metrics printed with --trace 0, in BENCHMARK.json order
END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)
#: the names the prediction table gives the generic metrics on each workload
ALIASES = {
    "serve_estimate": {
        "latency_p50_ms": "estimate_p50_ms",
        "latency_p90_ms": "estimate_p90_ms",
        "throughput_per_s": "estimates_per_s",
    },
    "mc_table": {
        "latency_p50_ms": "mise_call_p50_ms",
        "latency_p90_ms": "mise_call_p90_ms",
        "throughput_per_s": "mc_reps_per_s",
    },
    "oracle_sweep": {
        "latency_p50_ms": "oracle_call_p50_ms",
        "latency_p90_ms": "oracle_call_p90_ms",
        "throughput_per_s": "oracle_reps_per_s",
    },
}
#: cold starts per run; set-up time is their median
SETUP_REPEATS = 3
#: operations scheduled per run; a run that gets through them starts over
SCHEDULE_LEN = 4096
#: allowed gap between an operation's summed span self times and its wall time
SELF_SUM_TOL_S, SELF_SUM_TOL_SHARE = 1e-3, 0.01


@dataclass
class Record:
    op: object
    t0: float
    t1: float
    raw: object  # program output, or the exception it raised

    @property
    def latency(self) -> float:
        return self.t1 - self.t0


def parse_args(argv, names):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=names)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--golden", default=None, help="directory of golden files (default: perfbench/golden)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    import mellin_deconv as md
    import mellin_deconv.cli  # noqa: F401  (the mise workload drives the CLI)

    return md


def drive(wl, md, ops, deadline=None, tracer=None) -> list:
    """Closed loop, one client: run ``ops`` in order until the deadline."""
    records = []
    for i, op in enumerate(ops):
        t0 = time.perf_counter()
        try:
            raw = tracer.run_op(i, wl.run, md, op) if tracer else wl.run(md, op)
        except Exception as exc:  # a failed operation is counted, not fatal
            raw = exc
        t1 = time.perf_counter()
        records.append(Record(op, t0, t1, raw))
        if deadline is not None and t1 >= deadline:
            break
    return records


def check(wl, golden, op, raw) -> list:
    if isinstance(raw, Exception):
        return ["".join(traceback.format_exception_only(type(raw), raw)).strip()]
    want = golden.get(op.key)
    if want is None:
        return ["no golden value"]
    return wl.compare(wl.fingerprint(raw), want)


def setup_probe(wl, seed, golden) -> dict:
    """Child-process body: import the package and run one cold operation."""
    op = wl.cold_op(seed)
    wl.prepare([op])
    t0 = time.perf_counter()
    md = import_package()
    raw = wl.run(md, op)
    setup = time.perf_counter() - t0
    return {"setup_s": setup, "errors": check(wl, golden, op, raw)}


def measure_setup(args) -> tuple:
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--setup-probe"]
    if args.golden:
        cmd += ["--golden", args.golden]
    times, errors = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=common.ROOT)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            errors.append(f"exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
            continue
        times.append(result["setup_s"])
        if result["errors"]:
            errors.append("; ".join(result["errors"]))
    return times, errors


def latency_metrics(records) -> dict:
    lat = [r.latency for r in records]
    elapsed = records[-1].t1 - records[0].t0
    return {
        "latency_p50_ms": 1e3 * statistics.median(lat),
        "latency_p90_ms": 1e3 * statistics.quantiles(lat, n=10)[8] if len(lat) > 1 else 1e3 * lat[0],
        "throughput_per_s": sum(r.op.work for r in records) / elapsed,
    }


def report(lines, correct, attempted, failed, metrics) -> int:
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    try:
        common.bootstrap()
    except common.MissingPackageError as exc:
        print(f"perfbench: {exc}; run from the root of a checkout", file=sys.stderr)
        return 2
    import workloads

    args = parse_args(argv, tuple(workloads.WORKLOADS))
    wl = workloads.WORKLOADS[args.workload](common.WORKDIR)
    golden = wl.load_golden(Path(args.golden) if args.golden else workloads.GOLDEN_DIR)
    if args.setup_probe:
        print(json.dumps(setup_probe(wl, args.seed, golden)))
        return 0

    env = common.environment()
    setup_times, setup_errors = measure_setup(args) if not args.trace else ([], [])

    warm = wl.cold_op(args.seed)
    ops = wl.schedule(args.seed, SCHEDULE_LEN)
    wl.prepare([warm, *ops])
    md = import_package()
    warmup = drive(wl, md, [warm])
    budget = args.seconds / 2 if args.trace else args.seconds
    timed = drive(wl, md, itertools.cycle(ops), deadline=time.perf_counter() + budget)
    outcomes = wl.probes(md)
    replay, tracer = [], None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        replay = drive(wl, md, [r.op for r in timed], tracer=tracer)

    failures = [f"set-up probe: {e}" for e in setup_errors]
    failed = len(setup_errors)
    for r in warmup + timed + replay:
        errs = check(wl, golden, r.op, r.raw)
        failed += bool(errs)
        failures.extend(f"{r.op.key}: {e}" for e in errs)
    failed += sum(o is not None for o in outcomes)
    failures.extend(o for o in outcomes if o is not None)
    attempted = len(warmup) + len(timed) + len(replay) + len(outcomes)
    attempted += 0 if args.trace else SETUP_REPEATS

    lines = [f"# env {json.dumps(env)}"]
    lines.append(
        f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}: "
        f"{len(timed)} timed operations"
    )
    if not args.trace:
        metrics = latency_metrics(timed)
        # 0 only when every probe failed, which already fails the run
        metrics["setup_s"] = statistics.median(setup_times) if setup_times else 0.0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        alias = ALIASES[args.workload]
        beyond = sum(r.latency * 1e3 > metrics["latency_p90_ms"] for r in timed)
        notes = {
            "latency_p50_ms": f"n={len(timed)}",
            "latency_p90_ms": f"n={len(timed)}, {beyond} beyond",
            "setup_s": f"median of {len(setup_times)} cold starts: "
            + ", ".join(f"{t:.3f}" for t in setup_times),
        }
        for name, unit in END_TO_END:
            shown = alias.get(name, name)
            lines.append(f"  {shown:<22} {metrics[name]:>12.4f} {unit:<4} {notes.get(name, '')}")
        lines.append(f"  {'error_rate':<22} {failed / attempted:>12.4f} ratio {failed}/{attempted} operations")
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    else:
        wall = sum(r.latency for r in replay)
        plain = sum(r.latency for r in timed)
        sums = tracer.op_self_sums()
        gaps = [abs(sums[i] - r.latency) for i, r in enumerate(replay)]
        for i, (r, gap) in enumerate(zip(replay, gaps)):
            if gap > max(SELF_SUM_TOL_S, SELF_SUM_TOL_SHARE * r.latency):
                failed += 1
                failures.append(f"op {i}: span self times miss its wall time by {gap * 1e3:.3f} ms")
        out = tracer.per_layer(len(replay), wall)
        out["trace.overhead_pct"] = {"value": 100.0 * (wall - plain) / plain, "unit": "%"}
        out["trace.self_sum_gap_ms"] = {"value": 1e3 * max(gaps), "unit": "ms"}
        out["trace.spans_per_op"] = {"value": len(tracer.spans) / len(replay), "unit": "count/op"}
        spans_path = common.WORKDIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.dump(spans_path)
        lines.append(f"# {len(replay)} traced operations, {len(tracer.spans)} spans -> {spans_path}")
        for name, entry in out.items():
            lines.append(f"  {name:<36} {entry['value']:>14.6g} {entry['unit']}")
    for message in failures[:20]:
        print(f"GOLDEN CHECK FAILED: {message}", file=sys.stderr)
    return report(lines, not failures, attempted, failed, out)


if __name__ == "__main__":
    sys.exit(main())
