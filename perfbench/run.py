"""pptgeo benchmark: run one workload, timed (--trace 0) or traced (--trace 1).

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 30 --trace 0

Run from any directory; the program is imported from ``src/`` next to this
directory.  Each workload is a closed loop driven by one caller in one
process: the next op starts when the previous one has finished.  Inputs are
generated from --seed; every op's verdict is checked (see workloads.py).

Timed runs report the end-to-end metrics; traced runs wrap pptgeo's public
functions (tracer.py) and report the per-layer metrics (layers.py).  Human
readable lines come first; the last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics.  Exits 2 without a result
when the pptgeo sources are missing.
"""
from __future__ import annotations

import os

# One BLAS thread, set before NumPy loads; child processes inherit it.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("paper_grid", "certify_search", "cli_cold")
SETUP_PROBES = 7        # fresh interpreters per run; setup_s is their median
CLI_PROBES = 5          # fresh interpreters per traced run for cli.interpreter_ms / cli.import_ms
FAILURES_SHOWN = 5
SEGMENTS = 5            # latency percentiles are medians over this many segments of a run
SEGMENT_OPS = 200       # ... each with at least this many ops (ten beyond p95)

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p95_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: a fresh interpreter that sets up, runs one warm-up op and reports ready.
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def machine() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


class Outcome:
    """Latencies and failures of the ops run so far."""

    def __init__(self):
        self.starts: list[float] = []
        self.latencies: list[float] = []
        self.failed = 0
        self.failures: list[str] = []

    def run(self, op, call=None) -> None:
        """Run one op (through ``call`` when given), time it, then check it
        outside the timed region.  An op that raises or disagrees fails."""
        start = time.perf_counter()
        try:
            out = call(op.kind, op.run) if call else op.run()
            error = None
        except Exception as exc:  # an op failure is counted, never fatal
            error = exc
        self.starts.append(start)
        self.latencies.append(time.perf_counter() - start)
        if error is None:
            try:
                op.check(out)
            except Exception as exc:
                error = exc
        if error is not None:
            self.failed += 1
            if len(self.failures) < FAILURES_SHOWN:
                self.failures.append(f"{op.kind}: {type(error).__name__}: {error}")


def quantile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def segments(values: list) -> list[list]:
    """Up to SEGMENTS consecutive, equal runs of at least SEGMENT_OPS values;
    one segment when there are fewer than 2 * SEGMENT_OPS."""
    k = max(1, min(SEGMENTS, len(values) // SEGMENT_OPS))
    size = len(values) // k
    return [values[i * size:(i + 1) * size] for i in range(k)]


def segmented_quantile(values: list[float], pct: int) -> float:
    """The median over segments of each segment's pct-th percentile, so that
    one burst of machine noise inside a run moves the figure less."""
    return statistics.median(quantile(seg, pct) for seg in segments(values))


def setup_seconds(args, calib) -> tuple[float, float]:
    """Median time from starting a fresh interpreter to the end of its first
    (warm-up) op: interpreter start, imports, input generation, one op.
    Returns the (raw, calibrated) medians; each probe is calibrated by
    samples taken just before and just after it."""
    raw, scaled = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0"]
    for _ in range(SETUP_PROBES):
        for _ in range(3):
            calib.sample()
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            end = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        if code != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe exited {code}")
        for _ in range(3):
            calib.sample()
        raw.append(end - start)
        scaled.append((end - start) / calib.slowdown(start, end))
    return statistics.median(raw), statistics.median(scaled)


def cli_probes() -> tuple[float, float]:
    """Median wall time of ``python -c pass`` and median time of a fresh
    ``import pptgeo.cli``, both in ms."""
    from workloads import cli_env

    env = cli_env(ROOT)
    code = "import time; t = time.perf_counter(); import pptgeo.cli; print(time.perf_counter() - t)"
    interp, imp = [], []
    for _ in range(CLI_PROBES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        interp.append(time.perf_counter() - start)
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                             capture_output=True, text=True)
        imp.append(float(out.stdout))
    return statistics.median(interp) * 1e3, statistics.median(imp) * 1e3


def cli_layer(args, outcome: Outcome) -> dict:
    """cli.command_ms and serialize.self_ms, from one traced in-process pass
    over the cli_cold commands for this seed, so that every traced run
    measures the CLI and serialization layers whatever its workload."""
    import workloads
    from layers import span_metrics
    from tracer import Tracer

    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        ops = [workloads.in_process(op) for op in workloads.cli_cold_ops(args.seed, Path(tmp), ROOT)]
        tracer.install()
        try:
            for op in ops:
                outcome.run(op, tracer.run_op)
        finally:
            tracer.uninstall()
    cli = span_metrics(tracer.spans, len(ops))
    return {name: cli[name] for name in ("cli.command_ms", "serialize.self_ms")}


def timed_run(args, ops, outcome: Outcome) -> dict:
    """Closed loop over the op list until --seconds have passed.  Times are
    calibrated for machine speed (calibrate.py); raw figures are printed."""
    from calibrate import Calibration

    calib = Calibration()
    i = 0
    start = time.perf_counter()
    deadline = start + args.seconds
    while time.perf_counter() < deadline:
        calib.maybe_sample()
        outcome.run(ops[i % len(ops)])
        i += 1
    wall = time.perf_counter() - start
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    calib.sample()
    raw = outcome.latencies
    slowdowns = [calib.slowdown(t, t + x) for t, x in zip(outcome.starts, raw)]
    lat = [x / f for x, f in zip(raw, slowdowns)]
    p50, p95 = segmented_quantile(lat, 50), segmented_quantile(lat, 95)
    setup_raw, setup = setup_seconds(args, calib)
    print(f"# {len(lat)} ops in {wall:.2f} s ({len(ops)} distinct); p50 and p95 are medians over "
          f"{len(segments(lat))} segments of {len(segments(lat)[0])} ops; {sum(x > p95 for x in lat)} samples above p95")
    print(f"# raw: ops_per_s {len(raw) / wall:.6g}, op_p50_ms {quantile(raw, 50) * 1e3:.6g}, "
          f"op_p95_ms {quantile(raw, 95) * 1e3:.6g}, setup_s {setup_raw:.6g}; "
          f"machine slowdown median {statistics.median(slowdowns):.4g} "
          f"(range {min(slowdowns):.4g}-{max(slowdowns):.4g}, {len(calib.times)} calibrations)")
    return {
        "ops_per_s": len(lat) / sum(lat),
        "op_p50_ms": p50 * 1e3,
        "op_p95_ms": p95 * 1e3,
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb,
    }


def traced_run(args, ops, outcome: Outcome, info: dict) -> dict:
    """Whole passes over the op list, each op run once untraced and once
    traced, back to back and in alternating order, so that the tracing
    overhead is measured on the same ops at nearly the same machine speed.
    Passes repeat while another fits in --seconds (at least one).  Only whole
    passes are traced, so per-op counts repeat exactly for a given seed."""
    from layers import span_metrics
    from tracer import Tracer

    tracer = Tracer()
    plain_s = traced_s = 0.0
    rounds = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            for traced in (False, True) if (i + rounds) % 2 == 0 else (True, False):
                if traced:
                    tracer.install()
                    try:
                        outcome.run(op, tracer.run_op)
                    finally:
                        tracer.uninstall()
                    traced_s += outcome.latencies[-1]
                else:
                    outcome.run(op)
                    plain_s += outcome.latencies[-1]
        rounds += 1
        t1 = time.perf_counter()
        if t1 - start + (t1 - t0) > args.seconds:
            break
    n_ops = rounds * len(ops)
    metrics = span_metrics(tracer.spans, n_ops)
    metrics.update(cli_layer(args, outcome))
    metrics["cli.interpreter_ms"], metrics["cli.import_ms"] = cli_probes()
    metrics["trace.untraced_ops_per_s"] = n_ops / plain_s
    metrics["trace.traced_ops_per_s"] = n_ops / traced_s
    metrics["trace.overhead_pct"] = (traced_s / plain_s - 1.0) * 100.0
    print(f"# {rounds} passes of {len(ops)} ops, each op untraced and traced; {len(tracer.spans)} spans")
    if tracer.absent:
        print(f"# absent (not in this pptgeo): {', '.join(tracer.absent)}")
    t_base = tracer.spans[0][1] if tracer.spans else 0.0
    dump = {
        "workload": args.workload, "seed": args.seed, "machine": info, "absent": tracer.absent,
        "span_fields": ["name", "start_s", "end_s", "parent", "op", "eigh_calls", "svd_calls", "found"],
        "spans": [[s[0], s[1] - t_base, s[2] - t_base, *s[3:]] for s in tracer.spans],
        "metrics": metrics,
    }
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(dump))
    print(f"# spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pptgeo" / "__init__.py").is_file():
        print(f"error: pptgeo sources not found in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:
        ops = workloads.WORKLOADS[args.workload](args.seed, Path(tmp), ROOT)
        if args.trace and args.workload == "cli_cold":
            ops = [workloads.in_process(op) for op in ops]
        warm = Outcome()
        warm.run(ops[0])
        if args.setup_probe:
            if warm.failed:
                print(warm.failures[0], file=sys.stderr)
                return 1
            print("ready", flush=True)
            return 0
        info = machine()
        print(f"# machine: {json.dumps(info)}")
        print(f"# workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
        outcome = Outcome()
        if args.trace:
            from layers import METRICS as names

            values = traced_run(args, ops, outcome, info)
        else:
            values = timed_run(args, ops, outcome)
            names = END_TO_END
    attempted = len(outcome.latencies)
    print(f"# error_rate {outcome.failed}/{attempted} = {outcome.failed / attempted:.4g}")
    for failure in outcome.failures:
        print(f"# failed: {failure}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in names}
    for name, m in metrics.items():
        print(f"# {name:45s} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
