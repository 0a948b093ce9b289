"""csrf-lab benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload matrix_tcp --seed 1 --seconds 45 --trace 0

Run from the root of a checkout: csrflab is imported from ./src.  With
--trace 0 the run measures the end-to-end metrics; with --trace 1 it
measures the workload untraced, then traced, and reports the per-layer
metrics and the tracing overhead (serve_mixed also runs with one client
for the scaling ratio).  Every line but the last is for people: the
environment, each metric with its unit, sample count and the end-to-end
or workload it should move.  The last line is one JSON object with the
keys correct, attempted, failed and metrics.  Details, and the spans of
a traced run, go to .perfbench/ in the checkout.

All traffic stays on the loopback interface.  Exit status: 0 when every
checked operation came out right, 1 when one did not, 2 when the run
could not start (no csrflab source here, bad arguments).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from time import perf_counter

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
OUTPUT = ROOT / ".perfbench"
PROBE = Path(__file__).with_name("setup_probe.py")
WORKLOAD_NAMES = ("matrix_tcp", "matrix_inproc", "serve_mixed")
TAIL_PERCENTILES = (99, 95, 90, 75, 50)
# An untraced run measures in WINDOWS timed windows of equal length and
# sets the program up SETUP_PER_WINDOW times, in fresh processes, before
# each.  Set-up time differs by up to half from one process to the next,
# and a slow spell of the host lasts seconds, so the set-ups are spread
# over the whole run rather than made back to back.
WINDOWS = 10
SETUP_PER_WINDOW = 2
# Spans are held in memory until the run ends; past this many, a traced
# matrix run stops early (an in-process matrix makes about 1,700).
MAX_SPANS = 200_000
END_TO_END_UNITS = {
    "setup_s": "s",
    "round_s": "s",
    "cell_p50_ms": "ms",
    "cell_tail_ms": "ms",
    "req_per_s": "1/s",
    "read_p50_ms": "ms",
    "read_tail_ms": "ms",
    "write_p50_ms": "ms",
    "write_tail_ms": "ms",
    "peak_rss_mib": "MiB",
}
# Printed with the others but left out of BENCHMARK.json and the result
# line: on a shared 2-vCPU host these tails spread 20-40% between runs
# of the same code, more than any bound a regression check can use.
PRINTED_ONLY = ("cell_tail_ms", "read_tail_ms", "write_tail_ms")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _read_text(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return None


def _commit() -> str | None:
    """HEAD of the checkout's own repository, if it is one."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def environment() -> dict:
    """Recorded with every result.  tcp_tw_reuse is read, never set: every
    request opens its own loopback connection, so TIME_WAIT reuse matters."""
    sources = sorted((SOURCE / "csrflab").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _commit(),
        "source_sha256": digest.hexdigest(),
        "network": "loopback only (127.0.0.1); no traffic leaves the host",
        "tcp_tw_reuse": _read_text(Path("/proc/sys/net/ipv4/tcp_tw_reuse")),
    }


def tail(samples: list[float]) -> tuple[int, float]:
    """(percentile, value), nearest rank: the highest of TAIL_PERCENTILES
    with at least ten samples beyond it, else the last of them."""
    ordered = sorted(samples)
    n = len(ordered)
    for percentile in TAIL_PERCENTILES:
        if n * (100 - percentile) / 100 >= 10:
            break
    rank = min(n - 1, max(0, -(-n * percentile // 100) - 1))
    return percentile, ordered[rank] if ordered else 0.0


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(setup_times, windows, peak_rss_mib) -> dict[str, tuple[float, str]]:
    """Metric -> (value, note with the sample counts).

    Latencies and the request rate are taken in each timed window and
    the median over windows is reported, so a burst of load from outside
    the benchmark moves a window or two, not the result."""
    rounds = [duration for window in windows for duration in window.rounds]
    wall_s = sum(window.wall_s for window in windows)
    requests = [sum(map(len, window.requests.values())) for window in windows]
    values: dict[str, tuple[float, str]] = {
        "setup_s": (_median(setup_times),
                    f"median of {len(setup_times)} set-ups in fresh processes, "
                    f"{SETUP_PER_WINDOW} before each window"),
        "round_s": (_median(rounds), f"median of {len(rounds)} rounds"),
        "req_per_s": (
            _median([count / window.wall_s for count, window in zip(requests, windows)]),
            f"median over {len(windows)} windows, {sum(requests)} requests in {wall_s:.2f} s",
        ),
    }
    for name in ("cell", "read", "write"):
        samples = [window.cells if name == "cell" else window.requests[name] for window in windows]
        samples = [window for window in samples if window]
        count = sum(map(len, samples))
        tails = [tail(window) for window in samples]
        percentiles = sorted({percentile for percentile, _ in tails})
        values[f"{name}_p50_ms"] = (
            _median([_median(window) for window in samples]) * 1e3,
            f"median over {len(samples)} windows, n={count}",
        )
        values[f"{name}_tail_ms"] = (
            _median([value for _, value in tails]) * 1e3,
            f"p{'/'.join(map(str, percentiles))} per window, median over "
            f"{len(samples)} windows, n={count}",
        )
    values["peak_rss_mib"] = (peak_rss_mib, "ru_maxrss after set-up and warm-up, before the timed windows")
    return {name: values[name] for name in END_TO_END_UNITS}


def _probe_setup(name: str, seed: int) -> float:
    """One set-up of the program in a fresh process (setup_probe.py),
    timed from process start, less the import of the benchmark's own
    modules."""
    start = time.monotonic()
    probe = subprocess.run([sys.executable, str(PROBE), name, str(seed)],
                           capture_output=True, text=True, timeout=60, check=True)
    done, own_imports = map(float, probe.stdout.split()[-2:])
    return done - start - own_imports


def _windowed(workload, timers, name, seed, seconds, checks):
    """WINDOWS timed windows, each after SETUP_PER_WINDOW set-up probes.
    Returns (windows, set-up times)."""
    windows, setup_times = [], []
    for _ in range(WINDOWS):
        setup_times += [_probe_setup(name, seed) for _ in range(SETUP_PER_WINDOW)]
        windows.append(workload.measure(timers, seconds / WINDOWS))
        checks.extend(windows[-1])
    return windows, setup_times


def _serve_phase(lab, timers, workload, seconds, checks, tracer=None) -> workloads.Phase:
    """One serving phase on a fresh server, checked afterwards."""
    workload.setup(lab)
    try:
        workload.warm_up(checks)
        if tracer is not None:
            tracer.install()
        try:
            phase = workload.measure(timers, seconds)
        finally:
            if tracer is not None:
                tracer.restore()
        checks.extend(phase)
        workload.verify(checks)
    finally:
        workload.teardown()
    return phase


def _interleaved(workload, timers, tracer, seconds, checks):
    """Untraced and traced matrices in turn, for twice the run time or
    until MAX_SPANS spans are held, so that both halves see the same load
    on the machine."""
    untraced, traced = workloads.Phase(), workloads.Phase()
    deadline = perf_counter() + 2 * seconds
    while perf_counter() < deadline and len(tracer.spans) < MAX_SPANS:
        untraced.extend(workload.measure(timers, 0))
        tracer.install()
        try:
            traced.extend(workload.measure(timers, 0))
        finally:
            tracer.restore()
    checks.extend(untraced)
    checks.extend(traced)
    return untraced, traced


def run(args):
    """Returns (metric values, a note per metric, checks)."""
    lab = workloads.import_lab()
    workload = workloads.new_workload(args.workload, args.seed)
    workload.setup(lab)
    timers = tracing.Timers(lab)
    tracer = tracing.Tracer(lab)
    checks = workloads.Phase()
    serving = args.workload == "serve_mixed"
    try:
        workload.warm_up(checks)
        # Read after a fixed amount of the program's work and before the
        # timed windows, whose samples grow with the run.
        peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if not args.trace:
            windows, setup_times = _windowed(workload, timers, args.workload, args.seed,
                                             args.seconds, checks)
            workload.verify(checks)
            measured = end_to_end(setup_times, windows, peak_rss_mib)
            return {k: v for k, (v, _) in measured.items()}, {k: n for k, (_, n) in measured.items()}, checks
        if serving:
            untraced = workload.measure(timers, args.seconds)
            checks.extend(untraced)
        else:
            untraced, traced = _interleaved(workload, timers, tracer, args.seconds, checks)
        workload.verify(checks)
        workload.teardown()
        if serving:
            traced = _serve_phase(lab, timers, workloads.new_workload(args.workload, args.seed),
                                  args.seconds, checks, tracer)
            single = _serve_phase(lab, timers, workloads.new_workload(args.workload, args.seed, clients=1),
                                  args.seconds, checks)
    finally:
        workload.teardown()
        timers.restore()

    values = tracing.layer_metrics(tracer, len(traced.cells), traced.wall_s)
    notes = {}
    untraced_round = statistics.median(untraced.rounds)
    traced_round = statistics.median(traced.rounds)
    values["trace.overhead_share"] = traced_round / untraced_round - 1
    notes["trace.overhead_share"] = (
        f"median round {traced_round:.6f} s traced over {untraced_round:.6f} s untraced, "
        f"{len(traced.rounds)} and {len(untraced.rounds)} rounds"
    )
    if serving:
        two = sum(map(len, untraced.requests.values()))
        one = sum(map(len, single.requests.values()))
        values["serve.req_per_s_1client"] = one / single.wall_s
        values["serve.scaling_ratio"] = (two / untraced.wall_s) / values["serve.req_per_s_1client"]
        values["serve.requests_1client"] = one
        values["serve.requests_2client"] = two
        notes["serve.scaling_ratio"] = f"{two} requests at 2 clients, {one} at 1 client"
    OUTPUT.mkdir(exist_ok=True)
    tracer.write(OUTPUT / f"spans-{args.workload}.jsonl")
    notes["span_summary"] = tracing.span_summary(tracer.spans)
    return values, notes, checks


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SOURCE / "csrflab" / "__init__.py").is_file():
        print(f"perfbench: no csrflab source under {SOURCE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCE))
    # The harness writes each cell's attack page to a temporary directory;
    # keep it inside the checkout.
    (OUTPUT / "tmp").mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(OUTPUT / "tmp")
    env = environment()
    print("environment " + json.dumps(env, sort_keys=True))

    values, notes, checks = run(args)

    if args.trace:
        units = {}
        layers = tracing.LAYER_METRICS
        if args.workload == "serve_mixed":
            layers = layers + tracing.SCALING_METRICS
        for name, unit, moves in layers:
            units[name] = unit
            notes[name] = "; ".join(filter(None, (f"should move {moves}", notes.get(name))))
    else:
        units = END_TO_END_UNITS
    for name, unit in units.items():
        print(f"  {name:34} {values[name]:>14.6f} {unit:6} {notes[name]}")
    error_rate = checks.failed / checks.attempted if checks.attempted else 1.0
    print(f"  {'error_rate':34} {error_rate:>14.6f} {'ratio':6} "
          f"{checks.failed} failed of {checks.attempted} checked operations")
    for problem in checks.problems:
        print(f"  problem: {problem}")

    result = {
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items() if name not in PRINTED_ONLY},
    }
    OUTPUT.mkdir(exist_ok=True)
    with open(OUTPUT / f"result-{args.workload}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "environment": env, "result": result,
                   "error_rate": error_rate, "notes": notes}, fh, indent=2)
        fh.write("\n")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
