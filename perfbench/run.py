#!/usr/bin/env python3
"""The zfgan benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds the `zfgan` binary and the harness in `perfbench/harness` from
source (into `$CARGO_TARGET_DIR`, default `.bench_build`), runs the workload
as a closed loop (one operation at a time, one process at a time), checks
every output, and prints as its last stdout line one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
metrics are the end-to-end metrics of BENCHMARK.json, measured with tracing
off; with `--trace 1` they are its per-layer metrics, from a separate traced
run that also writes its spans as Chrome-trace JSON under `.bench_work/`.

See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SWEEPS = ["fig15", "fig16", "fig17", "fig18", "fig19"]

# Fresh processes a timed train or executor run is split across. Host speed
# and memory-layout luck differ from process to process; pooling several
# processes' operations keeps one unlucky process from moving the median,
# and each process's set-up is one `setup_s` sample.
PROCESSES = 3
# Fresh processes per layer-probe sample on dse-sweeps.
SAMPLES = 5
# Fresh set-up processes on dse-sweeps. Its set-up is short (about 70 ms),
# so single samples swing with host noise; the median of many holds still.
DSE_SETUPS = 15
# No child may outlive this: a whole run must end within 180 s.
CHILD_TIMEOUT_S = 150
# The per-layer metric families each workload measures. A workload that
# never enters a layer reports 0 for it: no time spent, no work done.
OWNS = {
    "train-dcgan": ("workloads.", "nn.", "tensor."),
    "sim-exec": ("dataflow.exec.",),
    "dse-sweeps": ("dse.", "store.", "dataflow.tune_ms", "dataflow.schedule_ms"),
}
COUNTER = re.compile(r"^\s+dse_(cache_hits|cache_misses|published)_total\{namespace=\"\w+\"\}\s+(\d+)")


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def spawn(argv, capture=True):
    """Runs one child to completion from the repository root.

    Returns (exit code, wall seconds, peak RSS in KiB, stdout). The child is
    reaped with wait4, which reports its own peak RSS; a watchdog kills it
    if it outlives CHILD_TIMEOUT_S.
    """
    env = dict(os.environ)
    # A user's DSE cache must not turn the cold sweeps warm.
    env.pop("ZFGAN_DSE_CACHE", None)
    t0 = time.perf_counter()
    p = subprocess.Popen(
        [str(a) for a in argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
    )
    watchdog = threading.Timer(CHILD_TIMEOUT_S, p.kill)
    watchdog.start()
    try:
        out = p.stdout.read() if capture else b""
        _, status, usage = os.wait4(p.pid, 0)
    except BaseException:
        # Interrupted (SIGTERM, Ctrl-C): leave no child behind.
        p.kill()
        p.wait()
        raise
    finally:
        watchdog.cancel()
        if p.stdout:
            p.stdout.close()
    elapsed = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, elapsed, usage.ru_maxrss, out.decode(errors="replace")


def harness_json(harness, args):
    """Runs one harness subcommand and parses its last stdout line."""
    code, elapsed, rss_kib, out = spawn([harness, *args])
    if code != 0:
        raise BenchError(f"harness {args[0]} exited with {code}")
    report = json.loads(out.strip().splitlines()[-1])
    report["rss_kib"] = rss_kib
    report["elapsed_s"] = elapsed
    return report


def build():
    """Builds `zfgan` and the harness; returns their paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for manifest, extra in [(ROOT / "Cargo.toml", ["--bin", "zfgan"]), (HERE / "harness" / "Cargo.toml", [])]:
        if not manifest.is_file():
            raise BenchError(f"{manifest} is missing; run from a full checkout")
        cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest), *extra]
        # Build output goes to stderr: stdout's last line is the result.
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError(f"cargo build of {manifest} failed")
    return target / "release" / "zfgan", target / "release" / "zfgan-perfbench"


def git_sha():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return os.environ.get("ZFGAN_GIT_SHA", "unknown")


def tail(values):
    """The highest percentile with at least ten samples beyond it (the
    11th-slowest operation), never below the median; returns (value,
    percentile)."""
    s = sorted(values)
    n = len(s)
    # n // 2 is the upper middle, so the tail is never below the median.
    i = max(n - 11, n // 2)
    return s[i], 100.0 * (i + 1) / n


def timed_metrics(ops_ms, window_s, setup_samples, rss_kib):
    value, pct = tail(ops_ms)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(ops_ms),
        "op_tail_ms": value,
        "ops_per_s": len(ops_ms) / window_s,
        "peak_rss_mb": rss_kib / 1024.0,
    }
    return metrics, pct


def write_trace(path, workload, spans, meta):
    """Writes spans as Chrome-trace JSON (complete events, microsecond
    timestamps), which Perfetto and chrome://tracing load directly.

    Each span is `[name, op, parent index or -1, start ns, end ns]`, as the
    harness reports them."""
    events = [{"name": "process_name", "ph": "M", "pid": 1, "tid": 1, "args": {"name": f"perfbench {workload}"}}]
    for i, (name, op, parent, start, end) in enumerate(spans):
        events.append({"name": name, "cat": "perfbench", "ph": "X", "pid": 1, "tid": 1,
                       "ts": start / 1e3, "dur": (end - start) / 1e3,
                       "args": {"id": i, "parent": parent, "op": op}})
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms", "metadata": meta}))
    log(f"  spans written to {path}")


# --------------------------------------------------------------------------
# train-dcgan, sim-exec: the harness runs the closed loop.


def run_harness_workload(workload, harness, a, work):
    if workload == "train-dcgan":
        # The forced-packed reference digest, in a process of its own so the
        # timed processes' peak RSS holds one trainer only.
        ref = harness_json(harness, ["train-ref", "--seed", a.seed])
        base = ["train", "--reference-digest", ref["digest"]]
    else:
        base = ["exec"]
    common = ["--seed", a.seed, "--corrupt-reference"] if a.corrupt_reference else ["--seed", a.seed]
    if a.max_ops is not None:
        common += ["--max-ops", a.max_ops]
    if a.trace:
        r = harness_json(harness, [*base, *common, "--seconds", a.seconds, "--trace", 1])
        return traced_result(workload, r, work.parent / f"trace-{workload}-seed{a.seed}.json")
    reports = [
        harness_json(harness, [*base, *common, "--seconds", a.seconds / PROCESSES, "--trace", 0])
        for _ in range(PROCESSES)
    ]
    ops = [x for r in reports for x in r["ops_ms"]]
    failed = sum(len(r["failed"]) for r in reports)
    metrics, pct = timed_metrics(
        ops,
        sum(r["window_s"] for r in reports),
        [r["setup_s"] for r in reports],
        max(r["rss_kib"] for r in reports),
    )
    info = reports[0]["info"]
    if workload.startswith("train-"):
        extra = f", images_per_s {info['batch'] * metrics['ops_per_s']:.4g}"
    else:
        busy_s = sum(ops) / 1e3
        extra = f", sim_macs_per_s {info['macs_per_pass'] * len(ops) / busy_s:.4g}"
    log(
        f"{workload}: {PROCESSES} processes, op_tail_ms is p{pct:.0f} of {len(ops)} ops, "
        f"fail_ratio {failed}/{len(ops)}{extra}"
    )
    return len(ops), failed, metrics, reports[0]["meta"]


def traced_result(workload, r, trace_path):
    layers = r["layers"]
    info = r["info"]
    overhead = info["traced_p50_ms"] - info["untraced_p50_ms"]
    rows = sorted(layers.items())
    log(f"{workload} per-layer (traced, mean per op over {info['traced_ops']:.0f} ops):")
    time_rows = [(k, v) for k, v in rows if k.endswith("_ms")]
    for k, v in time_rows:
        log(f"  {k:<36} {v:10.4f}")
    for k, v in rows:
        if not k.endswith("_ms"):
            log(f"  {k:<36} {v:10.0f}")
    if workload.startswith("train-"):
        total = sum(v for _, v in time_rows)
        log(f"  {'sum of rows (incl. unattributed)':<36} {total:10.4f}  traced iteration {info['traced_iteration_ms']:.4f}")
    log(
        f"  tracing overhead: traced op_p50_ms {info['traced_p50_ms']:.4f} - untraced "
        f"{info['untraced_p50_ms']:.4f} = {overhead:.4f} ms"
    )
    write_trace(trace_path, workload, r["spans"], r["meta"])
    return len(r["ops_ms"]), len(r["failed"]), layers, r["meta"]


# --------------------------------------------------------------------------
# dse-sweeps: every sweep invocation is its own `zfgan dse` child.


def dse_round(zfgan, work, ref, r, telemetry=False):
    """One round: a fresh cache dir, the five sweeps cold, then warm.

    Returns ({"cold"|"warm": {sweep: ms}}, peak child RSS in KiB, whether
    every stream matched `ref`, the `--telemetry` cache counters per half,
    the cache dir)."""
    cache = work / f"cache-{r}"
    times = {"cold": {}, "warm": {}}
    counters = {half: {"cache_hits": 0, "cache_misses": 0, "published": 0} for half in times}
    rss, ok = 0, True
    for half in ("cold", "warm"):
        for s in SWEEPS:
            out = work / f"{half}-{s}.jsonl"
            out.unlink(missing_ok=True)
            argv = [zfgan, "dse", s, "--cache", cache, "--out", out]
            if telemetry:
                argv.append("--telemetry")
            code, elapsed, child_rss, stdout = spawn(argv, capture=telemetry)
            times[half][s] = elapsed * 1e3
            rss = max(rss, child_rss)
            ok = ok and code == 0 and out.is_file() and out.read_bytes() == ref[s]
            for line in stdout.splitlines():
                m = COUNTER.match(line)
                if m:
                    counters[half][m.group(1)] += int(m.group(2))
    return times, rss, ok, counters, cache


def run_dse(zfgan, harness, a, work):
    # Set-up: the uncached reference streams, computed by the library in a
    # fresh process; each sample is one full set-up, timed by the process
    # itself from its start.
    setups, ref = [], None
    for i in range(DSE_SETUPS):
        r = harness_json(harness, ["dse-ref", "--out", work / f"ref{i}"])
        setups.append(r["setup_s"])
        meta = r["meta"]
        streams = {s: (work / f"ref{i}" / f"{s}.jsonl").read_bytes() for s in SWEEPS}
        if ref is None:
            ref = streams
        elif streams != ref:
            raise BenchError("uncached reference streams differ between processes")
    if a.corrupt_reference:
        ref["fig15"] = ref["fig15"][:-1] + bytes([ref["fig15"][-1] ^ 1])

    def loop(seconds, telemetry, spans=None):
        rounds = []
        start = time.perf_counter()
        while (a.max_ops is None or len(rounds) < a.max_ops) and (
            not rounds or time.perf_counter() - start < seconds
        ):
            t0 = time.perf_counter()
            times, rss, ok, counters, cache = dse_round(zfgan, work, ref, len(rounds), telemetry)
            rounds.append((times, rss, ok, counters))
            if spans is not None:
                spans.append((len(rounds) - 1, t0, times))
            if telemetry and len(rounds) == 1:
                keep = work / "cold-cache"
                shutil.copytree(cache, keep)
            shutil.rmtree(cache)
        return rounds, time.perf_counter() - start

    op_ms = lambda rd: sum(rd[0]["cold"].values()) + sum(rd[0]["warm"].values())

    if not a.trace:
        rounds, window = loop(a.seconds, False)
        ops = [op_ms(rd) for rd in rounds]
        failed = sum(1 for rd in rounds if not rd[2])
        metrics, pct = timed_metrics(ops, window, setups, max(rd[1] for rd in rounds))
        cold = statistics.median(sum(rd[0]["cold"].values()) for rd in rounds)
        warm = statistics.median(sum(rd[0]["warm"].values()) for rd in rounds)
        log(
            f"dse-sweeps: op_tail_ms is p{pct:.0f} of {len(ops)} rounds, "
            f"fail_ratio {failed}/{len(ops)}, dse_cold_ms {cold:.4g}, dse_warm_ms {warm:.4g}"
        )
        return len(ops), failed, metrics, meta

    untraced, _ = loop(a.seconds / 2, False)
    spans = []
    traced, _ = loop(a.seconds / 2, True, spans)
    rounds = untraced + traced
    # The counts are deterministic; every traced round must repeat them.
    counts = traced[0][3]
    failed = sum(1 for rd in untraced if not rd[2]) + sum(1 for rd in traced if not rd[2] or rd[3] != counts)
    layers = {}
    for half in ("cold", "warm"):
        for s in SWEEPS:
            layers[f"dse.{s}.{half}_ms"] = statistics.fmean(rd[0][half][s] for rd in traced)
        layers[f"dse.{half}_ms"] = statistics.median(sum(rd[0][half].values()) for rd in traced)
    for k, name in [("cache_hits", "hits"), ("cache_misses", "misses"), ("published", "published")]:
        layers[f"dse.{name}"] = counts["cold"][k] + counts["warm"][k]
    for half in ("cold", "warm"):
        c = counts[half]
        layers[f"dse.{half}_hit_ratio"] = c["cache_hits"] / (c["cache_hits"] + c["cache_misses"])
    for s in SWEEPS:
        samples = [harness_json(harness, ["dse-compute", "--sweep", s])["layers"][f"dse.{s}.compute_ms"] for _ in range(SAMPLES)]
        layers[f"dse.{s}.compute_ms"] = statistics.median(samples)
    probes = [
        harness_json(harness, ["dse-layers", "--cache", work / "cold-cache", "--scratch", work / f"store{i}"])["layers"]
        for i in range(SAMPLES)
    ]
    for k in probes[0]:
        layers[k] = statistics.median(p[k] for p in probes)


    untraced_p50 = statistics.median(op_ms(rd) for rd in untraced)
    traced_p50 = statistics.median(op_ms(rd) for rd in traced)
    log(f"dse-sweeps per-layer (traced rounds: {len(traced)}):")
    for k, v in sorted(layers.items()):
        log(f"  {k:<36} {v:10.4f}")
    log(
        f"  tracing overhead: traced op_p50_ms {traced_p50:.4f} - untraced {untraced_p50:.4f} "
        f"= {traced_p50 - untraced_p50:.4f} ms"
    )
    write_trace(work.parent / f"trace-dse-sweeps-seed{a.seed}.json", "dse-sweeps", dse_spans(spans), meta)
    return len(rounds), failed, layers, meta


def dse_spans(rounds):
    """The traced rounds as spans: one per round, a child per `zfgan dse`
    invocation, laid end to end from the round's start."""
    spans = []
    origin = rounds[0][1] if rounds else 0.0
    for op, t0, times in rounds:
        start = (t0 - origin) * 1e9
        total = sum(times["cold"].values()) + sum(times["warm"].values())
        root = len(spans)
        spans.append(["dse.round", op, -1, start, start + total * 1e6])
        for half in ("cold", "warm"):
            for s in SWEEPS:
                end = start + times[half][s] * 1e6
                spans.append([f"dse.{s}.{half}", op, root, start, end])
                start = end
    return spans


# --------------------------------------------------------------------------


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--max-ops", type=int, default=None, help="cap on timed operations (smoke tests)")
    p.add_argument(
        "--corrupt-reference",
        action="store_true",
        help="check outputs against a deliberately wrong reference (smoke test's negative control)",
    )
    a = p.parse_args()

    if os.environ.get("ZFGAN_FORCE_KERNEL", "").strip():
        raise BenchError("ZFGAN_FORCE_KERNEL is set; it changes the program being measured, so no timed numbers")

    zfgan, harness = build()
    work = ROOT / ".bench_work" / f"{a.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if a.workload == "dse-sweeps":
            attempted, failed, metrics, meta = run_dse(zfgan, harness, a, work)
        else:
            attempted, failed, metrics, meta = run_harness_workload(a.workload, harness, a, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = dict(meta, git_sha=git_sha(), nproc=os.cpu_count(), workload=a.workload, seed=a.seed)
    print("perfbench meta: " + json.dumps(meta, sort_keys=True))

    listed = spec["per_layer"] if a.trace else spec["end_to_end"]
    names = {m["name"] for m in listed}
    unknown = set(metrics) - names
    if unknown:
        raise BenchError(f"metrics not in BENCHMARK.json: {sorted(unknown)}")
    if a.trace:
        owned = [n for n in names if n.startswith(OWNS[a.workload])]
        missing = [n for n in owned if n not in metrics]
        if missing:
            raise BenchError(f"{a.workload} did not measure {sorted(missing)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in listed},
    }
    for name, m in result["metrics"].items():
        print(f"  {name:<36} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        main()
    except BenchError as e:
        log(f"perfbench: {e}")
        sys.exit(1)
