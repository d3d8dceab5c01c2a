#!/usr/bin/env python3
"""Repository benchmark: open-loop wire serving at two request sizes plus
resident and out-of-core condensation (perfbench/README.md).

Run from the root of a source checkout:

    python3 perfbench/run.py --rate serve-small=12000 --rate serve-large=300 \\
        --workload serve-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

The first call builds mcond_cli and the load generator into .bench_build/.
The last stdout line is one JSON object: correct, attempted, failed and the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), by the
names and units BENCHMARK.json lists. Progress and the run context go to
stderr.
"""

import argparse
import hashlib
import json
import math
import os
import re
import shutil
import signal
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_BUILD = os.path.join(ROOT, ".bench_build")
CMAKE_DIR = os.path.join(BENCH_BUILD, "cmake")
CLI = os.path.join(CMAKE_DIR, "repo", "tools", "mcond_cli")
DRIVER = os.path.join(CMAKE_DIR, "perfbench_driver")

WORKLOADS = ("serve-small", "serve-large", "condense", "condense-ooc")

# Server shape per serving workload: tenants x replicas, plus the server's IO
# thread and the generator's one thread must fit in nproc.
SERVE_SHAPE = {"serve-small": {"tenants": 2, "replicas": 1},
               "serve-large": {"tenants": 1, "replicas": 2}}
GENERATOR_THREADS = 1
SERVER_POOL_THREADS = 1   # replicas run their kernels inline anyway
CONDENSE_POOL_THREADS = 2
# Serving artifacts condense on one thread: the run needs the artifacts, not
# their speed (their wall time is only the condense.wall_s diagnostic).
PREPARE_POOL_THREADS = 1
# Deep enough that a host stall of a second at the measured rate queues
# instead of being rejected; rejections still count as failures.
SERVER_QUEUE = 16384
# The served SGCs are trained from a fixed seed, as the driver's reference
# models are (kFixedSeed in driver.cc); the run's seed orders the requests.
SERVED_MODEL_SEED = 1
SETUP_SPAWNS = 11         # cold server deploys per run; setup_s is the median

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg):
    log("perfbench: " + msg)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        fail("BENCHMARK.json not found at the checkout root")
    with open(path) as f:
        return json.load(f)


def build():
    """Configures once and builds the two targets; a no-op when current."""
    for need in ("CMakeLists.txt", "src/CMakeLists.txt", "tools/mcond_cli.cc"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            fail("not a source checkout (missing %s); nothing to build" % need)
    if not os.path.isfile(os.path.join(CMAKE_DIR, "CMakeCache.txt")):
        run_checked(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    run_checked(["cmake", "--build", CMAKE_DIR, "--target", "mcond_cli",
                 "perfbench_driver", "-j", str(os.cpu_count() or 1)])


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()[:16]


def process_cpu_s(pid):
    """On-CPU seconds of every live thread of `pid`, from the nanosecond
    run-time counters in /proc/<pid>/task/*/schedstat. The kernel leaves
    hypervisor steal out of them."""
    total = 0
    task_dir = "/proc/%d/task" % pid
    for tid in os.listdir(task_dir):
        try:
            with open(os.path.join(task_dir, tid, "schedstat")) as f:
                total += int(f.read().split()[0])
        except (OSError, ValueError, IndexError):
            pass  # the thread ended meanwhile
    return total * 1e-9


def run_checked(cmd):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
        fail("command failed: " + " ".join(cmd))


def driver(args, threads):
    """Runs one driver subcommand and returns its JSON result line."""
    cmd = [DRIVER] + args + ["--threads", str(threads)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-4000:])
        fail("driver failed: " + " ".join(cmd))
    return json.loads(lines[-1])


class Server:
    """One `mcond_cli serve --listen 0` process; always stopped and reaped.
    `setup_cpu_s` is the server's on-CPU time up to its `serving` line."""

    def __init__(self, registry, replicas, extra=()):
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--listen", "0", "--registry", registry,
             "--serve_concurrency", str(replicas), "--threads",
             str(SERVER_POOL_THREADS), "--seed", str(SERVED_MODEL_SEED),
             "--serve_queue", str(SERVER_QUEUE), "--log_level", "warn"] +
            list(extra),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        self.port = None
        for line in self.proc.stdout:
            m = re.match(r"serving (\d+) tenant\(s\) \[.*\] on [\d.]+:(\d+)",
                         line)
            if m:
                self.setup_cpu_s = process_cpu_s(self.proc.pid)
                self.setup_wall_s = time.perf_counter() - self.t0
                self.port = int(m.group(2))
                break
        if self.port is None:
            self.stop()
            fail("server did not come up")

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()


def median(values):
    s = sorted(values)
    return s[(len(s) - 1) // 2] if s else 0.0


def hist_mean(metrics, name):
    h = metrics.get("histograms", {}).get(name)
    return h["sum"] / h["count"] if h and h.get("count") else 0.0


def hist_sum(metrics, name):
    h = metrics.get("histograms", {}).get(name)
    return h["sum"] if h else 0.0


def counter(metrics, name):
    return metrics.get("counters", {}).get(name, 0)


def trace_self_us(path, name):
    """Mean self time of `name` spans in a Chrome trace written by the
    server: duration minus directly nested spans on the same thread."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    events.sort(key=lambda e: (e["tid"], e["ts"], -e["dur"]))
    total, count, stack = 0.0, 0, []
    child = [0.0] * len(events)
    for i, e in enumerate(events):
        while stack and not (events[stack[-1]]["tid"] == e["tid"] and
                             e["ts"] + e["dur"] <= events[stack[-1]]["ts"] +
                             events[stack[-1]]["dur"]):
            stack.pop()
        if stack:
            child[stack[-1]] += e["dur"]
        stack.append(i)
    for i, e in enumerate(events):
        if e["name"] == name:
            total += e["dur"] - child[i]
            count += 1
    return total / count if count else 0.0


def serve_workload(name, args, run_dir):
    shape = SERVE_SHAPE[name]
    rate = args.rates.get(name)
    if rate is None:
        fail("--rate %s=<req/s> is required" % name)
    busy = 1 + shape["tenants"] * shape["replicas"]
    nproc = os.cpu_count() or 1
    if busy + GENERATOR_THREADS > nproc:
        fail("refusing: %d server busy threads + %d generator thread(s) > "
             "nproc %d" % (busy, GENERATOR_THREADS, nproc))
    toy = ["--toy", "1"] if args.toy else []
    common = ["--workload", name, "--seed", str(args.seed), "--dir", run_dir]
    prep = driver(["prepare"] + common + toy +
                  ["--trace", str(args.trace)], PREPARE_POOL_THREADS)
    registry = os.path.join(run_dir, "registry")
    context = {"nproc": nproc, "server_busy_threads": busy,
               "generator_threads": GENERATOR_THREADS,
               "server_pool_threads": SERVER_POOL_THREADS,
               "prepare_pool_threads": PREPARE_POOL_THREADS,
               "tenants": shape["tenants"], "replicas": shape["replicas"],
               "connections": shape["tenants"], "rate_rps": rate,
               "simd": prep.get("ctx.simd"),
               "artifact_mapping_nnz": prep["artifact.mapping_nnz"],
               "artifact_synthetic_nodes": prep["artifact.synthetic_nodes"]}

    def load(server, seconds, trace):
        return driver(["load"] + common + toy +
                      ["--port", str(server.port), "--server_pid",
                       str(server.proc.pid), "--rate", str(rate),
                       "--seconds", str(seconds), "--trace", str(int(trace)),
                       "--replicas", str(shape["replicas"])],
                      GENERATOR_THREADS)

    if not args.trace:
        spawns = SETUP_SPAWNS if not args.toy else 2
        setup_cpu, setup_wall = [], []
        for i in range(spawns):
            server = Server(registry, shape["replicas"])
            setup_cpu.append(server.setup_cpu_s)
            setup_wall.append(server.setup_wall_s)
            if i + 1 < spawns:
                server.stop()
        try:
            res = load(server, args.seconds, False)
        finally:
            server.stop()
        metrics = {"setup_s": median(setup_cpu),
                   "cpu_us_per_unit": res["cpu_us_per_unit"],
                   "peak_rss_mb": res["peak_rss_mb"], "acc": res["acc"]}
        ops = res["ops"] + prep["ops"]
        failed = res["ops_failed"] + prep["ops_failed"]
        context.update({"setup_spawns": spawns,
                        "setup_wall_s": median(setup_wall),
                        "cpu_windows": res["cpu_windows"],
                        "served_acc": res["served_acc"],
                        "latency_p50_us": res["latency.p50_us"],
                        "latency_p90_us": res["latency.p90_us"],
                        "latency_p99_us": res["latency.p99_us"],
                        "gen_late_p99_us": res["gen.late_p99_us"],
                        "busiest_server_thread": res["server.busiest_thread_ratio"]})
        valid = generator_kept_up(res, rate)
        return metrics, ops, failed, valid, context

    # Traced run: half the time untraced, half on a second server with
    # --trace_out/--metrics_out plus the generator's own spans and replays.
    server = Server(registry, shape["replicas"])
    try:
        plain = load(server, args.seconds / 2, False)
    finally:
        server.stop()
    trace_json = os.path.join(run_dir, "server_trace.json")
    metrics_json = os.path.join(run_dir, "server_metrics.json")
    server = Server(registry, shape["replicas"],
                    ["--trace_out", trace_json, "--metrics_out", metrics_json])
    try:
        res = load(server, args.seconds / 2, True)
    finally:
        server.stop()
    with open(metrics_json) as f:
        sm = json.load(f)
    tenant_lat = [hist_mean(sm, "mcond.net.tenant.t%d.latency_us" % t)
                  for t in range(shape["tenants"])]
    requests = max(1, counter(sm, "mcond.net.requests"))
    jobs = counter(sm, "mcond.pool.jobs")
    # The driver already names its own numbers (the artifact condensation's
    # spans, the replays, the generator); the rest come from the server.
    # Latency comes from the untraced half.
    layers = dict(prep)
    layers.update(res)
    layers.update({k: plain[k] for k in ("latency.p50_us", "latency.p90_us",
                                         "latency.p99_us")})
    layers.update({
        "net.wire_us": res["rtt_mean_us"] - sum(tenant_lat) / len(tenant_lat),
        "net.bytes_per_req": (counter(sm, "mcond.net.bytes_rx") +
                              counter(sm, "mcond.net.bytes_tx")) / requests,
        "net.rejected": counter(sm, "mcond.net.rejected"),
        "net.invalid": counter(sm, "mcond.net.invalid"),
        "server.queue_wait_us": hist_mean(sm, "mcond.server.queue_wait_us"),
        "server.service_us": hist_mean(sm, "mcond.server.service_us"),
        "server.drain_ratio": counter(sm, "mcond.server.micro_batches") /
        max(1, counter(sm, "mcond.server.requests")),
        "session.convert_us": hist_mean(sm, "mcond.serve.session_convert_us"),
        "session.compose_us": hist_mean(sm, "mcond.serve.session_compose_us"),
        "session.forward_us": hist_mean(sm, "mcond.serve.session_forward_us"),
        "session.other_us": trace_self_us(trace_json, "serve.session"),
        "session.fallbacks": counter(sm, "mcond.serve.session_fallbacks"),
        "pool.jobs": jobs,
        "pool.tasks_per_job": counter(sm, "mcond.pool.tasks") / jobs if jobs else 0,
        "kernel.matmul_ms": hist_sum(sm, "mcond.kernel.matmul_us") / 1e3,
        "kernel.matmul_ta_ms": hist_sum(sm, "mcond.kernel.matmul_ta_us") / 1e3,
        "kernel.matmul_tb_ms": hist_sum(sm, "mcond.kernel.matmul_tb_us") / 1e3,
        "kernel.spmm_ms": hist_sum(sm, "mcond.kernel.spmm_us") / 1e3,
        # The server's CPU per request, traced against untraced.
        "trace.overhead_pct": 100.0 * (res["cpu_us_per_unit"] -
                                       plain["cpu_us_per_unit"]) /
        plain["cpu_us_per_unit"],
    })
    ops = res["ops"] + plain["ops"] + prep["ops"]
    failed = res["ops_failed"] + plain["ops_failed"] + prep["ops_failed"]
    valid = generator_kept_up(res, rate) and generator_kept_up(plain, rate)
    return layers, ops, failed, valid, context


def generator_kept_up(res, rate):
    """An open-loop run is valid only if the generator held its schedule: it
    sent at 98% of the rate or better, and its p99 send lateness stayed under
    100 ms. Shorter hiccups are jitter, reported as gen.late_*."""
    kept = (res["gen.achieved_rps"] >= 0.98 * rate and
            res["gen.late_p99_us"] < 1e5)
    if not kept:
        log("perfbench: generator fell behind (%.0f of %.0f req/s, late p99 "
            "%.0f us); run invalid" % (res["gen.achieved_rps"], rate,
                                        res["gen.late_p99_us"]))
    return kept


def condense_workload(args, run_dir):
    res = driver(["condense", "--seed", str(args.seed), "--seconds",
                  str(args.seconds), "--dir", run_dir, "--trace",
                  str(args.trace)] + (["--toy", "1"] if args.toy else []),
                 CONDENSE_POOL_THREADS)
    context = {"nproc": os.cpu_count(), "pool_threads": res["ctx.pool_threads"],
               "simd": res["ctx.simd"], "unit": "one RunMCond call"}
    return finish_condense(res, args, context)


def ooc_workload(args, run_dir):
    toy = ["--toy", "1"] if args.toy else []
    # The store is built once per build of the driver (which links the
    # generator and the store format): it is keyed by the driver's digest,
    # and stores of other builds are removed.
    kind = "ooc_store-toy-" if args.toy else "ooc_store-full-"
    store = os.path.join(BENCH_BUILD, kind + file_digest(DRIVER))
    for name in os.listdir(BENCH_BUILD):
        if name.startswith(kind) and os.path.join(BENCH_BUILD, name) != store:
            shutil.rmtree(os.path.join(BENCH_BUILD, name), ignore_errors=True)
    if not os.path.isfile(os.path.join(store, "done")):
        shutil.rmtree(store, ignore_errors=True)
        built = driver(["ooc-build", "--dir", store] + toy,
                       CONDENSE_POOL_THREADS)
        with open(os.path.join(store, "done"), "w") as f:
            json.dump(built, f)
    # The reference digest comes from a resident RunMCond on the same graph
    # by the commit under test, in its own process (its resident graph must
    # not count in the measured process's RSS), outside the timed phase.
    want = driver(["ooc-ref", "--dir", store, "--seed", str(args.seed)] + toy,
                  CONDENSE_POOL_THREADS)["digest"]
    res = driver(["ooc", "--dir", store, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", str(args.trace),
                  "--ref_digest", want,
                  "--out", os.path.join(run_dir, "ooc_condensed.bin")] + toy,
                 CONDENSE_POOL_THREADS)
    context = {"nproc": os.cpu_count(), "pool_threads": res["ctx.pool_threads"],
               "simd": res["ctx.simd"], "digest": res["digest"],
               "reference_digest": want, "unit": "one RunMCondSharded call"}
    return finish_condense(res, args, context)


def finish_condense(res, args, context):
    context["calls"] = res["calls"]
    context["condense_wall_s"] = res["condense.wall_s"]
    if "eq11_acc" in res:
        context["eq11_acc"] = res["eq11_acc"]
    # The driver reports every number by its metric name.
    return res, res["ops"], res["ops_failed"], True, context


def run_workload(args, spec):
    run_dir = os.path.join(BENCH_BUILD, "runs", args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    if args.workload in SERVE_SHAPE:
        values, ops, failed, valid, context = serve_workload(
            args.workload, args, run_dir)
    elif args.workload == "condense":
        values, ops, failed, valid, context = condense_workload(args, run_dir)
    else:
        values, ops, failed, valid, context = ooc_workload(args, run_dir)
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in listed:
        # Layers a workload does not exercise read 0 (README.md lists them);
        # every workload measures every end-to-end metric.
        if not args.trace and m["name"] not in values:
            fail("%s did not measure %s" % (args.workload, m["name"]))
        v = float(values.get(m["name"], 0.0))
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    correct = bool(valid and failed == 0 and finite)
    log("perfbench: %s seed %d: ops=%d ops_failed=%d valid=%s context=%s" %
        (args.workload, args.seed, ops, failed, valid, json.dumps(context)))
    return {"correct": correct, "attempted": int(ops), "failed": int(failed),
            "metrics": metrics}


def validate(result, listed):
    """Self-test checks on one result object; returns a list of problems."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(result))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("ops (attempted) missing or < 1")
    if not isinstance(result.get("failed"), int):
        problems.append("ops_failed (failed) missing")
    if result.get("correct") is not True:
        problems.append("outputs not correct")
    names = {m["name"]: m["unit"] for m in listed}
    if set(result["metrics"]) != set(names):
        problems.append("metric set differs from BENCHMARK.json")
    for name, m in result["metrics"].items():
        if not NAME_RE.match(name):
            problems.append("bad metric name %r" % name)
        if not UNIT_RE.match(m["unit"]) or m["unit"] != names.get(name):
            problems.append("bad unit for %s" % name)
    return problems


def self_test(spec):
    """All four workloads at toy size, untraced and traced."""
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(
                workload=workload, seed=1, seconds=1.0, trace=trace, toy=True,
                rates={"serve-small": 200.0, "serve-large": 200.0})
            result = run_workload(args, spec)
            problems = validate(result,
                                spec["per_layer" if trace else "end_to_end"])
            log("self-test %-12s trace=%d: %s" %
                (workload, trace, "; ".join(problems) or "ok"))
            ok = ok and not problems
    print(json.dumps({"self_test": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rate", action="append", default=[],
                        metavar="WORKLOAD=RPS",
                        help="open-loop rate of a serving workload")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    args.toy = False
    args.rates = {}
    for item in args.rate:
        name, _, value = item.partition("=")
        if name not in SERVE_SHAPE:
            fail("--rate names an unknown serving workload: " + item)
        args.rates[name] = float(value)
    build()
    spec = load_spec()
    if args.self_test:
        return self_test(spec)
    if args.workload is None:
        fail("--workload is required")
    print(json.dumps(run_workload(args, spec)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
