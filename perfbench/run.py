#!/usr/bin/env python3
"""HeapTherapy+ benchmark driver.

Run from the root of a checkout:

    python3 perfbench/run.py --workload service --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It builds the repository's preload shim, htctl and the benchmark's two
programs into .bench_build/, generates every input from --seed, runs the
workload, checks the outputs, and prints one JSON object as the last line
of standard output. perfbench/README.md defines the workloads and metrics.
"""

import argparse
import fcntl
import json
import math
import os
import random
import shutil
import statistics
import struct
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "perfbench")
LOADGEN = os.path.join(BUILD, "pb_loadgen")
OFFLINE = os.path.join(BUILD, "pb_offline")
SHIM = os.path.join(BUILD, "heaptherapy", "src", "runtime", "libheaptherapy_preload.so")
HTCTL = os.path.join(BUILD, "heaptherapy", "tools", "htctl")

# Each workload fixes its own runtime configuration; nothing is inherited
# from the caller's environment. The quarantine quota is the shim's default
# (src/runtime/allocator_config.hpp), set explicitly.
SHARDS = 4
QUARANTINE_BYTES = 16 << 20
# Spawn-to-ready probes, taken in bursts so that set-up is sampled across
# the run: service and patched probe 24 spawns per arm before and after the
# load generator, spec 4 before each profile and after the last.
SERVICE_PROBE_SPAWNS = 24
SPEC_PROBE_SPAWNS = 4
PROCESS_TIMEOUT_S = 150

# Patch-mask bits, as the patch file spells them.
OVERFLOW, UAF, UNINIT = 1, 2, 4
MASK_NAMES = {OVERFLOW: "OVERFLOW", UAF: "UAF", UNINIT: "UNINIT"}

SPEC_PROFILES = 12

END_TO_END = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("norm_time", "ratio"),
    ("heap_rss_mib", "MiB"),
    ("setup_s", "s"),
]

SPEC_NAMES = ["400.perlbench", "401.bzip2", "403.gcc", "429.mcf", "445.gobmk", "456.hmmer",
              "458.sjeng", "462.libquantum", "464.h264ref", "471.omnetpp", "473.astar",
              "483.xalancbmk"]

# Every per-layer metric is reported on every workload; one that does not
# apply to a workload reads 0.
PER_LAYER = [
    ("runtime.malloc_ns_p50", "ns"), ("runtime.malloc_ns_p99", "ns"),
    ("runtime.free_ns_p50", "ns"), ("runtime.free_ns_p99", "ns"),
    ("native.malloc_ns_p50", "ns"), ("native.free_ns_p50", "ns"),
    ("runtime.realloc_ns_p50", "ns"), ("runtime.calloc_ns_p50", "ns"),
    ("runtime.guard_malloc_ns_p50", "ns"), ("runtime.guard_free_ns_p50", "ns"),
    ("runtime.zero_malloc_ns_p50", "ns"), ("runtime.quarantine_free_ns_p50", "ns"),
    ("runtime.quarantine_mib", "MiB"), ("runtime.quarantine_depth", "count"),
    ("runtime.busy_share", "ratio"), ("workload.self_ns_p50", "ns"),
    ("runtime.init_ms", "ms"),
    ("runtime.calls", "count"), ("runtime.enhanced", "count"),
    ("runtime.guard_pages", "count"), ("runtime.zero_fills", "count"),
    ("runtime.quarantined_frees", "count"), ("runtime.degraded", "count"),
    ("runtime.shard_frees.0", "count"), ("runtime.shard_frees.1", "count"),
    ("runtime.shard_frees.2", "count"), ("runtime.shard_frees.3", "count"),
] + [("spec.%s.norm_time" % name, "ratio") for name in SPEC_NAMES] + [
    ("trace.overhead_pct", "%"), ("error_rate", "ratio"),
]


class BenchError(Exception):
    """A failure that prevents any result: no result line is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- build


def build():
    for need in ("CMakeLists.txt", os.path.join("src", "runtime", "preload.cpp")):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError("no HeapTherapy+ source tree at %s (missing %s)" % (ROOT, need))
    os.makedirs(BUILD_ROOT, exist_ok=True)
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        build_log = os.path.join(BUILD_ROOT, "build.log")
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "-j", "4", "--target", "pb_loadgen",
                      "pb_offline", "heaptherapy_preload", "htctl"])
        with open(build_log, "a") as out:
            for cmd in steps:
                if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                    with open(build_log) as f:
                        sys.stderr.write("".join(f.readlines()[-40:]))
                    raise BenchError("build failed: %s" % " ".join(cmd))


# ---------------------------------------------------------------- processes


def clean_env(extra):
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("HEAPTHERAPY_") and k != "LD_PRELOAD"}
    env.update(extra)
    return env


def parse_json(text, what):
    try:
        return json.loads(text)
    except ValueError:
        raise BenchError("%s printed no JSON result" % what)


def run_json(cmd, env, what, whole=False):
    """Runs one process to completion and returns its JSON result: the last
    line of its output, or the whole output."""
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("%s timed out" % what)
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (what, proc.returncode, proc.stderr.strip()[-2000:]))
    lines = proc.stdout.strip().splitlines() or [""]
    return parse_json(proc.stdout if whole else lines[-1], what)


def spawn_loadgen(args, env, dump_dir, what, shim):
    """Runs pb_loadgen with `shim` preloaded (none when empty); returns its
    JSON and its exit dump's stats (None without a dump)."""
    env = dict(env, LD_PRELOAD=shim) if shim else dict(env)
    try:
        proc = subprocess.Popen([LOADGEN] + args, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
    except OSError as e:
        raise BenchError("%s: %s" % (what, e))
    try:
        out, err = proc.communicate(timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("%s timed out" % what)
    if proc.returncode != 0:
        raise BenchError("%s exited %d: %s" % (what, proc.returncode, err.strip()[-2000:]))
    result = parse_json((out.strip().splitlines() or [""])[-1], what)
    dump = os.path.join(dump_dir, "exit-%d.dump" % proc.pid)
    stats = None
    if os.path.exists(dump):
        stats = run_json([HTCTL, "stats", dump], clean_env({}), "htctl stats", whole=True)
        os.remove(dump)
    return result, stats


def runtime_env(work, patch_file):
    # The flush interval is longer than any run, so the exit flush is the
    # only one, and no event ring is kept.
    return clean_env({
        "HEAPTHERAPY_CONFIG": patch_file,
        "HEAPTHERAPY_SHARDS": str(SHARDS),
        "HEAPTHERAPY_QUARANTINE": str(QUARANTINE_BYTES),
        "HEAPTHERAPY_TELEMETRY": os.path.join(work, "exit-%p.dump"),
        "HEAPTHERAPY_TELEMETRY_EVENTS": "0",
        "HEAPTHERAPY_TELEMETRY_INTERVAL": "36000000",
    })


class Probes:
    """Spawn-to-ready times of fresh protected and native processes, taken
    in bursts spread over a run."""

    def __init__(self):
        self.protected, self.native = [], []

    def burst(self, env, work, shim, spawns):
        probe_env = dict(env, HEAPTHERAPY_TELEMETRY=os.path.join(work, "probe.dump"))
        r = run_json([LOADGEN, "probe", str(spawns), shim], probe_env, "spawn probe")
        self.protected += r["protected_ns"]
        self.native += r["native_ns"]

    def ready_ns(self):
        """The fast-decile spawn-to-ready time of each arm: (protected, native)."""
        return fast(self.protected), fast(self.native)


def fast(values):
    """The 10th percentile. Host contention only ever adds time, so a time
    is taken from the fastest tenth of its samples (as in common.hpp)."""
    return statistics.quantiles(values, n=10)[0] if len(values) > 1 else values[0]


def idle_baseline(env, work, threads, shim):
    """Interceptions and frees of a same-shaped process that issues no call."""
    _, stats = spawn_loadgen(["idle", str(threads)], env, work, "idle baseline", shim)
    if stats is None:
        return None
    c = stats["counters"]
    return {"calls": c["interceptions"], "frees": c["plain_frees"] + c["quarantined_frees"]}


# ---------------------------------------------------------------- inputs

SERVICE_SITES = ["hdr", "body", "body_rare", "resp", "conn", "query", "row"]
# Three clients on the 4-vCPU machine the benchmark was written on: with one
# per vCPU, host interruptions preempted shard-lock holders and p50 latency
# spread three times as much between runs (perfbench/README.md).
SERVICE_CLIENTS = 3
# Each client cycles through this many generated requests, in chunks that
# alternate between the arms.
REQS_PER_CLIENT = 8192
CHUNK = 2048
NGINX, MYSQL = 0, 1
MAX_ROWS = 8
HEADER_BYTES = 1024
REQUEST = struct.Struct("<BBBBI%dH" % MAX_ROWS)


def distinct_ccids(rng, n, avoid=()):
    out = []
    while len(out) < n:
        c = rng.getrandbits(64)
        if c and c not in out and c not in avoid:
            out.append(c)
    return out


def service_request(rng, kind, rare):
    """One request of the repository's §VIII-B2 model
    (src/workload/service_workload.cpp): nginx-like with a 256 + U(4096)
    byte body; mysql-like with a 64 + U(2048) byte query and 1 + U(8) result
    rows of 128 + U(256) bytes."""
    if kind == NGINX:
        return REQUEST.pack(NGINX, rare, 0, 0, 256 + rng.randrange(4096), *[0] * MAX_ROWS)
    rows = [128 + rng.randrange(256) for _ in range(1 + rng.randrange(MAX_ROWS))]
    return REQUEST.pack(MYSQL, 0, len(rows), 0, 64 + rng.randrange(2048),
                        *(rows + [0] * (MAX_ROWS - len(rows))))


def service_inputs(rng, workload, work, empty_patches):
    """Writes the request file and patch file; returns (inputs path, patch path).
    `empty_patches` writes a patch file without patches (the self-test)."""
    patched = workload == "patched"
    clients = 1 if patched else SERVICE_CLIENTS
    ccids = distinct_ccids(rng, len(SERVICE_SITES))
    masks = dict.fromkeys(SERVICE_SITES, 0)
    if patched:
        masks.update(hdr=UAF, body_rare=OVERFLOW, resp=UNINIT)
        patches = [("malloc", ccids[SERVICE_SITES.index(s)], masks[s])
                   for s in ("hdr", "body_rare", "resp")]
    else:
        # Several dozen patches, none on a request context.
        others = distinct_ccids(rng, 48, avoid=ccids)
        patches = [(("malloc", "calloc", "realloc")[i % 3], c, (OVERFLOW, UAF, UNINIT)[i % 3])
                   for i, c in enumerate(others)]
    # Warm-up grows the arenas to their working size and, on `patched`,
    # frees enough headers into the quarantine to fill its quota.
    warmup = QUARANTINE_BYTES * 3 // 2 // HEADER_BYTES if patched else CHUNK
    blob = bytearray(b"PBSV")
    blob += struct.pack("<5I", clients, REQS_PER_CLIENT, warmup, CHUNK, 0)  # 0 pads
    for site, ccid in zip(SERVICE_SITES, ccids):
        blob += struct.pack("<QII", ccid, masks[site], 0)
    for _ in range(clients):
        for _ in range(REQS_PER_CLIENT):
            # `patched` is a single nginx worker; `service` mixes the two
            # servers of §VIII-B2 in equal shares.
            kind = NGINX if patched or rng.random() < 0.5 else MYSQL
            # On `patched`, about one body in eight comes from the
            # OVERFLOW-patched context.
            rare = 1 if patched and rng.random() < 1 / 8 else 0
            blob += service_request(rng, kind, rare)
    inputs = os.path.join(work, "requests.bin")
    with open(inputs, "wb") as f:
        f.write(blob)
    patch_file = os.path.join(work, "patches.cfg")
    with open(patch_file, "w") as f:
        f.write("version 1\n")
        for fn, ccid, mask in [] if empty_patches else patches:
            f.write("patch %s 0x%016x %s\n" % (fn, ccid, MASK_NAMES[mask]))
    return inputs, patch_file


# ---------------------------------------------------------------- gate


def gate(result, stats, base, workload):
    """The correctness gate of one shim process: returns a list of errors,
    each a (count of failed ops, message)."""
    errors = []
    ops = max(1, result.get("ops", 1))
    if result["shim"] != 1:
        errors.append((ops, "the shim was not loaded (no ht_cc_current)"))
    if stats is None or base is None:
        errors.append((ops, "no exit dump from the shim"))
    if result["nulls"]:
        errors.append((result["nulls"], "%d null returns" % result["nulls"]))
    if result["mismatches"]:
        errors.append((result["mismatches"], "%d arm checksum mismatches" % result["mismatches"]))
    if result["checks"] == 0:
        errors.append((ops, "the two arms were never compared"))
    if stats is None or base is None:
        return errors
    c = stats["counters"]
    issued_calls = result["issued_malloc"] + result["issued_calloc"] + result["issued_realloc"]
    issued_frees = result["issued_free"] + result["issued_realloc_moved"]
    checks = [
        ("interceptions", c["interceptions"] - base["calls"], issued_calls),
        ("frees", c["plain_frees"] + c["quarantined_frees"] - base["frees"], issued_frees),
        ("enhanced", c["enhanced"], result["issued_enhanced"]),
        ("guard_pages", c["guard_pages"], result["issued_guard"]),
        ("zero_fills", c["zero_fills"], result["issued_zero"]),
        ("quarantined_frees", c["quarantined_frees"], result["issued_quarantine"]),
    ]
    if workload == "service":
        checks.append(("enhanced on service", c["enhanced"], 0))
    for name, seen, want in checks:
        if seen != want:
            errors.append((abs(seen - want), "%s: shim counted %d, load generator issued %d"
                           % (name, seen, want)))
    # Quarantine-pressure sweeps are the quarantine's normal steady state
    # under a stream of UAF frees, so only the degradation ladder counts.
    degraded = degraded_count(c)
    if degraded:
        errors.append((degraded, "%d degradations or allocation failures" % degraded))
    return errors


def degraded_count(c):
    return (c["failed_guards"] + c["guard_budget_denied"] + c["degraded_to_canary"]
            + c["degraded_to_plain"] + c["alloc_failures"])


def counter_layers(stats_list, base_calls):
    """runtime.* counters summed over the shim processes of one run."""
    out = {"runtime.calls": 0, "runtime.enhanced": 0, "runtime.guard_pages": 0,
           "runtime.zero_fills": 0, "runtime.quarantined_frees": 0, "runtime.degraded": 0,
           "runtime.quarantine_mib": 0.0, "runtime.quarantine_depth": 0}
    for i in range(SHARDS):
        out["runtime.shard_frees.%d" % i] = 0
    for stats in stats_list:
        if stats is None:
            continue
        c = stats["counters"]
        out["runtime.calls"] += c["interceptions"] - base_calls
        out["runtime.enhanced"] += c["enhanced"]
        out["runtime.guard_pages"] += c["guard_pages"]
        out["runtime.zero_fills"] += c["zero_fills"]
        out["runtime.quarantined_frees"] += c["quarantined_frees"]
        out["runtime.degraded"] += degraded_count(c)
        for shard in stats["shards"]:
            out["runtime.quarantine_mib"] += shard["quarantine_bytes"] / float(1 << 20)
            out["runtime.quarantine_depth"] += shard["quarantine_depth"]
            if shard["shard"] < SHARDS:
                out["runtime.shard_frees.%d" % shard["shard"]] += shard["frees"]
    return out


# Per-call latency metrics: (call class of pb_loadgen, statistic).
CALL_METRICS = {
    "runtime.malloc_ns_p50": ("malloc_plain", "p50"),
    "runtime.malloc_ns_p99": ("malloc_plain", "p99"),
    "runtime.free_ns_p50": ("free_plain", "p50"),
    "runtime.free_ns_p99": ("free_plain", "p99"),
    "native.malloc_ns_p50": ("native_malloc", "p50"),
    "native.free_ns_p50": ("native_free", "p50"),
    "runtime.realloc_ns_p50": ("realloc_plain", "p50"),
    "runtime.calloc_ns_p50": ("calloc_plain", "p50"),
    "runtime.guard_malloc_ns_p50": ("malloc_guard", "p50"),
    "runtime.guard_free_ns_p50": ("free_guard", "p50"),
    "runtime.zero_malloc_ns_p50": ("malloc_zero", "p50"),
    "runtime.quarantine_free_ns_p50": ("free_quarantine", "p50"),
}


def call_layers(results):
    """Per-call latencies of traced load-generator phases. With several
    processes (spec), each figure is the median of the per-process values
    weighted by their call counts."""
    out = {}
    for metric, (cls, stat) in CALL_METRICS.items():
        pts = sorted((r["t_%s_%s_ns" % (cls, stat)], r["t_%s_n" % cls]) for r in results
                     if r["t_%s_n" % cls])
        total, seen, out[metric] = sum(n for _, n in pts), 0, 0.0
        for value, n in pts:
            seen += n
            if seen * 2 >= total:
                out[metric] = value
                break
    out["runtime.busy_share"] = (sum(r["t_busy_ns"] for r in results)
                                 / sum(r["t_p_ns"] for r in results))
    out["workload.self_ns_p50"] = statistics.median(r["t_self_p50_ns"] for r in results)
    return out


# ---------------------------------------------------------------- workloads


def run_service(workload, rng, args, work, spans_dir):
    inputs, patch_file = service_inputs(rng, workload, work, args.empty_patches)
    env = runtime_env(work, patch_file)
    probes = Probes()
    probes.burst(env, work, args.shim, SERVICE_PROBE_SPAWNS)
    clients = 1 if workload == "patched" else SERVICE_CLIENTS
    base = idle_baseline(env, work, clients, args.shim)
    spans = os.path.join(spans_dir, "%s.spans.tsv" % workload) if args.trace else "-"
    r, stats = spawn_loadgen(["service", inputs, str(args.seconds), str(args.trace), spans],
                             env, work, "load generator", args.shim)
    probes.burst(env, work, args.shim, SERVICE_PROBE_SPAWNS)
    ready_p, ready_n = probes.ready_ns()
    errors = gate(r, stats, base, workload)
    metrics = {
        "throughput_ops_s": r["throughput"],
        "latency_p50_us": r["lat_p50_ns"] / 1e3,
        "latency_p99_us": r["lat_p99_ns"] / 1e3,
        "norm_time": r["norm_median"],
        "heap_rss_mib": (r["rss_hwm_kib"] - r["rss_base_kib"]) / 1024.0,
        "setup_s": ready_p / 1e9,
    }
    info = {"samples": r["lat_samples"], "windows": r["lat_windows"], "rounds": r["rounds"],
            "clients": clients, "spawns": len(probes.protected)}
    layers = None
    if args.trace:
        layers = call_layers([r])
        layers.update(counter_layers([stats], base["calls"] if base else 0))
        layers["runtime.init_ms"] = (ready_p - ready_n) / 1e6
        layers["trace.overhead_pct"] = overhead_pct(r["throughput"], r["t_throughput"])
        info["traced_samples"] = r["t_lat_samples"]
    attempted = r["ops"] + r.get("t_ops", 0)
    return metrics, layers, attempted, errors, info


def geomean(values):
    values = [v for v in values if v > 0]
    return math.exp(sum(math.log(v) for v in values) / len(values)) if values else 0.0


def run_spec(rng, args, work, spans_dir):
    trace_seed = rng.getrandbits(63)
    traces = os.path.join(work, "traces")
    os.makedirs(traces)
    gen = subprocess.run([OFFLINE, "tracegen", str(trace_seed), traces], capture_output=True,
                         text=True, timeout=PROCESS_TIMEOUT_S)
    if gen.returncode != 0:
        raise BenchError("trace generation failed: %s" % gen.stderr.strip())
    with open(os.path.join(traces, "names.tsv")) as f:
        names = [line.split("\t")[1].strip() for line in f if line.strip()]
    if names != SPEC_NAMES:
        raise BenchError("unexpected SPEC profiles: %s" % names)
    env0 = runtime_env(work, os.path.join(traces, "0.cfg"))
    base = idle_baseline(env0, work, 0, args.shim)
    per_profile = args.seconds / SPEC_PROFILES
    results, all_stats, errors = [], [], []
    probes = Probes()
    for i, name in enumerate(names):
        env = runtime_env(work, os.path.join(traces, "%d.cfg" % i))
        probes.burst(env, work, args.shim, SPEC_PROBE_SPAWNS)
        spans = os.path.join(spans_dir, "spec.%s.spans.tsv" % name) if args.trace else "-"
        r, stats = spawn_loadgen(["spec", os.path.join(traces, "%d.trace" % i),
                                  "%.6f" % per_profile, str(args.trace), spans],
                                 env, work, "replay of %s" % name, args.shim)
        r["ops"] = r["ops"] * r["calls_per_replay"]
        errors += [(n, "%s: %s" % (name, msg)) for n, msg in gate(r, stats, base, "spec")]
        results.append(r)
        all_stats.append(stats)
    probes.burst(env, work, args.shim, SPEC_PROBE_SPAWNS)
    ready_p, ready_n = probes.ready_ns()
    calls = sum(r["calls_per_replay"] for r in results)
    replay_s = sum(r["p_ns_fast"] for r in results) / 1e9
    metrics = {
        "throughput_ops_s": calls / replay_s,
        "latency_p50_us": geomean([r["lat_p50_ns"] for r in results]) / 1e3,
        "latency_p99_us": geomean([r["lat_p99_ns"] for r in results]) / 1e3,
        "norm_time": geomean([r["norm_median"] for r in results]),
        "heap_rss_mib": statistics.mean(
            (r["rss_hwm_kib"] - r["rss_base_kib"]) / 1024.0 for r in results),
        "setup_s": ready_p / 1e9,
    }
    info = {"samples": sum(r["lat_samples"] for r in results),
            "replays": sum(r["ops"] // max(1, r["calls_per_replay"]) for r in results),
            "spawns": len(probes.protected)}
    layers = None
    if args.trace:
        layers = call_layers(results)
        layers.update(counter_layers(all_stats, base["calls"] if base else 0))
        layers["runtime.init_ms"] = (ready_p - ready_n) / 1e6
        for name, r in zip(names, results):
            layers["spec.%s.norm_time" % name] = r["norm_median"]
        traced = calls / (sum(r["t_p_ns_fast"] for r in results) / 1e9)
        layers["trace.overhead_pct"] = overhead_pct(metrics["throughput_ops_s"], traced)
    attempted = sum(r["ops"] for r in results)
    return metrics, layers, attempted, errors, info


def overhead_pct(untraced, traced):
    return (untraced - traced) / untraced * 100.0 if untraced else 0.0


def run_workload(workload, seed, seconds, trace, shim=SHIM, empty_patches=False):
    """Runs one workload; returns the result object. The self-test runs it
    without the shim (`shim` empty) or with `empty_patches`."""
    args = argparse.Namespace(seconds=seconds, trace=trace, shim=shim,
                              empty_patches=empty_patches)
    rng = random.Random("%s/%d" % (workload, seed))
    work = os.path.join(BUILD_ROOT, "runs", "%s-%d-%d" % (workload, seed, os.getpid()))
    spans_dir = os.path.join(BUILD_ROOT, "trace")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(spans_dir, exist_ok=True)
    try:
        if workload in ("service", "patched"):
            out = run_service(workload, rng, args, work, spans_dir)
        else:
            out = run_spec(rng, args, work, spans_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, layers, attempted, errors, info = out
    attempted = max(1, int(attempted))
    failed = min(attempted, sum(n for n, _ in errors))
    if errors and failed == 0:
        failed = 1
    for _, msg in errors:
        log("perfbench: %s: %s" % (workload, msg))
    if trace:
        layers["error_rate"] = failed / attempted
        units = PER_LAYER
        values = {name: layers.get(name, 0.0) for name, _ in units}
    else:
        units = END_TO_END
        values = metrics
    info.update(seed=seed, workload=workload, error_rate=failed / attempted)
    print("perfbench " + " ".join("%s=%s" % kv for kv in sorted(info.items())))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units},
    }


# ---------------------------------------------------------------- self-test


def self_test():
    """The gate must fail a run whose patches are not applied or whose shim
    is missing: `patched` with an empty patch file, and without the shim."""
    build()
    ok = True
    for name, kwargs in (("empty patch file", {"empty_patches": True}),
                         ("no shim preloaded", {"shim": ""})):
        result = run_workload("patched", 1, 1, 0, **kwargs)
        caught = not result["correct"] and result["failed"] > 0
        ok &= caught
        print("self-test %-18s %s" % (name, "reports errors" if caught else "NOT CAUGHT"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=("service", "patched", "spec"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            parser.error("--workload is required")
        if not 0 < args.seconds <= 120:
            parser.error("--seconds must be in (0, 120]")
        build()
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
