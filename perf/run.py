#!/usr/bin/env python3
"""The repo benchmark: floor-decision latency, saturation and a per-layer
budget for dmps_floord, plus the in-process presentation session.

One command builds perf/ (whose CMakeLists.txt builds the product's own
`dmps` library and `dmps_floord` with the product's flags), runs the
workloads in perf/workloads.json against the real daemon, checks that the
outputs are correct and prints every metric as `workload metric value unit`:

    python3 perf/run.py --seed 1             every workload, end-to-end metrics
    python3 perf/run.py --trace 1 --seed 1   adds the traced twin: per-layer
                                             metrics, Chrome traces, overhead
    python3 perf/run.py --selftest           unit tests, then every workload
                                             briefly through every gate
    python3 perf/run.py --workload light --seed 3 --seconds 10 --trace 0

With --workload the last line of stdout is one JSON object,
{"correct", "attempted", "failed", "metrics"}: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1. Without it, the results go
to perf/out/results.json (the input of perf/compare.py).

Exit status: 0 when every correctness gate held, 1 when one failed, 2 when
the benchmark could not run (no product tree to build, a build or run
failure). Metric names, units and bounds live in BENCHMARK.json; workload
constants in perf/workloads.json; perf/README.md explains both.
"""

import argparse
import glob
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

PERF = Path(__file__).resolve().parent
ROOT = PERF.parent
OUT = PERF / "out"

DROP_COUNTERS = ("wire.udp.drop_malformed", "wire.udp.drop_version",
                 "wire.udp.drop_unknown_kind", "wire.udp.drop_unhandled")
# A load thread busier than this may itself be the bottleneck.
GEN_BUSY_LIMIT = 0.9


class BenchError(Exception):
    """The benchmark could not run (as opposed to: it ran and a gate failed)."""


def load_json(path):
    try:
        return json.loads(Path(path).read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}") from e


# ------------------------------------------------------------------- build


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configure once, then (re)build the three targets; returns their paths."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no product source tree at {ROOT} to build")
    bdir = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    try:
        if not any((bdir / f).is_file() for f in ("Makefile", "build.ninja")):
            subprocess.run(["cmake", "-S", str(PERF), "-B", str(bdir),
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", str(bdir), "--target", "dmps_floord",
                        "dmps_perf", "perf_tests", "-j", jobs],
                       stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        raise BenchError(f"build failed: {e}") from e
    return {"perf": bdir / "dmps_perf", "floord": bdir / "dmps" / "dmps_floord",
            "tests": bdir / "perf_tests"}


def compiler(bdir):
    for path in glob.glob(str(bdir / "CMakeFiles" / "*" / "CMakeCXXCompiler.cmake")):
        fields = {}
        for line in Path(path).read_text().splitlines():
            for key in ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"):
                if line.startswith(f"set({key} "):
                    fields[key] = line.split('"')[1]
        if fields:
            return " ".join(fields.get(k, "?") for k in
                            ("CMAKE_CXX_COMPILER_ID", "CMAKE_CXX_COMPILER_VERSION"))
    return "unknown"


def machine(bdir):
    return {"machine": platform.machine(), "cpus": os.cpu_count(),
            "loadavg": [round(x, 2) for x in os.getloadavg()],
            "compiler": compiler(bdir), "kernel": platform.release()}


# --------------------------------------------------------------------- runs


def invoke(cmd, timeout):
    try:
        proc = subprocess.run([str(c) for c in cmd], capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as e:
        raise BenchError(f"{Path(cmd[0]).name} {cmd[1]} timed out") from e
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{Path(cmd[0]).name} {cmd[1]} failed "
                         f"({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def phases(config, seconds):
    """(sat_s, open_s, warmup_s): --seconds split between the two phases."""
    sat = seconds * config["sat_share"]
    return sat, seconds - sat, min(config["warmup_s"], seconds / 4)


def run_wire(bins, spec, seed, sat_s, open_s, warmup_s, setups, twin=None):
    """One dmps_perf drive run; `twin` is the Chrome trace path for a traced run."""
    cmd = [bins["perf"], "drive",
           "--daemon", bins["perf"] if twin else bins["floord"],
           "--agents", spec["agents"], "--hosts", spec["hosts"], "--groups", spec["groups"],
           "--policy", spec["policy"], "--capacity", spec["capacity"],
           "--qos-lo", spec["qos"][0], "--qos-hi", spec["qos"][1],
           "--hold-mean-ms", spec["hold_mean_ms"], "--churn", spec["churn"],
           "--rate", spec["rate"], "--sat-s", sat_s, "--open-s", open_s,
           "--warmup-s", warmup_s, "--setups", setups, "--seed", seed]
    if twin:
        cmd += ["--twin", 1, "--trace-out", twin]
    return invoke(cmd, timeout=120 + 4 * (sat_s + open_s))


def run_session(bins, spec, seed, seconds):
    return invoke([bins["perf"], "session", "--seed", seed, "--seconds", seconds,
                   "--stations", spec["stations"], "--hosts", spec["hosts"],
                   "--horizon-s", spec["horizon_s"]], timeout=120 + 2 * seconds)


# ------------------------------------------------------------------ metrics


def counters(snapshot):
    return snapshot["counters"]


def hist_delta(raw, name):
    """(count, sum) of a daemon histogram over the open phase: exact, unlike
    its bucketed percentiles."""
    a, b = raw["metrics"]["histograms"][name], raw["metrics_sat"]["histograms"][name]
    return a["count"] - b["count"], a["sum"] - b["sum"]


def ratio(num, den):
    return num / den if den else 0.0


# The slice a wire timing is read from: the FAST_SLICE-th percentile of a
# phase's slices, counted from the fast end (nearest rank, as stats.hpp).
FAST_SLICE = 10


def fast_slice(values, lower_is_better=True):
    """The FAST_SLICE-th percentile of per-slice `values`, from the fast end."""
    ranked = sorted(values, reverse=not lower_is_better)
    if not ranked:
        raise BenchError("a phase has no slice with a measured op")
    rank = max(1, math.ceil(FAST_SLICE / 100 * len(ranked) - 1e-9))
    return ranked[rank - 1]


def slice_latencies(phase, key):
    """Per-slice latency percentile `key`, over the slices that decided a
    request (an empty slice has none)."""
    s = phase["slices"]
    return [v for v, n in zip(s[key], s["decisions"]) if n > 0]


def end_to_end(kind, raw):
    """The user-visible metrics of one untraced run (names as BENCHMARK.json).

    The host speeds up and slows down for seconds at a time, and a slow
    spell only ever adds time, so each timing is read where the host left
    the program alone (perf/README.md, "Reading a run"). A session's work is
    the same in every repetition: its timings take each simulated second at
    its fastest repetition. A wire phase's slices are statistically the same
    work: its timings are the FAST_SLICE-th percentile slice from the fast
    end. setup_s is the median of the run's repeated setups.
    """
    if kind == "session":
        per_rep = raw["messages_delivered"] / raw["reps"]
        return {
            "setup_s": statistics.median(raw["setup_s"]),
            "sat_ops_s": per_rep / raw["best_rep_s"],
            "latency_p50_us": raw["step_min_us"]["p50"],
            "latency_p90_us": raw["step_min_us"]["p90"],
            "cpu_us_per_op": raw["rep_cpu_min_s"] * 1e6 / per_rep,
            "setup_rss_kb": raw["setup_rss_kb"],
        }
    sat, opened = raw["sat"], raw["open"]
    if opened["daemon_cpu_ns"] <= 0 or opened["completed"] == 0:
        raise BenchError("no daemon CPU or no completed op in the open phase")
    slice_s = sat["slices"]["slice_s"]
    cpu_per_op = [cpu * 1e-3 / ops for cpu, ops in zip(opened["slices"]["daemon_cpu_ns"],
                                                        opened["slices"]["ops"]) if ops > 0]
    return {
        "setup_s": statistics.median(raw["setup_s"]),
        "sat_ops_s": fast_slice([ops / slice_s for ops in sat["slices"]["ops"]],
                                lower_is_better=False),
        "latency_p50_us": fast_slice(slice_latencies(opened, "latency_p50_us")),
        "latency_p90_us": fast_slice(slice_latencies(opened, "latency_p90_us")),
        "cpu_us_per_op": fast_slice(cpu_per_op),
        "setup_rss_kb": raw["daemon"]["setup_rss_kb"],
    }


def shared_layers(c, decide, client_retransmits):
    """The per-layer metrics every workload has, from counters `c` over the
    measured span: the floor layer's outcome mix and decision time (the
    program's own 1-in-64 sampled histogram, as exact sum/count), and the
    fproto server's replay and notification work per arbitration."""
    arb = c["wire.server.arbitrations"]
    requests = c["floor.requests"]
    releases = c["floor.releases"]
    decide_count, decide_sum = decide
    return {
        "fproto.replay_hits_per_op": ratio(c["wire.server.replay_hits"], arb),
        "fproto.client_retransmits_per_op": client_retransmits,
        "fproto.notifies_per_op":
            ratio(c["wire.server.suspends"] + c["wire.server.resumes"], arb),
        "fproto.notify_retransmits": c["wire.server.notify_retransmits"],
        "floor.grant_ratio": ratio(c["floor.granted"], requests),
        "floor.degraded_ratio": ratio(c["floor.granted_degraded"], requests),
        "floor.deny_ratio": ratio(c["floor.denied"] + c["floor.aborted"], requests),
        "floor.queued_ratio": ratio(c["floor.queued"], requests),
        "floor.suspends_per_request": ratio(c["floor.suspends"], requests),
        "floor.promotions_per_release": ratio(c["floor.promotions"], releases),
        "floor.sweep_passes_per_release": ratio(c["floor.sweep_passes"], releases),
        "floor.decide_ns_mean": ratio(decide_sum, decide_count),
    }


def counted_layers(raw):
    """Per-layer counts from the real daemon's snapshots, over the open phase."""
    final, between = counters(raw["metrics"]), counters(raw["metrics_sat"])
    c = {name: final[name] - between[name] for name in final}
    rx_count, rx_sum = hist_delta(raw, "wire.udp.rx_batch")
    tx_count, tx_sum = hist_delta(raw, "wire.udp.tx_batch")
    arb = c["wire.server.arbitrations"]
    return {
        "transport.rx_datagrams_per_op": ratio(c["wire.udp.rx_datagrams"], arb),
        "transport.tx_datagrams_per_op": ratio(c["wire.udp.tx_datagrams"], arb),
        "transport.rx_batch_mean": ratio(rx_sum, rx_count),
        "transport.tx_batch_mean": ratio(tx_sum, tx_count),
        "transport.drops": sum(final[k] for k in DROP_COUNTERS),
        "transport.rcvbuf_errors": raw["rcvbuf_errors"],
        **shared_layers(c, hist_delta(raw, "floor.decide_latency_ns"),
                        ratio(raw["client_retransmits"], final["wire.server.arbitrations"])),
        "process.peak_rss_kb": raw["daemon"]["max_rss_kb"],
        "daemon.busy": raw["open"]["daemon_busy"],
        "daemon.busy_sat": raw["sat"]["daemon_busy"],
        "gen.busy_sat": raw["sat"]["gen_busy"],
        "gen.backlog_max": raw["open"]["backlog_max"],
    }


HANDLERS = ("request", "release", "join", "leave", "suspend_ack", "resume_ack", "timer")


def twin_shares(twin, real):
    """Per-layer shares of the twin's busy CPU over the open phase, and the
    tracing overhead (twin against the real daemon, same workload)."""
    twin_e2e, real_e2e = end_to_end("wire", twin), end_to_end("wire", real)
    t = twin["trace"]
    k = t["kinds"]
    busy = t["busy_ns"]
    self_ns = lambda *names: sum(k[n]["self_ns_sum"] for n in names)  # noqa: E731
    return {
        "transport.self_share":
            ratio(self_ns("transport.poll") + k["transport.send"]["total_ns_sum"], busy),
        "transport.turn_dispatches_mean": ratio(t["dispatches"], t["busy_turns"]),
        "fproto.self_share": ratio(self_ns(*("fproto." + h for h in HANDLERS)), busy),
        "fproto.join_leave_share": ratio(self_ns("fproto.join", "fproto.leave"), busy),
        "fproto.timer_share": ratio(self_ns("fproto.timer"), busy),
        "floor.self_share": ratio(k["floor.request"]["total_ns_sum"]
                                  + k["floor.release"]["total_ns_sum"], busy),
        "trace.overhead.sat_ops": ratio(twin_e2e["sat_ops_s"], real_e2e["sat_ops_s"]) - 1,
        "trace.overhead.latency_p50":
            ratio(twin_e2e["latency_p50_us"], real_e2e["latency_p50_us"]) - 1,
    }


def twin_table(twin):
    """The twin's span times in ns, over the open phase. None for a
    percentile without ten samples beyond it, which includes every span kind
    the workload never ran there (join and leave outside churn)."""
    k = twin["trace"]["kinds"]
    table = {
        "transport.poll_self_ns_per_op":
            ratio(k["transport.poll"]["self_ns_sum"], k["fproto.request"]["count"]),
        "transport.send_ns_p50": k["transport.send"]["self_ns_p50"],
        "fproto.self_ns_p99.request": k["fproto.request"]["self_ns_p99"],
        "floor.request_ns_p50": k["floor.request"]["self_ns_p50"],
        "floor.request_ns_p99": k["floor.request"]["self_ns_p99"],
        "floor.release_ns_p50": k["floor.release"]["self_ns_p50"],
        "floor.release_ns_p99": k["floor.release"]["self_ns_p99"],
    }
    for h in HANDLERS:
        table["fproto.self_ns_p50." + h] = k["fproto." + h]["self_ns_p50"]
    return table


def session_layers(raw):
    """Per-layer metrics of one session run: its registry counts (every
    repetition counts the same) and its decide times over all repetitions."""
    c = counters(raw["metrics"])
    reps = raw["reps"]
    return {
        **shared_layers(c, (raw["decide_count"], raw["decide_sum_ns"]),
                        ratio(c["wire.agent.retransmits"], c["wire.server.arbitrations"])),
        "process.peak_rss_kb": raw["max_rss_kb"],
        "session.msgs_per_rep": raw["messages_delivered"] / reps,
        "session.floor_msgs_per_rep": raw["floor_messages"] / reps,
        "session.arbitrations_per_rep": raw["arbitrations"] / reps,
    }


# ---------------------------------------------------------- gates and flags


def ledger_balanced(c):
    """Every grant the floor layer made was released, once.

    A direct grant (full or degraded) or a queue promotion is held by one
    member on one host; its release reaches that host's shard and counts
    one floor.releases. Denied, aborted and still-queued requests record no
    route, so nothing releases them. With every agent at rest this is exact
    (perf/perf_tests.cpp proves it on the daemon's code over loopback).
    """
    return c["floor.releases"] == (c["floor.granted"] + c["floor.granted_degraded"]
                                   + c["floor.promotions"])


def wire_gates(raw):
    c = counters(raw["metrics"])
    return [
        ("daemon exits 0 on SIGTERM", raw["daemon"]["clean"], raw["daemon"]["detail"]),
        ("transport.drops is 0", sum(c[k] for k in DROP_COUNTERS) == 0,
         {k: c[k] for k in DROP_COUNTERS}),
        ("wire.udp.send_failures is 0", c["wire.udp.send_failures"] == 0,
         c["wire.udp.send_failures"]),
        ("floor.requests == wire.server.arbitrations",
         c["floor.requests"] == c["wire.server.arbitrations"],
         (c["floor.requests"], c["wire.server.arbitrations"])),
        ("every grant released (ledger)", ledger_balanced(c),
         {k: c[k] for k in ("floor.releases", "floor.granted", "floor.granted_degraded",
                            "floor.promotions")}),
        ("every reply routed to its agent", raw["unrouted_replies"] == 0,
         raw["unrouted_replies"]),
        ("no op failed (late, stuck or broken)",
         failed_ops("wire", raw)[1] == 0 and raw["broken_ops"] == 0,
         {"late": raw["sat"]["late"] + raw["open"]["late"],
          "stuck_agents": raw["stuck_agents"], "broken_ops": raw["broken_ops"]}),
    ]


def session_gates(raw, seed, expected):
    gates = [
        ("all repetitions give one fingerprint", raw["fingerprints_agree"], raw["fingerprint"]),
        ("counters_consistent()", raw["counters_consistent"], None),
        ("no station stuck or still queued", raw["stuck"] == 0 and raw["queued_waiting"] == 0,
         (raw["stuck"], raw["queued_waiting"])),
        ("playbacks_finished == granted", raw["playbacks_finished"] == raw["granted"],
         (raw["playbacks_finished"], raw["granted"])),
    ]
    if seed == 1:
        gates.append(("seed-1 fingerprint matches perf/workloads.json",
                      raw["fingerprint"] == expected, (raw["fingerprint"], expected)))
    return gates


def wire_flags(raw):
    """Validity: the run measured the daemon, not the generator."""
    flags = []
    if raw["sat"]["gen_busy"] > GEN_BUSY_LIMIT:
        flags.append(f"gen.busy_sat {raw['sat']['gen_busy']:.2f} > {GEN_BUSY_LIMIT}")
    if raw["sat"]["daemon_busy"] < 0.9:
        flags.append(f"daemon.busy_sat {raw['sat']['daemon_busy']:.2f} < 0.9")
    lag = raw["open"]["lag_us"]["p99"]
    if lag > 50:
        flags.append(f"gen.lag_p99_us {lag:.1f} > 50")
    return flags


# --------------------------------------------------------------- workloads


def failed_ops(kind, raw):
    if kind == "session":
        return raw["requests"], raw["stuck"]
    # An op its agent refused leaves the agent busy: it is among the stuck.
    attempted = raw["sat"]["attempted"] + raw["open"]["attempted"]
    return attempted, raw["sat"]["late"] + raw["open"]["late"] + raw["stuck_agents"]


def run_workload(bins, config, name, seed, seconds, traced, quick=False):
    """Run one workload; returns its result record (metrics, gates, flags)."""
    spec = config["workloads"][name]
    kind = spec["kind"]
    record = {"kind": kind, "runs": {}}
    if kind == "session":
        raw = run_session(bins, spec, seed, seconds)
        record["runs"]["real"] = raw
        record["end_to_end"] = end_to_end(kind, raw)
        record["gates"] = session_gates(raw, seed, spec["fingerprint_seed1"])
        record["flags"] = []
        record["per_layer"] = session_layers(raw)
        record["attempted"], record["failed"] = failed_ops(kind, raw)
        return record
    if quick:
        sat_s, open_s, warmup_s, setups = 1.0, 1.0, 0.25, 1
    else:
        sat_s, open_s, warmup_s = phases(config, seconds)
        setups = config["setups"]
    raw = run_wire(bins, spec, seed, sat_s, open_s, warmup_s, setups)
    record["runs"]["real"] = raw
    record["end_to_end"] = end_to_end(kind, raw)
    record["gates"] = wire_gates(raw)
    record["flags"] = wire_flags(raw)
    record["validity"] = {"gen.busy_sat": raw["sat"]["gen_busy"],
                          "daemon.busy_sat": raw["sat"]["daemon_busy"],
                          "gen.lag_p99_us": raw["open"]["lag_us"]["p99"]}
    record["attempted"], record["failed"] = failed_ops(kind, raw)
    if traced:
        OUT.mkdir(parents=True, exist_ok=True)
        trace_path = OUT / f"trace_{name}.json"
        twin = run_wire(bins, spec, seed, sat_s, open_s, warmup_s, setups, twin=trace_path)
        record["runs"]["twin"] = twin
        record["gates"] += [("twin: " + g, ok, why) for g, ok, why in wire_gates(twin)]
        attempted, failed = failed_ops(kind, twin)
        record["attempted"] += attempted
        record["failed"] += failed
        record["per_layer"] = {**counted_layers(raw), **twin_shares(twin, raw)}
        record["twin_table"] = twin_table(twin)
        record["trace_file"] = str(trace_path.relative_to(ROOT))
    return record


def layer_values(bench, record):
    """Every per-layer metric BENCHMARK.json lists. A session has no sockets,
    no daemon process and no twin, so those metrics read 0 there (none is a
    time); a wire run reads 0 for the session's own counts."""
    got = record.get("per_layer", {})
    names = [m["name"] for m in bench["per_layer"]]
    if record["kind"] == "wire":
        missing = [n for n in names if n not in got and not n.startswith("session.")]
        if missing:
            raise BenchError(f"no value for per-layer metric(s) {missing}")
    return {n: float(got.get(n, 0.0)) for n in names}


def print_record(name, record, metrics, units):
    for metric, value in metrics.items():
        print(f"{name} {metric} {value:.6g} {units[metric]}")
    for gate, ok, why in record["gates"]:
        if not ok:
            print(f"{name}: GATE FAILED: {gate}: {why}", file=sys.stderr)
    for flag in record["flags"]:
        print(f"{name}: validity flag: {flag}", file=sys.stderr)
    if record["failed"]:
        print(f"{name}: {record['failed']} of {record['attempted']} ops failed",
              file=sys.stderr)


def single(bench, config, bins, args):
    """Single-workload mode: one workload, one JSON result line."""
    seconds = args.seconds
    if args.trace == 1 and config["workloads"][args.workload]["kind"] == "wire":
        seconds /= 2  # the real daemon and its traced twin, half the time each
    record = run_workload(bins, config, args.workload, args.seed, seconds,
                          traced=args.trace == 1)
    if args.trace == 1:
        metrics = layer_values(bench, record)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        metrics = record["end_to_end"]
        units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    print_record(args.workload, record, metrics, units)
    correct = all(ok for _, ok, _ in record["gates"])
    print(json.dumps({"correct": correct, "attempted": int(record["attempted"]),
                      "failed": int(record["failed"]),
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


def layer_checks(records):
    """The traced run's shape checks: each layer is loaded differently."""
    def share(name, layer):
        return records[name]["per_layer"][layer + ".self_share"]
    checks = []
    if "light" in records and "contended" in records:
        checks.append(("floor share of busy time on contended >= 2x light",
                       share("contended", "floor") >= 2 * share("light", "floor")))
        checks.append(("on light, transport share > floor share",
                       share("light", "transport") > share("light", "floor")))
    joins = {n for n, r in records.items()
             if r["kind"] == "wire" and r["twin_table"]["fproto.self_ns_p50.join"] is not None}
    checks.append(("fproto.self_ns_p50.join measured on churn only", joins == {"churn"}))
    return checks


def full(bench, config, bins, args):
    """Every workload once: the table, perf/out/results.json, gate status."""
    names = list(config["workloads"])
    e2e_units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    traced = args.trace == 1
    records = {}
    for name in names:
        record = run_workload(bins, config, name, args.seed, args.seconds, traced)
        records[name] = record
        print_record(name, record, record["end_to_end"], e2e_units)
    if traced:
        for name in names:
            for metric, value in layer_values(bench, records[name]).items():
                print(f"{name} {metric} {value:.6g} {layer_units[metric]}")
            for metric, value in records[name].get("twin_table", {}).items():
                print(f"{name} {metric} {'n/a' if value is None else f'{value:.6g}'} ns")
        for check, ok in layer_checks(records):
            print(f"layer check: {'pass' if ok else 'FAIL'}: {check}")
    correct = all(ok for r in records.values() for _, ok, _ in r["gates"])
    results = {
        "seed": args.seed, "seconds": args.seconds, "traced": traced,
        "machine": machine(build_dir()), "correct": correct,
        "workloads": {
            name: {"correct": all(ok for _, ok, _ in r["gates"]),
                   "attempted": r["attempted"], "failed": r["failed"],
                   "flags": r["flags"], "validity": r.get("validity", {}),
                   "metrics": {k: {"value": v, "unit": e2e_units[k]}
                               for k, v in r["end_to_end"].items()},
                   **({"per_layer": {k: {"value": v, "unit": layer_units[k]}
                                     for k, v in layer_values(bench, r).items()},
                       "twin_table_ns": r.get("twin_table")}
                      if traced else {})}
            for name, r in records.items()},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    out = Path(args.out) if args.out else OUT / "results.json"
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": sum(int(r["attempted"]) for r in records.values()),
                      "failed": sum(int(r["failed"]) for r in records.values())}))
    return 0 if correct else 1


def selftest(bench, config, bins):
    """Unit tests, then every workload briefly (traced: both daemons) through
    every gate and every metric."""
    ok = True
    tests = subprocess.run([str(bins["tests"])], stdout=sys.stderr)
    ok &= tests.returncode == 0
    unit = subprocess.run([sys.executable, "-B", "-m", "unittest", "-q", "test_compare",
                           "test_run"], cwd=PERF, stdout=sys.stderr)
    ok &= unit.returncode == 0
    for name in config["workloads"]:
        record = run_workload(bins, config, name, 1, 2.0, traced=True, quick=True)
        layer_values(bench, record)
        failed = [g for g, good, _ in record["gates"] if not good]
        print(f"selftest {name}: {'ok' if not failed else 'FAILED: ' + '; '.join(failed)}",
              file=sys.stderr)
        ok &= not failed
    print(json.dumps({"selftest": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run one workload and print one JSON result line")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured seconds per workload run "
                             "(default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = add the traced twin: per-layer metrics (with --workload, "
                             "only those), Chrome traces and the tracing overhead")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--out", help="results file (default perf/out/results.json)")
    args = parser.parse_args(argv)
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        config = load_json(PERF / "workloads.json")
        if args.seconds is None:
            args.seconds = float(bench["run_seconds"])
        if args.workload and args.workload not in config["workloads"]:
            raise BenchError(f"unknown workload {args.workload!r}")
        bins = build()
        if args.selftest:
            return selftest(bench, config, bins)
        if args.workload:
            return single(bench, config, bins, args)
        return full(bench, config, bins, args)
    except BenchError as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
