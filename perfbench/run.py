#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the vids replay and serve paths.

Run from the repository root:

    python3 perfbench/run.py --workload calls_mixed --seed 1 --seconds 20 --trace 0

It builds the `vids` CLI and the `perfbench` helper (into
$CARGO_TARGET_DIR, default `.bench_build`), generates the workload's
inputs from the seed, runs the workload through `vids replay` or
`vids serve` for about --seconds seconds, checks every output against
ground truth computed from the generator's schedule, and prints one
JSON object as its last line: end-to-end metrics with --trace 0,
per-layer metrics with --trace 1. See perfbench/README.md.
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
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".bench_work")
# Span files of traced runs outlive the run; everything in WORK does not.
SPANS = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("calls_mixed", "invite_flood", "live_tenants")

# `vids replay` and `vids serve` passes below this count make a median of
# too few samples, whatever --seconds says.
MIN_PASSES = 3
# Fresh-process set-ups per run; set-up time is their median.
SETUPS = 11
# live_tenants: offered rate (datagrams/s), seconds of sending per round,
# and the daemon's port (the sender binds the next one).
LIVE_RATE = 2000
LIVE_ROUND_S = 5
LIVE_PORT = 35060
# A pass (or live round) during which the hypervisor stole more than this
# share of the VM's CPU time is set aside when at least MIN_PASSES others
# were calmer: on a shared 2-vCPU host a 25% steal share halves `pps`.
STEAL_MAX = 0.04
# A run goes on past --seconds (up to 1.75 times as long) until this many of
# its passes were calm.
CALM_WANTED = 5
# Traced runs: alternating untraced and traced replay passes.
TRACED_PASSES = 5


class BenchError(Exception):
    """A fault that stops the run before a result can be printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "vids"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join("perfbench", "Cargo.toml")],
    ):
        r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "vids"), os.path.join(rel, "perfbench")


def run_json(cmd):
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    if r.returncode != 0:
        raise BenchError("failed: " + " ".join(cmd))
    return json.loads(r.stdout.strip().splitlines()[-1])


def run_measured(cmd):
    """Runs `cmd` to exit and reads its own rusage with wait4: returns
    (stdout, cpu seconds, peak RSS in MiB)."""
    out_path = os.path.join(WORK, "child.out")
    err_path = os.path.join(WORK, "child.err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        p = subprocess.Popen(cmd, cwd=ROOT, stdout=out, stderr=err)
        _, status, ru = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path) as f:
        stdout = f.read()
    with open(err_path) as f:
        stderr = f.read()
    if p.returncode != 0:
        raise BenchError("%s exited %d: %s" % (" ".join(cmd), p.returncode, stderr.strip()[-300:]))
    return stdout, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def median(xs):
    return statistics.median(xs)


def cpu_ticks():
    """(steal, total) jiffies of the whole VM, from /proc/stat."""
    try:
        with open("/proc/stat") as f:
            v = [int(x) for x in f.readline().split()[1:9]]
    except (OSError, ValueError):
        return 0, 0
    return v[7], sum(v)


class StealMeter:
    """CPU time the hypervisor stole from the VM while it ran: `share` of
    all the VM's CPU time, and `seconds` summed over its vCPUs."""

    def __enter__(self):
        self.start = cpu_ticks()
        return self

    def __exit__(self, *exc):
        s0, t0 = self.start
        s1, t1 = cpu_ticks()
        self.share = (s1 - s0) / (t1 - t0) if t1 > t0 else 0.0
        self.seconds = (s1 - s0) / os.sysconf("SC_CLK_TCK")


def steal_adjusted_pps(p):
    """A pass's `pps` with the stolen time taken out of its wall time, on
    the assumption that the process would have run for the stolen time
    in the same proportion as it ran for its own CPU time."""
    return p["pps"] * (p["cpu_s"] + p["steal_s"]) / p["cpu_s"]


def calm(samples):
    """The samples taken while the host was calm; at least MIN_PASSES of
    them, the least disturbed first when too few were calm."""
    quiet = [s for s in samples if s["steal"] <= STEAL_MAX]
    if len(quiet) >= MIN_PASSES:
        return quiet
    return sorted(samples, key=lambda s: s["steal"])[:MIN_PASSES]


def steal_note(samples, used):
    return "%d of %d used (steal <= %.0f%%; max steal seen %.1f%%)" % (
        len(used), len(samples), STEAL_MAX * 100, 100 * max(s["steal"] for s in samples))


# ---------------------------------------------------------------- replay


REPORT_RE = re.compile(r"^alert report:.*?(?=^\S|\Z)", re.S | re.M)


def parse_replay_stdout(text):
    m = re.search(r"^replayed (\d+) datagrams", text, re.M)
    tp = re.search(r"^throughput: (\d+) pps over ([0-9.]+) s", text, re.M)
    counters = re.search(r"^counters: .*$", text, re.M)
    report = REPORT_RE.search(text)
    dumps = re.search(r"^recorder: .* (\d+) dump\(s\)", text, re.M)
    if not (m and tp and counters):
        raise BenchError("unexpected `vids replay` output: " + text[:300])
    return {
        "datagrams": int(m.group(1)),
        "pps": float(tp.group(1)),
        "wall_s": float(tp.group(2)),
        "counters": counters.group(0),
        "report": report.group(0) if report else "",
        "dumps": int(dumps.group(1)) if dumps else None,
    }


def counters_sum(line):
    vals = dict(re.findall(r"(\w+): (\d+)", line))
    return sum(int(vals[k]) for k in ("sip_packets", "rtp_packets", "malformed", "ignored"))


def check_cli_pass(p, lib, report_lib, record, problems):
    if p["datagrams"] != lib["datagrams"]:
        problems.append("CLI replayed %d datagrams, capture holds %d" % (p["datagrams"], lib["datagrams"]))
    if counters_sum(p["counters"]) != p["datagrams"]:
        problems.append("counter classes do not sum to the datagrams replayed: " + p["counters"])
    if p["counters"] != lib["counters"]:
        problems.append("CLI counters differ from the library replay")
    if p["report"] != report_lib:
        problems.append("CLI alert report differs from the checked library replay")
    if record and p["dumps"] != lib["dumps"]:
        problems.append("CLI wrote %s dumps, the library replay %d" % (p["dumps"], lib["dumps"]))


def replay_cmd(vids, d, record, i):
    cmd = [vids, "replay", os.path.join(d, "capture.pcap")]
    if record:
        dump_dir = os.path.join(d, "cli-dumps-%d" % i)
        shutil.rmtree(dump_dir, ignore_errors=True)
        cmd += ["--record", dump_dir]
    return cmd


def keep_going(samples, start, seconds):
    """Whether a run should start another pass: until --seconds have gone
    by, and past that while fewer than CALM_WANTED passes were calm, up
    to 1.75 times --seconds."""
    elapsed = time.monotonic() - start
    if len(samples) < MIN_PASSES or elapsed < seconds:
        return True
    quiet = sum(1 for s in samples if s["steal"] <= STEAL_MAX)
    return quiet < CALM_WANTED and elapsed < 1.75 * seconds


def cli_pass(vids, d, record, i):
    """One `vids replay` process; its dumps are kept for pass 0 only."""
    with StealMeter() as steal:
        out, cpu, rss = run_measured(replay_cmd(vids, d, record, i))
    p = parse_replay_stdout(out)
    p["cpu_s"], p["rss_mib"], p["steal"], p["steal_s"] = cpu, rss, steal.share, steal.seconds
    log("  pass %d: %.0f pps, %.3f s cpu, %.1f%% steal" % (i, p["pps"], cpu, 100 * steal.share))
    if record and i > 0:
        shutil.rmtree(os.path.join(d, "cli-dumps-%d" % i), ignore_errors=True)
    return p


def cli_passes(vids, d, record, seconds):
    passes = []
    start = time.monotonic()
    while keep_going(passes, start, seconds):
        passes.append(cli_pass(vids, d, record, len(passes)))
    return passes


def dump_alerts_match(helper, d, problems):
    """The first CLI pass's `.vdump` files must hold alerts the checked
    library replay raised, with the same capture-clock times."""
    lines = subprocess.run(
        [helper, "dumps", "--dir", os.path.join(d, "cli-dumps-0")],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True, check=True,
    ).stdout.split("\n")
    truth = {}
    with open(os.path.join(d, "truth.tsv")) as f:
        for row in f:
            label, scope, _, _, lo, hi = row.rstrip("\n").split("\t")
            truth[(label, scope)] = (int(lo), int(hi))
    for row in filter(None, lines):
        t, label, scope = row.split("\t")
        lo_hi = truth.get((label, scope))
        if lo_hi is None or not lo_hi[0] <= int(t) <= lo_hi[1]:
            problems.append("dumped alert %s on %s at %s ms is not in the truth" % (label, scope, t))


def replay_workload(args, vids, helper):
    w = args.workload
    d = os.path.join(WORK, w)
    record = w == "calls_mixed"
    gen = run_json([helper, "gen", "--workload", w, "--seed", str(args.seed), "--dir", d])
    problems = []
    if args.trace:
        return replay_traced(args, vids, helper, d, record, gen, problems)

    lib = run_json([helper, "replay", "--workload", w, "--dir", d])
    with open(os.path.join(d, "report-lib.txt")) as f:
        report_lib = f.read()
    if lib["ok"] is not True:
        problems.append("library replay vs truth: " + lib["problems"])
    if lib["counted"] != lib["datagrams"] or lib["datagrams"] != gen["datagrams"]:
        problems.append("library replay lost datagrams")

    setups = [float(subprocess.run([helper, "setup", "--workload", w, "--dir", d], cwd=ROOT,
                                   stdout=subprocess.PIPE, text=True, check=True).stdout)
              for _ in range(SETUPS)]
    passes = cli_passes(vids, d, record, args.seconds)
    for p in passes:
        check_cli_pass(p, lib, report_lib, record, problems)
    if record:
        dump_alerts_match(helper, d, problems)

    n = len(passes)
    used = calm(passes)
    missed = int(gen["attacks"]) - int(lib["detected"])
    metrics = {
        "pps": (median([steal_adjusted_pps(p) for p in used]), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mib": (median([p["rss_mib"] for p in used]), "MiB"),
        "cpu_us_per_dgram": (median([p["cpu_s"] / p["datagrams"] * 1e6 for p in used]), "us"),
        "detect_ms_p50": (lib["detect_ms_p50"], "ms"),
        "detect_ms_p90": (lib["detect_ms_p90"], "ms"),
    }
    log("%s: %d CLI passes, %d datagrams and %d attacks each, %d detection samples; passes %s"
        % (w, n, gen["datagrams"], gen["attacks"], lib["detect_n"], steal_note(passes, used)))
    attempted = n * (int(gen["datagrams"]) + int(gen["attacks"]))
    failed = n * (max(0, missed) + int(gen["datagrams"]) - int(lib["counted"]))
    return problems, attempted, failed, metrics


def replay_traced(args, vids, helper, d, record, gen, problems):
    w = args.workload
    # Untraced `vids replay` passes and traced passes alternate, so slow
    # spells of a shared host fall on both sides alike.
    untraced, traced = [], []
    for r in range(TRACED_PASSES):
        untraced.append(cli_pass(vids, d, record, r))
        with StealMeter() as steal:
            out, cpu, _ = run_measured([helper, "replay", "--workload", w, "--dir", d,
                                           "--trace", str(r), "--spans", SPANS])
        t = json.loads(out.strip().splitlines()[-1])
        with open(os.path.join(d, "report-trace-%d.txt" % r)) as f:
            report = f.read()
        if t["ok"] is not True:
            problems.append("traced replay vs truth: " + t["problems"])
        if untraced[-1]["report"] != report or untraced[-1]["counters"] != t["counters"]:
            problems.append("traced replay's alerts or counters differ from `vids replay`")
        if t["counted"] != gen["datagrams"]:
            problems.append("traced replay lost datagrams")
        # Both sides of a pair lose their stolen time, and a pair is as
        # disturbed as its worse half.
        u = untraced[-1]
        t["base_s"] = u["wall_s"] * u["cpu_s"] / (u["cpu_s"] + u["steal_s"])
        t["keep"] = cpu / (cpu + steal.seconds)
        t["steal"] = max(steal.share, u["steal"])
        traced.append(t)
    pairs = traced
    traced = calm(pairs)
    def med(f):
        return median([f(t) for t in traced])

    def stage(t, name):
        return t["stages"].get(name, [0, 0])[0]

    sip = med(lambda t: counters_field(t["counters"], "sip_packets"))
    rtp = med(lambda t: counters_field(t["counters"], "rtp_packets"))
    dg = gen["datagrams"]
    stage_names = ("ingest.pcap", "ingest.demux", "core.classify_sip", "core.classify_rtp",
                   "record.tap", "core.engine", "record.dump", "core.tick")
    ratio = med(lambda t: sum(stage(t, s) for s in stage_names) / 1e9 * t["keep"] / t["base_s"])
    # A ledger off by more than 10% means a stage is missing; it says
    # nothing about the program's outputs, so it warns instead of failing.
    if not 0.9 <= ratio <= 1.1:
        log("LEDGER: stage self times sum to %.3f of the untraced end-to-end time" % ratio)
    m = {
        "ingest.pcap_ns": med(lambda t: stage(t, "ingest.pcap") / dg),
        "ingest.demux_ns": med(lambda t: stage(t, "ingest.demux") / dg),
        "sip.parse_ns": med(lambda t: t["sip_parse_ns"]),
        "rtp.decode_ns": med(lambda t: t["rtp_decode_ns"]),
        "core.classify_sip_ns": med(lambda t: stage(t, "core.classify_sip") / sip if sip else 0),
        "core.classify_rtp_ns": med(lambda t: stage(t, "core.classify_rtp") / rtp if rtp else 0),
        "core.route_ns": med(lambda t: t["route_ns"]),
        "core.engine_ns": med(lambda t: stage(t, "core.engine") / dg),
        "core.tick_ms": med(lambda t: stage(t, "core.tick") / 1e6),
        "core.tracked_calls": med(lambda t: t["tracked_calls"]),
        "core.state_mib": med(lambda t: t["state_mib"]),
        "efsm.symbols": med(lambda t: t["symbols"]),
        "record.tap_ns": med(lambda t: stage(t, "record.tap") / dg),
        "record.dump_ms": med(lambda t: stage(t, "record.dump") / 1e6),
        "record.dumps": med(lambda t: t["dumps"]),
        "ledger.stage_sum_ratio": ratio,
        "ledger.trace_overhead": med(lambda t: t["wall_s"] * t["keep"] / t["base_s"]),
    }
    log("%s traced: untraced replay %.3f s; pairs %s"
        % (w, med(lambda t: t["base_s"]), steal_note(pairs, traced)))
    n = 2 * TRACED_PASSES
    return problems, n * (dg + gen["attacks"]), 0, m


def counters_field(line, name):
    return int(dict(re.findall(r"(\w+): (\d+)", line))[name])


# ---------------------------------------------------------------- live


def shards():
    """The daemon's shard count: two, or fewer on a host with fewer CPUs."""
    return min(2, len(os.sched_getaffinity(0)))


def start_daemon(vids, tenants, port):
    """Starts `vids serve`; returns (process, seconds until it listens)."""
    t = time.monotonic()
    p = subprocess.Popen(
        [vids, "serve", "--listen", "127.0.0.1:%d" % port, "--shards", str(shards()),
         "--tenants", tenants],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    line = p.stderr.readline().decode()
    ready = time.monotonic() - t
    if not line.startswith("listening on"):
        p.kill()
        p.wait()
        raise BenchError("vids serve did not start: " + line.strip())
    return p, ready


def stop_daemon(p):
    """SIGINT, then reap with wait4; returns (stderr, cpu s, peak RSS MiB)."""
    p.send_signal(signal.SIGINT)
    _, status, ru = os.wait4(p.pid, 0)
    p.returncode = os.waitstatus_to_exitcode(status)
    err = p.stderr.read().decode()
    p.stderr.close()
    if p.returncode != 0:
        raise BenchError("vids serve exited %d: %s" % (p.returncode, err[-300:]))
    return err, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0


def live_round(vids, helper, tenants, seed, problems):
    with StealMeter() as steal:
        s = live_round_inner(vids, helper, tenants, seed, problems)
    s["steal"] = steal.share
    return s


def udp_rcvbuf_errors():
    """The kernel's count of UDP datagrams dropped on full socket receive
    buffers (`RcvbufErrors` in /proc/net/snmp), or None if unreadable."""
    try:
        with open("/proc/net/snmp") as f:
            rows = [line.split() for line in f if line.startswith("Udp:")]
        return int(rows[1][rows[0].index("RcvbufErrors")])
    except (OSError, IndexError, ValueError):
        return None


def live_round_inner(vids, helper, tenants, seed, problems):
    overflows = udp_rcvbuf_errors()
    daemon, ready = start_daemon(vids, tenants, LIVE_PORT)
    sender = None
    try:
        sender = subprocess.Popen(
            [helper, "send", "--seed", str(seed), "--rate", str(LIVE_RATE), "--seconds", str(LIVE_ROUND_S),
             "--port", str(LIVE_PORT), "--src-port", str(LIVE_PORT + 1)],
            cwd=ROOT, stdin=daemon.stdout, stdout=subprocess.PIPE, text=True,
        )
        daemon.stdout.close()
        first = sender.stdout.readline()
        err, cpu, rss = stop_daemon(daemon)
        rest = sender.stdout.read()
    finally:
        # Leave nothing running: the sender ends once the daemon's output
        # closes.
        if daemon.returncode is None:
            daemon.kill()
            daemon.wait()
        if sender is not None:
            sender.wait()
    if sender.returncode != 0 or not first.startswith("drained"):
        raise BenchError("live sender failed")
    s = json.loads(rest.strip().splitlines()[-1])
    if s["ok"] is not True:
        problems.append("live alerts vs truth: " + s["problems"])
    if s["drained"] is not True:
        problems.append("live: the daemon never drained the sentinels")
    m = re.search(r"^drained: (\d+) datagrams \((\d+) unknown, (\d+) dropped\)", err, re.M)
    counters = re.search(r"^counters: .*$", err, re.M)
    if not (m and counters):
        raise BenchError("unexpected `vids serve` output: " + err[:300])
    rx, dropped = int(m.group(1)), int(m.group(3))
    if rx != s["sent"] or dropped:
        after = udp_rcvbuf_errors()
        lost = "" if None in (overflows, after) else "; kernel receive-buffer drops %d" % (after - overflows)
        problems.append("live: sent %d, daemon received %d, dropped %d%s" % (s["sent"], rx, dropped, lost))
    if counters_sum(counters.group(0)) != rx:
        problems.append("live: counter classes do not sum to datagrams received")
    tenant_alerts = {name: int(n) for name, n in re.findall(r"^tenant \d+ \((\S+)\): (\d+) alert", err, re.M)}
    want = dict(s["expected_per_tenant"])
    want.setdefault("default", 0)
    if tenant_alerts != want:
        problems.append("live: per-tenant alerts %s, expected %s" % (tenant_alerts, want))
    s.update(ready=ready, cpu_s=cpu, rss_mib=rss, rx=rx)
    s["pps"] = rx / (s["drained_s"] - s["first_due_s"]) if s["drained"] else 0.0
    log("  round: %.1f pps, %.3f s cpu, detect p50 %.1f ms, sender late p99 %.0f us"
        % (s["pps"], cpu, s["detect_ms_p50"], s["late_us_p99"]))
    return s


def live_workload(args, vids, helper):
    os.makedirs(WORK, exist_ok=True)
    tenants = os.path.join(WORK, "tenants.txt")
    with open(tenants, "w") as f:
        f.write(subprocess.run([helper, "tenants"], cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, check=True).stdout)
    problems = []
    if args.trace:
        return live_traced(args, vids, helper, tenants, problems)
    setups = []
    for _ in range(SETUPS - 1):
        p, ready = start_daemon(vids, tenants, LIVE_PORT)
        stop_daemon(p)
        setups.append(ready)
    rounds = []
    start = time.monotonic()
    while keep_going(rounds, start, args.seconds):
        rounds.append(live_round(vids, helper, tenants, args.seed, problems))
    setups += [r["ready"] for r in rounds]
    used = calm(rounds)
    metrics = {
        "pps": (median([r["pps"] for r in used]), "1/s"),
        "setup_s": (median(setups), "s"),
        "peak_rss_mib": (median([r["rss_mib"] for r in used]), "MiB"),
        "cpu_us_per_dgram": (median([r["cpu_s"] / r["rx"] * 1e6 for r in used]), "us"),
        "detect_ms_p50": (median([r["detect_ms_p50"] for r in used]), "ms"),
        "detect_ms_p90": (median([r["detect_ms_p90"] for r in used]), "ms"),
    }
    log("live_tenants: %d rounds of %d datagrams at %d/s, %d detection samples each; "
        "sender late p99 %.0f us; rounds %s"
        % (len(rounds), rounds[0]["sent"], LIVE_RATE, rounds[0]["detect_n"],
           max(r["late_us_p99"] for r in rounds), steal_note(rounds, used)))
    attempted = sum(r["sent"] + r["expected"] for r in rounds)
    failed = sum(r["sent"] - r["rx"] + r["expected"] - r["detected"] for r in rounds)
    return problems, attempted, failed, metrics


def live_traced(args, vids, helper, tenants, problems):
    untraced = live_round(vids, helper, tenants, args.seed, problems)
    traced = []
    for _ in range(2):
        t = run_json([helper, "live-trace", "--seed", str(args.seed), "--rate", str(LIVE_RATE),
                      "--seconds", str(LIVE_ROUND_S), "--port", str(LIVE_PORT),
                      "--src-port", str(LIVE_PORT + 1), "--shards", str(shards()), "--dir", SPANS])
        if t["ok"] is not True or t["drained"] is not True:
            problems.append("traced serve vs truth: " + t["problems"])
        if t["datagrams_rx"] != t["sent"] or t["counted"] != t["sent"]:
            problems.append("traced serve lost datagrams")
        traced.append(t)

    def med(k):
        return median([t[k] for t in traced])

    base = untraced["drained_s"] - untraced["first_due_s"]
    m = {
        "ingest.recv_ns": med("recv_ns"),
        "ingest.dgrams_per_recv": med("dgrams_per_recv"),
        "ingest.dgrams_per_batch": med("dgrams_per_batch"),
        "core.classify_sip_ns": med("classify_sip_ns"),
        "core.route_ns": med("route_ns"),
        "core.batch_us_p50": med("batch_us_p50"),
        "core.batch_us_p99": med("batch_us_p99"),
        "core.tracked_calls": med("tracked_calls"),
        "core.state_mib": med("state_mib"),
        "efsm.symbols": med("symbols"),
        "cluster.tenant_ns": med("tenant_ns"),
        "cluster.engine_ns": med("engine_ns"),
        "ledger.trace_overhead": median([t["drained_s"] - t["first_due_s"] for t in traced]) / base,
    }
    attempted = untraced["sent"] + untraced["expected"] + sum(t["sent"] + t["expected"] for t in traced)
    return problems, attempted, 0, m


# ---------------------------------------------------------------- main

PER_LAYER_UNITS = {
    "ingest.pcap_ns": "ns", "ingest.demux_ns": "ns", "ingest.recv_ns": "ns",
    "ingest.dgrams_per_recv": "count", "ingest.dgrams_per_batch": "count",
    "sip.parse_ns": "ns", "rtp.decode_ns": "ns",
    "core.classify_sip_ns": "ns", "core.classify_rtp_ns": "ns", "core.route_ns": "ns",
    "core.engine_ns": "ns", "core.batch_us_p50": "us", "core.batch_us_p99": "us",
    "core.tick_ms": "ms", "core.tracked_calls": "count", "core.state_mib": "MiB",
    "efsm.symbols": "count",
    "record.tap_ns": "ns", "record.dump_ms": "ms", "record.dumps": "count",
    "cluster.tenant_ns": "ns", "cluster.engine_ns": "ns",
    "ledger.stage_sum_ratio": "ratio", "ledger.trace_overhead": "ratio",
}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        vids, helper = build()
        shutil.rmtree(WORK, ignore_errors=True)
        os.makedirs(WORK)
        if args.trace:
            os.makedirs(SPANS, exist_ok=True)
        if args.workload == "live_tenants":
            problems, attempted, failed, metrics = live_workload(args, vids, helper)
        else:
            problems, attempted, failed, metrics = replay_workload(args, vids, helper)
    except (BenchError, subprocess.CalledProcessError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for p in problems:
        log("CHECK FAILED: " + p)
    if args.trace:
        # Layers idle on this workload report 0.
        metrics = {k: (float(metrics.get(k, 0.0)), u) for k, u in PER_LAYER_UNITS.items()}
    result = {
        "correct": not problems,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
