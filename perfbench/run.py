#!/usr/bin/env python3
"""The proxim benchmark: what users run, end to end and layer by layer.

Run from the root of a proxim source tree:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds `proxim` and the benchmark's helper (`perfbench/pb.exe`) into
`.bench_build`, generates the workload's inputs from the seed, measures
for about S seconds, checks the outputs, and prints as its last line one
JSON object {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
measured with tracing off; with --trace 1 they are its per-layer
metrics, from a traced in-process replay of the same workload.  A
failed output check prints "correct": false with no numbers and exits 1.
Per-run details (samples, spans, the provenance stamp) go to
`.perfbench_out/`.  See perfbench/NOTES.md for what each workload and
metric is for.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

BUILD_DIR = ".bench_build"
# absolute, because every child runs inside its run directory
PROXIM = os.path.abspath(os.path.join(BUILD_DIR, "default", "bin", "proxim_cli.exe"))
PB = os.path.abspath(os.path.join(BUILD_DIR, "default", "perfbench", "pb.exe"))
RUN_ROOT = ".perfbench_run"
OUT_DIR = ".perfbench_out"

# a run must end within 180 s of starting (plus the build, on the first)
RUN_BUDGET_S = 165.0
PI_ALL = "fall:200:0"

WORKLOADS = {
    # the ROADMAP reference configuration: default `proxim sta` at 10^5
    "sta_100k": {
        "kind": "cli", "cells": 100_000, "models": "synthetic",
        "domains": 1, "paths": 5, "setups": 3,
    },
    # golden transients behind Models.of_oracle on a 2-domain pool
    "oracle_sta_300": {
        "kind": "cli", "cells": 300, "models": "oracle",
        "domains": 2, "paths": 1, "setups": 9,
    },
    # a served ECO stream from a client in another process
    "serve_eco_10k": {"kind": "serve", "cells": 10_000, "setups": 5},
}

REPORT_PREFIXES = ("arrivals:", "critical output:", "path #", "no primary output")
SERVE_REPLAY_REQUESTS = 400
# The served phase is a fixed amount of work, so that the daemon's peak
# RSS (its memo grows with every ECO) compares across runs: script
# cycles per session sized to last about --seconds on a 2-core host
# (one cycle per session takes about 3 s there).
SERVE_CYCLE_NOMINAL_S = 3.0


class BenchError(Exception):
    """The benchmark could not run (as opposed to an output check failing)."""


class Proc:
    def __init__(self, rc, wall, maxrss_mb, stdout, stderr):
        self.rc, self.wall, self.maxrss_mb = rc, wall, maxrss_mb
        self.stdout, self.stderr = stdout, stderr


def kill_quietly(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Runs child processes to completion under one deadline, timing each
    one and reading its peak RSS from wait4."""

    def __init__(self, deadline, run_dir):
        self.deadline = deadline
        self.run_dir = run_dir
        self.count = 0
        self.live = set()

    def remaining(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def start(self, cmd, name):
        out = open(os.path.join(self.run_dir, name + ".out"), "wb")
        err = open(os.path.join(self.run_dir, name + ".err"), "wb")
        try:
            p = subprocess.Popen(cmd, cwd=self.run_dir, stdout=out, stderr=err)
        finally:
            out.close()
            err.close()
        self.live.add(p)
        return p

    def wait(self, p, name, t0, timeout=None):
        limit = self.remaining() if timeout is None else min(timeout, self.remaining())
        # signal the pid directly: Popen.kill() may reap the child first,
        # and the wait4 below must be the one that reaps it
        timer = threading.Timer(limit, kill_quietly, (p.pid,))
        timer.start()
        try:
            _, status, ru = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
        self.live.discard(p)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
        with open(os.path.join(self.run_dir, name + ".out"), "rb") as f:
            stdout = f.read().decode("utf-8", "replace")
        with open(os.path.join(self.run_dir, name + ".err"), "rb") as f:
            stderr = f.read().decode("utf-8", "replace")
        return Proc(p.returncode, wall, ru.ru_maxrss / 1024.0, stdout, stderr)

    def run(self, cmd):
        self.count += 1
        name = "p%03d" % self.count
        t0 = time.perf_counter()
        p = self.start(cmd, name)
        return self.wait(p, name, t0)

    def stop_all(self):
        """Kill and reap whatever is still running (an error path)."""
        for p in list(self.live):
            p.kill()
            p.wait()
        self.live.clear()


def pb_json(proc, what):
    """The result line of a pb.exe command."""
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise BenchError("%s printed nothing (exit %d): %s" % (what, proc.rc, proc.stderr[-2000:]))
    try:
        return json.loads(lines[-1])
    except ValueError:
        raise BenchError("%s: unparsable result line: %s" % (what, lines[-1][:200]))


def report_lines(stdout):
    return [l for l in stdout.splitlines() if l.startswith(REPORT_PREFIXES)]


# --- the CLI workloads -------------------------------------------------------


def sta_cmd(w, design, *extra):
    cmd = [PROXIM, "sta", design, "--models", w["models"],
           "--pi-all", PI_ALL, "--summary"]
    if w["paths"] != 1:
        cmd += ["--paths", str(w["paths"])]
    return cmd + ["--domains", str(w["domains"])] + list(extra)


def gen_design(runner, w, seed, times):
    walls = []
    for _ in range(times):
        r = runner.run([PROXIM, "gen", "-n", str(w["cells"]),
                        "--seed=%d" % seed, "-o", "design.pxb"])
        if r.rc != 0:
            raise BenchError("proxim gen failed: " + r.stderr[-2000:])
        walls.append(r.wall)
    return walls


class Checks:
    def __init__(self):
        self.errors = []

    def expect(self, ok, message):
        if not ok:
            self.errors.append(message)


def no_prune_check(runner, w, checks, lines):
    r = runner.run(sta_cmd(w, "design.pxb", "--no-prune"))
    checks.expect(r.rc == 0, "--no-prune run exited %d" % r.rc)
    checks.expect(report_lines(r.stdout) == lines,
                  "default and --no-prune print different arrivals or paths")


def run_cli(runner, w, seed, seconds, trace, checks, details):
    samples = {"setup_s": gen_design(runner, w, seed, 1 if trace else w["setups"])}
    attempted = failed = 0

    def sta(*extra):
        nonlocal attempted, failed
        r = runner.run(sta_cmd(w, "design.pxb", *extra))
        attempted += 1
        if r.rc != 0:
            failed += 1
            checks.expect(False, "proxim sta exited %d: %s" % (r.rc, r.stderr[-500:]))
        return r

    if not trace:
        walls, rss, outputs = [], [], []
        t_phase = time.monotonic()
        # at least 3 runs; then another only if it would end about in time
        while (len(walls) < 3
               or time.monotonic() - t_phase + statistics.median(walls) / 2 < seconds):
            r = sta()
            walls.append(r.wall)
            rss.append(r.maxrss_mb)
            outputs.append(report_lines(r.stdout))
        checks.expect(all(o == outputs[0] for o in outputs),
                      "repeated runs printed different reports")
        checks.expect(len(outputs[0]) >= 2, "no report lines in the CLI output")
        no_prune_check(runner, w, checks, outputs[0])
        samples.update(wall_s=walls, peak_rss_mb=rss)
        metrics = {
            "setup_s": statistics.median(samples["setup_s"]),
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(rss),
            "req_per_s": len(walls) / sum(walls),
        }
        details["samples"] = samples
        return metrics, attempted, failed

    plain = sta()
    lines = report_lines(plain.stdout)
    traced = sta("--trace", "cli_trace.json", "--metrics", "json")
    checks.expect(report_lines(traced.stdout) == lines,
                  "--trace changed the printed report")
    with open(os.path.join(runner.run_dir, "cli.lines"), "w") as f:
        f.write("\n".join(lines) + "\n")
    cli_trace = pb_json(runner.run([PB, "cli-trace", "cli_trace.json",
                                    "--wall", repr(traced.wall)]), "pb cli-trace")
    cli_counters = {}
    for line in reversed(traced.stdout.splitlines()):
        if line.startswith("{"):
            cli_counters = json.loads(line).get("counters", {})
            break
    replay = pb_json(runner.run([PB, "replay-sta", "design.pxb",
                                 "--models", w["models"], "--domains", str(w["domains"]),
                                 "--paths", str(w["paths"]), "--cli-lines", "cli.lines"]),
                     "pb replay-sta")
    attempted += 1
    if not replay["ok"]:
        failed += 1
    for e in replay["errors"]:
        checks.expect(False, e)
    no_prune_check(runner, w, checks, lines)
    totals = cli_trace["details"]["span_totals_s"]
    metrics = dict(replay["metrics"])
    metrics.update({
        "trace.overhead_ratio": replay["details"]["replay_wall_s"] / plain.wall,
        "cli.traced_wall_s": traced.wall,
        "cli.span_coverage": cli_trace["metrics"]["span_coverage"],
        "cli.verify_propagate_s": totals.get("verify.propagate", 0.0),
        "cli.hazard_propagate_s": totals.get("hazard.propagate", 0.0),
        "cli.hazard_required_s": totals.get("hazard.required", 0.0),
        "cli.sta_analyze_s": totals.get("sta.analyze", 0.0),
        "cli.cells_evaluated": cli_counters.get("timing.cells_evaluated", 0),
        "cli.cache_misses": cli_counters.get("cache.misses", 0),
        "cli.pruned_evaluations": cli_counters.get("sta.pruned_evaluations", 0),
    })
    details.update(replay=replay["details"], cli_span_totals_s=totals,
                   cli_counters=cli_counters, untraced_cli_wall_s=plain.wall)
    return metrics, attempted, failed


# --- the served workload -----------------------------------------------------


def start_daemon(runner, sock):
    """Start `proxim serve` and return (process, seconds until it accepts)."""
    path = os.path.join(runner.run_dir, sock)
    if os.path.exists(path):
        os.unlink(path)
    runner.count += 1
    name = "daemon%03d" % runner.count
    t0 = time.perf_counter()
    p = runner.start([PROXIM, "serve", "--listen", "unix:" + sock], name)
    while True:
        s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            s.connect(path)
            return p, name, t0, time.perf_counter() - t0
        except OSError:
            if p.poll() is not None or time.perf_counter() - t0 > 30:
                p.kill()
                runner.wait(p, name, t0, timeout=5)
                raise BenchError("proxim serve did not start")
            time.sleep(0.001)
        finally:
            s.close()


def serve_once(runner, w, seed, cycles, setup_only):
    """One daemon lifetime: start, run the client (which ends it with a
    shutdown request), reap.  Returns (setup seconds, client result,
    daemon process record)."""
    p, name, t0, ready_s = start_daemon(runner, "d.sock")
    cmd = [PB, "serve-client", "--socket", "d.sock", "--seed", str(seed),
           "--cells", str(w["cells"]), "--cycles", str(cycles)]
    if setup_only:
        cmd.append("--setup-only")
    try:
        client = pb_json(runner.run(cmd), "pb serve-client")
    except BaseException:
        runner.stop_all()
        raise
    daemon = runner.wait(p, name, t0, timeout=15)
    if daemon.rc != 0:
        raise BenchError("proxim serve exited %d: %s" % (daemon.rc, daemon.stderr[-2000:]))
    return ready_s + client["metrics"]["setup_client_s"], client, daemon


def run_serve(runner, w, seed, seconds, trace, checks, details):
    setups = []
    for _ in range(w["setups"] - 1 if not trace else 0):
        s, client, _ = serve_once(runner, w, seed, 0, True)
        for e in client["errors"]:
            checks.expect(False, e)
        setups.append(s)
    cycles = max(2, round(seconds / SERVE_CYCLE_NOMINAL_S))
    s, client, daemon = serve_once(runner, w, seed, cycles, False)
    setups.append(s)
    for e in client["errors"]:
        checks.expect(False, e)
    c = client["metrics"]
    attempted, failed = int(c["attempted"]), int(c["failed"])
    details.update(client=c, setup_samples_s=setups, server_metrics=client["details"])
    if not trace:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": c["cycle_median_s"],
            "peak_rss_mb": daemon.maxrss_mb,
            "req_per_s": c["req_per_s"],
        }
        return metrics, attempted, failed

    replay = pb_json(runner.run([PB, "serve-replay", "--seed", str(seed),
                                 "--cells", str(w["cells"]),
                                 "--requests", str(SERVE_REPLAY_REQUESTS)]),
                     "pb serve-replay")
    for e in replay["errors"]:
        checks.expect(False, e)
    rd = replay["details"]
    metrics = dict(replay["metrics"])
    metrics.update({
        "server.eco_p50_ms": c["server_eco_p50_ms"],
        "server.query_p50_ms": c["server_query_p50_ms"],
        "serve.outside_handler_ms": c["outside_handler_ms"],
        "trace.overhead_ratio":
            (rd["replay_loop_s"] / rd["replay_requests"]) / (c["mean_request_ms"] / 1e3),
    })
    for k in ("eco", "query"):
        for q in ("p50_ms", "p90_ms", "samples"):
            metrics["client.%s_%s" % (k, q)] = c["%s_%s" % (k, q)]
    details["replay"] = rd
    return metrics, attempted, failed


# --- provenance --------------------------------------------------------------


def source_digest():
    """A content hash of the sources, for checkouts without git metadata."""
    h = hashlib.sha256()
    with open("dune-project", "rb") as f:
        h.update(f.read())
    for top in ("bin", "lib", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames.sort()
            for fn in sorted(filenames):
                path = os.path.join(dirpath, fn)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def command_output(cmd):
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=20).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def stamp(args, w):
    commit = command_output(["git", "rev-parse", "HEAD"]) if os.path.isdir(".git") else ""
    nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit or "unknown (not a git checkout)",
        "source_digest": source_digest(),
        "nproc": nproc,
        "domains": w.get("domains", "daemon default (%d)" % nproc),
        "ocaml": command_output(["ocamlfind", "ocamlopt", "-version"]) or "unknown",
    }


# --- main --------------------------------------------------------------------


def build():
    os.makedirs(OUT_DIR, exist_ok=True)
    env = dict(os.environ, DUNE_CACHE="disabled")
    with open(os.path.join(OUT_DIR, "build.log"), "wb") as log:
        r = subprocess.run(["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
                            "./bin/proxim_cli.exe", "./perfbench/pb.exe"],
                           stdout=log, stderr=subprocess.STDOUT, env=env, timeout=880)
    if r.returncode != 0:
        with open(os.path.join(OUT_DIR, "build.log")) as f:
            sys.stderr.write(f.read()[-4000:])
        raise BenchError("build failed")


def load_metric_specs():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isfile(os.path.join("bin", "dune"))):
        sys.exit("perfbench: run from the root of a proxim source tree "
                 "(no dune-project, lib/ or bin/dune here)")
    end_to_end, per_layer = load_metric_specs()
    specs = per_layer if args.trace else end_to_end
    w = WORKLOADS[args.workload]

    build()
    deadline = time.monotonic() + RUN_BUDGET_S
    run_dir = os.path.join(RUN_ROOT, "%s-s%d-p%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(run_dir)
    checks = Checks()
    details = {"stamp": stamp(args, w)}
    runner = Runner(deadline, run_dir)
    try:
        run = run_cli if w["kind"] == "cli" else run_serve
        metrics, attempted, failed = run(runner, w, args.seed, args.seconds,
                                         args.trace == 1, checks, details)
    finally:
        runner.stop_all()
        shutil.rmtree(run_dir, ignore_errors=True)

    if args.trace:
        metrics["fail_ratio"] = failed / attempted if attempted else 0.0
    unknown = set(metrics) - {m["name"] for m in specs}
    if unknown:
        raise BenchError("metrics missing from BENCHMARK.json: %s" % sorted(unknown))
    result_metrics = {}
    for m in specs:
        if m["name"] not in metrics and not args.trace:
            raise BenchError("workload did not measure " + m["name"])
        # a layer this workload never enters reads 0 (see NOTES.md)
        result_metrics[m["name"]] = {"value": metrics.get(m["name"], 0.0), "unit": m["unit"]}

    correct = not checks.errors and failed == 0
    details.update(errors=checks.errors, metrics=result_metrics,
                   attempted=attempted, failed=failed)
    out = os.path.join(OUT_DIR, "%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(out, "w") as f:
        json.dump(details, f, indent=1)
    print(json.dumps({"stamp": details["stamp"]}))
    for e in checks.errors:
        print("CHECK FAILED: " + e, file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": result_metrics if correct else {},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("perfbench: terminated"))
    try:
        sys.exit(main())
    except BenchError as e:
        print("perfbench: " + str(e), file=sys.stderr)
        sys.exit(1)
