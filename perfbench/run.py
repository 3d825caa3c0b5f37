#!/usr/bin/env python3
"""LTEE benchmark: builds the program, runs one workload, checks its outputs
and prints every metric.

    python3 perfbench/run.py --workload batch|ingest [--seed 42]
        [--seconds 40] [--trace 0|1]

Run it from the repository root. It builds `ltee_cli` and the benchmark's
helpers under .bench_build/ (first run only), generates the workload's
inputs with `ltee_cli generate`, and drives the program from outside: the
timed command is `ltee_cli run` (batch) or `ltee_cli ingest` (ingest),
run as often as --seconds holds its nominal duration (spec.json `rep_s`),
after which `ltee_cli serve` serves the snapshot it published and
perfbench_load sends it open-loop HTTP traffic. The pipeline's inputs are
fixed (see "seeds" in spec.json); --seed drives the HTTP request stream.
setup_s, op_s and p50_ms.r1 are scaled to a reference host speed, which
perfbench_ref reads around each timed interval (spec.json "reference").

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones: the CLI command is timed once more and then replayed in
process by perfbench_trace, one span per layer call. perfbench/spec.json
records the workloads' parameters and the reasons behind them.

Human-readable lines (each metric with its unit and sample count, the
machine facts, the snapshot content hash) come first; the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics. The exit status is 0 only when every output check
passed. When one of the program's processes fails (exits non-zero, is
killed at the time budget, never serves), the run stops, counts it as one
failed operation, prints the result line with correct=false and no
metrics, and exits 1. Exit 2 without a result means that
nothing could be measured: bad usage, no sources to build, or a failed
build.
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
CLI = os.path.join(BUILD, "ltee", "tools", "ltee_cli")
TRACE = os.path.join(BUILD, "perfbench_trace")
LOAD = os.path.join(BUILD, "perfbench_load")
REF = os.path.join(BUILD, "perfbench_ref")
# A run must end within 180 s; subprocesses are killed past this.
DEADLINE_S = 170.0


class BenchError(Exception):
    """A failure that leaves no result to report."""


class ProgramFailed(Exception):
    """A process of the program failed: one failed operation, after which
    the workload stops. `output` is the tail of what the process printed."""

    def __init__(self, what, output=""):
        super().__init__(what)
        self.output = output


def nproc():
    return len(os.sched_getaffinity(0))


def log(line):
    print(line, flush=True)


class Runner:
    """Spawns the program's processes, times them, and stops them all."""

    def __init__(self, work):
        self.work = work
        self.start = time.monotonic()
        self.live = []

    def remaining(self):
        left = DEADLINE_S - (time.monotonic() - self.start)
        if left <= 0:
            raise ProgramFailed("the run exceeded its time budget")
        return left

    def timed(self, args, name):
        """Runs `args` to completion. Returns (wall s, exit code, peak RSS
        MiB, output); output goes to <name>.log in the work directory."""
        path = os.path.join(self.work, name + ".log")
        timeout = self.remaining()
        with open(path, "w") as out:
            t0 = time.monotonic()
            proc = subprocess.Popen(args, cwd=self.work, stdout=out,
                                    stderr=subprocess.STDOUT)
            self.live.append(proc)
            code, rss = self.reap(proc, timeout)
            wall = time.monotonic() - t0
        with open(path) as f:
            return wall, code, rss, f.read()

    def reap(self, proc, timeout):
        """Waits for `proc`, killing it after `timeout` s. Returns (exit
        code, peak RSS in MiB)."""
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.live.remove(proc)
        return proc.returncode, usage.ru_maxrss / 1024.0

    def start_server(self, snapshot, name):
        """Starts `ltee_cli serve`; returns (process, port, seconds from
        spawn to the first 200 from /healthz)."""
        t0 = time.monotonic()
        with open(os.path.join(self.work, name + ".log"), "w") as err:
            proc = subprocess.Popen(
                [CLI, "serve", "--snapshot", snapshot, "--port", "0"],
                cwd=self.work, stdout=subprocess.PIPE, stderr=err, text=True)
        self.live.append(proc)
        ready, _, _ = select.select([proc.stdout], [], [], 30.0)
        line = proc.stdout.readline() if ready else ""
        match = re.search(r"http://localhost:(\d+)", line)
        if not match:
            raise ProgramFailed("ltee_cli serve did not start: "
                                + line.strip())
        port = int(match.group(1))
        while http_status(port, "/healthz") != 200:
            if time.monotonic() - t0 > 30.0:
                raise ProgramFailed("ltee_cli serve never answered /healthz")
            time.sleep(0.001)
        return proc, port, time.monotonic() - t0

    def stop_server(self, proc):
        """SIGTERM, then reap. Returns (clean shutdown, peak RSS MiB)."""
        proc.send_signal(signal.SIGTERM)
        code, rss = self.reap(proc, 20.0)
        rest = proc.stdout.read()
        proc.stdout.close()
        return code == 0 and "kb service stopped" in rest, rss

    def stop_all(self):
        for proc in list(self.live):
            proc.kill()
            self.reap(proc, 5.0)


def http_status(port, path):
    """Status of one GET on loopback, 0 when the connection fails."""
    try:
        with socket.create_connection(("127.0.0.1", port), timeout=2) as s:
            s.sendall(("GET %s HTTP/1.1\r\nHost: localhost\r\n"
                       "Connection: close\r\n\r\n" % path).encode())
            head = s.recv(64).decode("latin-1")
        return int(head.split()[1]) if head.startswith("HTTP/") else 0
    except (OSError, ValueError, IndexError):
        return 0


def digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def tree_digest(directory):
    return {name: digest(os.path.join(directory, name))
            for name in sorted(os.listdir(directory))}


def build():
    """Configures and builds ltee_cli and the helpers (a no-op when up to
    date). Returns the machine facts of the build."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))
            and os.path.isfile(os.path.join(ROOT, "tools", "ltee_cli.cpp"))):
        raise BenchError("no LTEE sources next to the benchmark: run from a "
                         "checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(ROOT, ".bench_build", "build.log")
    with open(build_log, "w") as out:
        # Configuring every time is quick, and picks up new targets.
        steps = [["cmake", "-S", HERE, "-B", BUILD,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", BUILD, "-j", str(nproc()),
                  "--target", "ltee_cli", "perfbench_trace",
                  "perfbench_load", "perfbench_ref"]]
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT):
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        cache = f.read()

    def cached(key):
        m = re.search(r"^%s:[A-Z]+=(.*)$" % key, cache, re.M)
        return m.group(1) if m else ""

    compiler = cached("CMAKE_CXX_COMPILER")
    version = subprocess.run([compiler, "--version"], capture_output=True,
                             text=True).stdout.splitlines()
    return {"nproc": nproc(), "build_type": cached("CMAKE_BUILD_TYPE"),
            "compiler": version[0] if version else compiler}


class Checks:
    """Output checks; every failure counts as one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


def repetitions(spec, workload, seconds, trace):
    """How often the timed command runs: as often as --seconds holds its
    nominal duration (spec.json `rep_s`), at least once; once when traced.
    The count depends on --seconds alone, never on how fast the host is."""
    if trace:
        return 1
    return max(1, int(seconds // spec["workloads"][workload]["rep_s"]))


class HostSpeed:
    """Scales timings to a fixed reference speed of the host.

    A shared VM's speed drifts by tens of percent over minutes (spec.json
    "steadiness"), and the pipeline commands and the HTTP round trips take
    longer by about the same factor. perfbench_ref reads the host's speed
    as the mean time of a fixed chunk of integer work on every CPU. It runs
    at the start and after every timed interval; an interval's time is
    multiplied by the nominal chunk time over the mean of the readings on
    either side."""

    def __init__(self, runner, spec):
        self.runner = runner
        self.seconds = spec["reference"]["seconds"]
        self.nominal_ms = spec["reference"]["chunk_ms"]
        self.readings = []
        self.read()

    def read(self):
        _, code, _, output = self.runner.timed(
            [REF, str(self.seconds)], "reference%d" % len(self.readings))
        try:
            self.readings.append(float(output))
        except ValueError:
            raise ProgramFailed("perfbench_ref: exit %d" % code, output)

    def scale(self, wall):
        """Scales `wall`, timed since the last reading; reads again."""
        before = self.readings[-1]
        self.read()
        return wall * self.nominal_ms / ((before + self.readings[-1]) / 2)


def pipeline_op(runner, checks, speed, args, reps, name, verify):
    """Runs the timed pipeline command `reps` times. `verify(i, output)`
    returns a problem string or ''. Returns (wall times, the same scaled by
    `speed`, peak RSS values)."""
    walls, scaled, rss = [], [], []
    for i in range(reps):
        wall, code, peak, output = runner.timed(args(i), "%s%d" % (name, i))
        if code != 0:
            raise ProgramFailed("ltee_cli %s %d: exit %d" % (name, i, code),
                                output)
        problem = verify(i, output)
        checks.op(not problem, "%s %d: %s" % (name, i, problem))
        walls.append(wall)
        scaled.append(speed.scale(wall))
        rss.append(peak)
    return walls, scaled, rss


def same_files(checks, paths, what):
    """All repetitions must publish byte-identical files."""
    digests = {digest(p) if os.path.isfile(p) else None for p in paths}
    checks.op(len(digests) == 1 and None not in digests,
              what + " differ between repetitions")


def serve_phase(runner, checks, spec, snapshot, version, seed, trace):
    """Serves `snapshot` and drives it. Returns the load generator's
    result, the ready times and the server's peak RSS."""
    serve = spec["serve"]
    readies = []
    starts = serve["starts"]
    for k in range(starts):
        proc, port, ready = runner.start_server(snapshot, "serve%d" % k)
        readies.append(ready)
        if k + 1 < starts:
            clean, _ = runner.stop_server(proc)
            checks.op(clean, "server %d did not shut down cleanly" % k)
    ladder = serve["ladder"]
    rungs = [round(ladder["from"] * ladder["step"] ** k)
             for k in range(ladder["rungs"])]
    out = os.path.join(runner.work, "load.json")
    args = [LOAD, "--port", str(port), "--snapshot", snapshot,
            "--seed", str(seed),
            "--rates", "%d,%d" % (serve["rates"]["r1"], serve["rates"]["r2"]),
            "--phase-s", str(serve["phase_s"]),
            "--ladder", ",".join(map(str, rungs)),
            "--rung-s", str(serve["rung_s"]),
            "--p99-limit-ms", str(serve["p99_limit_ms"]),
            "--expect-version", str(version), "--out", out]
    if trace:
        args.append("--trace")
    _, code, _, output = runner.timed(args, "load")
    clean, server_rss = runner.stop_server(proc)
    checks.op(clean, "server did not shut down cleanly")
    if not os.path.isfile(out):
        raise ProgramFailed("perfbench_load wrote no result", output)
    with open(out) as f:
        load = json.load(f)
    checks.attempted += int(load["attempted"])
    checks.failed += int(load["failed"])
    checks.op(code == 0, "serve checks: " + "; ".join(load["failures"]))
    return load, readies, server_rss


def generate(runner, spec, workload, out):
    wall, code, _, output = runner.timed(
        [CLI, "generate", "--out", out, "--seed", str(spec["data_seed"])]
        + spec["workloads"][workload]["generate"], "generate-" + out)
    if code != 0:
        raise ProgramFailed("ltee_cli generate: exit %d" % code, output)
    return wall


def run_batch(runner, checks, spec, seed, seconds, trace):
    """Returns (values, sample counts) of the metrics."""
    speed = HostSpeed(runner, spec)
    reps = 1 if trace else spec["workloads"]["batch"]["setups"]
    setups = [generate(runner, spec, "batch", "gen%d" % k)
              for k in range(reps)]
    timings = {"setup_s": (speed.scale(statistics.median(setups)), reps)}
    if reps > 1:
        inputs = [tree_digest(os.path.join(runner.work, "gen%d" % k))
                  for k in range(reps)]
        checks.op(all(d == inputs[0] for d in inputs),
                  "generate is not deterministic")
    d = "gen0/"
    inputs = ["--kb", d + "kb.tsv", "--corpus", d + "corpus.tsv",
              "--gs-corpus", d + "gs_corpus.tsv", "--gold", d + "gold.tsv"
              ] + spec["run_flags"]
    args = lambda i: [CLI, "run", "--ntriples", "out%d.nt" % i,
                      "--publish-snapshot", "snap%d.bin" % i] + inputs

    def verify(i, output):
        nt = os.path.join(runner.work, "out%d.nt" % i)
        if not os.path.isfile(nt) or os.path.getsize(nt) == 0:
            return "empty N-Triples"
        return "" if "snapshot v1 written" in output else "no snapshot"

    walls, scaled, rss = pipeline_op(
        runner, checks, speed, args,
        repetitions(spec, "batch", seconds, trace), "run", verify)
    timings["op_s"] = (statistics.median(scaled), len(scaled))
    same_files(checks, [os.path.join(runner.work, "snap%d.bin" % i)
                        for i in range(len(walls))], "snapshots")
    layers = {}
    if trace:
        layers = replay(runner, checks, [
            "run", "--ntriples", "replay.nt", "--snapshot", "replay.bin",
            "--expect-snapshot", "snap0.bin"] + inputs)
        same_files(checks, [os.path.join(runner.work, "out0.nt"),
                            os.path.join(runner.work, "replay.nt")],
                   "replay and CLI N-Triples")
        layers["trace.cli_ms"] = walls[0] * 1000.0
    load, readies, server_rss = serve_phase(
        runner, checks, spec, os.path.join(runner.work, "snap0.bin"), 1,
        seed, trace)
    timings["p50_ms.r1"] = (speed.scale(load["p50_ms.r1"]),
                            load["samples.r1"])
    return summarize(timings, walls, speed, rss, load, readies, server_rss,
                     layers, trace)


def run_ingest(runner, checks, spec, seed, seconds, trace):
    speed = HostSpeed(runner, spec)
    setup = generate(runner, spec, "ingest", "gen0")
    d = "gen0/"
    wall, code, _, output = runner.timed(
        [CLI, "run", "--kb", d + "kb.tsv", "--corpus", d + "corpus_base.tsv",
         "--gs-corpus", d + "gs_corpus.tsv", "--gold", d + "gold.tsv",
         "--state-out", "base_state",
         "--publish-snapshot", "base.bin"] + spec["run_flags"], "base_run")
    if code != 0:
        raise ProgramFailed("ltee_cli run (base state): exit %d" % code,
                            output)
    timings = {"setup_s": (speed.scale(setup + wall), 1)}
    base = os.path.join(runner.work, "base_state")

    def args(i):
        shutil.copytree(base, os.path.join(runner.work, "state%d" % i))
        return [CLI, "ingest", "--state", "state%d" % i,
                "--delta", d + "corpus_delta.tsv",
                "--publish-snapshot", "snap%d.bin" % i]

    def verify(i, output):
        return "" if "snapshot v2 written" in output else "no v2 snapshot"

    walls, scaled, rss = pipeline_op(
        runner, checks, speed, args,
        repetitions(spec, "ingest", seconds, trace), "ingest", verify)
    timings["op_s"] = (statistics.median(scaled), len(scaled))
    same_files(checks, [os.path.join(runner.work, "snap%d.bin" % i)
                        for i in range(len(walls))], "snapshots")
    layers = {}
    if trace:
        shutil.copytree(base, os.path.join(runner.work, "replay_state"))
        layers = replay(runner, checks, [
            "ingest", "--state", "replay_state",
            "--delta", d + "corpus_delta.tsv", "--snapshot", "replay.bin",
            "--expect-snapshot", "snap0.bin"])
        same_files(checks, [os.path.join(runner.work, "state0", "state.tsv"),
                            os.path.join(runner.work, "replay_state",
                                         "state.tsv")],
                   "replay and CLI delta states")
        layers["trace.cli_ms"] = walls[0] * 1000.0
    load, readies, server_rss = serve_phase(
        runner, checks, spec, os.path.join(runner.work, "snap0.bin"), 2,
        seed, trace)
    timings["p50_ms.r1"] = (speed.scale(load["p50_ms.r1"]),
                            load["samples.r1"])
    return summarize(timings, walls, speed, rss, load, readies, server_rss,
                     layers, trace)


def replay(runner, checks, args):
    """Runs perfbench_trace; returns its per-layer metrics."""
    out = os.path.join(runner.work, "replay.json")
    _, code, _, output = runner.timed(
        [TRACE] + args + ["--spans-out", "spans.json", "--out", out],
        "replay")
    if not os.path.isfile(out):
        raise ProgramFailed("perfbench_trace: exit %d, no result" % code,
                            output)
    checks.op(code == 0, "the traced replay's snapshot differs from the "
              "CLI's: " + output[-2000:])
    with open(out) as f:
        result = json.load(f)
    log("# replay content_hash=%s cli content_hash=%s"
        % (result.pop("content_hash"), result.pop("expected_hash")))
    for layer, row in sorted(result.pop("layers").items()):
        log("# layer %-10s self %10.1f ms  total %10.1f ms  cpu %10.1f ms  "
            "spans %d" % (layer, row["self_ms"], row["total_ms"],
                          row["cpu_ms"], row["count"]))
    return result


def summarize(timings, walls, speed, rss, load, readies, server_rss, layers,
              trace):
    """`timings` maps setup_s, op_s and p50_ms.r1 to (scaled value, sample
    count)."""
    log("# snapshot v%d content_hash=%s entities=%d"
        % (load["version"], load["content_hash"], load["entities"]))
    log("# timed command wall: %s s; host reference chunk: %s ms "
        "(nominal %.3f ms)" % (" ".join("%.3f" % w for w in walls),
                               " ".join("%.4f" % r for r in speed.readings),
                               speed.nominal_ms))
    for name in ("r1", "r2") if trace else ("r1",):
        log("# %s: %d req/s, p50 %.3f ms, p99 %.3f ms, window-median p99 "
            "%.3f ms (n=%d), lateness p99 %.3f ms, backlog growth %.3f ms%s"
            % (name, load["rate." + name], load["p50_ms." + name],
               load["p99_ms." + name], load["p99_window_median_ms." + name],
               load["samples." + name], load["lag_p99_ms." + name],
               load["lag_growth_ms." + name],
               "" if load["valid." + name] else
               " (INVALID: failed requests or a growing backlog)"))
    if trace:
        log("# max_rps %d; ladder probes (x = did not hold): %s" % (
            load["max_rps"], " ".join("%d%s" % (r["rate"],
                                                "" if r["held"] else "x")
                                      for r in load["rungs"])))
        for key in ("obsv.server_p99_ms", "obsv.gen_lag_p99_ms",
                    "obsv.healthz_p50_ms", "obsv.healthz_p99_ms",
                    "serve.engine_us.entity", "serve.engine_us.search",
                    "serve.engine_us.classes", "serve.cache_hit_ratio"):
            layers[key] = load[key]
        layers["serve.ready_ms"] = statistics.median(readies) * 1000.0
        for key in ("p50_ms.r2", "p99_ms.r1", "p99_ms.r2",
                    "p99_window_median_ms.r1", "p99_window_median_ms.r2",
                    "max_rps"):
            layers["obsv." + key] = load[key]
        return layers, {}
    values = {name: value for name, (value, _) in timings.items()}
    samples = {name: count for name, (_, count) in timings.items()}
    values.update({"peak_rss_mb": max(rss), "serve_rss_mb": server_rss})
    samples.update({"peak_rss_mb": len(rss), "serve_rss_mb": 1})
    return values, samples


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "spec.json")) as f:
        spec = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    if args.workload not in spec["workloads"]:
        raise BenchError("unknown workload " + args.workload)
    machine = build()
    log("# machine: nproc=%d build=%s compiler=%s"
        % (machine["nproc"], machine["build_type"], machine["compiler"]))

    work = os.path.join(ROOT, ".bench_build", "runs", "%s-%s" % (
        args.workload, "trace" if args.trace else "e2e"))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(work)
    checks = Checks()
    values, samples = {}, {}
    try:
        workload = run_batch if args.workload == "batch" else run_ingest
        values, samples = workload(runner, checks, spec, args.seed,
                                   args.seconds, bool(args.trace))
    except ProgramFailed as e:
        checks.op(False, str(e))
        sys.stderr.write(e.output[-4000:])
    finally:
        runner.stop_all()

    wanted = bench["per_layer" if args.trace else "end_to_end"]
    metrics = {}
    for m in wanted if values else []:
        if m["name"] not in values:
            raise BenchError("no value for metric " + m["name"])
        value = float(values[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        count = samples.get(m["name"])
        log("%-44s %16.6f %-6s%s" % (m["name"], value, m["unit"],
                                     "" if count is None
                                     else "  (n=%d)" % count))
    for problem in checks.problems:
        log("# FAILED: " + problem)
    correct = checks.failed == 0
    print(json.dumps({"correct": correct, "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}),
          flush=True)
    if not args.trace:
        shutil.rmtree(work, ignore_errors=True)
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(2)
