#!/usr/bin/env python3
"""The lowvolt benchmark.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cli-netlist --seed 42 --seconds 30 --trace 0

It builds the release `lowvolt` binary and the in-process harness
(`perfbench/harness`), writes the workload's inputs, runs the workload
for `--seconds`, checks every output against an oracle, and prints one
JSON object as the last line of stdout. `--trace 0` reports the
end-to-end metrics of BENCHMARK.json, `--trace 1` the per-layer ones.
The metric catalog and the reasons behind each workload are in
`perfbench/README.md`.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

WORKLOADS = ("cli-netlist", "datapath-words", "serve-mixed")
# Workloads whose operations go to one `lowvolt serve` daemon.
DAEMON_WORKLOADS = ("serve-mixed",)
DEFAULT_SEED = 42
HELD_OUT_SEED = 1009
# setup_s is the median of this many set-ups: the workload's inputs
# built, and for serve-mixed a daemon started up to its first hello.
SETUP_REPEATS = 9


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--scale",
        choices=("full", "small"),
        default="full",
        help="input sizes; `small` is the smoke test's",
    )
    args = p.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")
    return args


def catalog():
    """Metric names and units, from BENCHMARK.json."""
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json in the working directory: {e}")
    return {
        0: [(m["name"], m["unit"]) for m in spec["end_to_end"]],
        1: [(m["name"], m["unit"]) for m in spec["per_layer"]],
    }


def build():
    """Builds `lowvolt` and the harness; returns their paths."""
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates/cli")):
        fail("run from the root of a lowvolt checkout (Cargo.toml, crates/ missing)")
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "lowvolt-cli"],
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--manifest-path",
            "perfbench/harness/Cargo.toml",
        ],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")
    release = os.path.join(target, "release")
    return os.path.join(release, "lowvolt"), os.path.join(release, "lowvolt-perfbench")


def harness(binary, cmd, common, *extra):
    """Runs one harness step and returns its JSON answer."""
    r = subprocess.run(
        [binary, cmd, *common, *extra], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    if r.returncode != 0:
        sys.stderr.write(r.stderr.decode(errors="replace"))
        fail(f"harness {cmd} failed")
    return json.loads(r.stdout.decode().strip().splitlines()[-1])


def run_child(argv, stderr_path):
    """Runs one cold process; returns (wall ms, exit code, stdout, max RSS KiB)."""
    with open(stderr_path, "wb") as err:
        t = time.perf_counter()
        p = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        out = p.stdout.read()
        p.stdout.close()
        _, status, usage = os.wait4(p.pid, 0)
        ms = (time.perf_counter() - t) * 1e3
    p.returncode = os.waitstatus_to_exitcode(status)
    return ms, p.returncode, out, usage.ru_maxrss


def cli_loop(lowvolt, manifest, work, seconds):
    """Runs whole cycles of cold CLI operations until `seconds` pass."""
    expect = {}
    for op in manifest["ops"]:
        with open(op["expect"], "rb") as f:
            expect[op["kind"]] = f.read()
    samples = {op["kind"]: [] for op in manifest["ops"]}
    failures = []
    attempted, peak_kib, cycles = 0, 0, 0
    start = time.perf_counter()
    while cycles == 0 or time.perf_counter() - start < seconds:
        for op in manifest["ops"]:
            kind = op["kind"]
            attempted += 1
            ms, code, out, rss = run_child(
                [lowvolt, *op["argv"]], os.path.join(work, "stderr.txt")
            )
            peak_kib = max(peak_kib, rss)
            if code != 0:
                failures.append(f"{kind}: exit code {code}")
            elif out != expect[kind]:
                failures.append(f"{kind}: stdout differs from the oracle")
            else:
                samples[kind].append(ms)
        cycles += 1
    elapsed = time.perf_counter() - start
    return samples, attempted, failures, peak_kib, elapsed, cycles


class Daemon:
    """A `lowvolt serve` child on an ephemeral port, started up to the
    first `hello` a client receives."""

    def __init__(self, lowvolt, state):
        self.proc = subprocess.Popen(
            [lowvolt, "serve", "--listen", "127.0.0.1:0", "--state", state],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
        )
        line = self.proc.stdout.readline().decode()
        if "listening on " not in line:
            self.stop()
            fail(f"daemon did not start: {line!r}")
        self.addr = line.strip().rsplit("listening on ", 1)[1]
        host, port = self.addr.rsplit(":", 1)
        try:
            with socket.create_connection((host, int(port)), timeout=30) as s:
                hello = s.makefile("rb").readline()
        except OSError as e:
            hello = repr(e).encode()
        if b'"hello"' not in hello:
            self.stop()
            fail(f"daemon sent no hello: {hello!r}")

    def peak_rss_kib(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        fail("daemon VmHWM unavailable")

    def stop(self):
        if self.proc.poll() is None:
            try:
                host, port = self.addr.rsplit(":", 1)
                with socket.create_connection((host, int(port)), timeout=10) as s:
                    f = s.makefile("rwb")
                    f.readline()
                    f.write(b'{"cmd":"shutdown"}\n')
                    f.flush()
                    f.readline()
                self.proc.wait(timeout=30)
            except (OSError, AttributeError, ValueError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def command_output(argv):
    try:
        r = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        return r.stdout.decode().strip() if r.returncode == 0 else None
    except OSError:
        return None


def main():
    # A terminated run still stops its daemon and removes its work dir.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    args = parse_args()
    names = catalog()
    lowvolt, harness_bin = build()
    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(".bench_work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", args.scale,
        "--work", work,
        "--threads", str(nproc),
    ]
    host = {
        "nproc": nproc,
        "rustc": command_output(["rustc", "-V"]),
        "commit": command_output(["git", "rev-parse", "HEAD"]),
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "profile": "release",
        "workload": args.workload,
        "scale": args.scale,
        "trace": args.trace,
    }
    daemon = None
    try:
        if args.trace == 1:
            extra = ["--lowvolt", lowvolt, "--seconds", str(args.seconds)]
            if args.workload in DAEMON_WORKLOADS:
                daemon = Daemon(lowvolt, os.path.join(work, "state"))
                extra += ["--addr", daemon.addr]
            out = harness(harness_bin, "trace", common, *extra)
            measured = out["metrics"]
            host["trace_pair_ms"] = {
                "untraced": measured["trace.untraced_ms"],
                "traced": measured["trace.traced_ms"],
            }
            host["passes"] = out["passes"]
            attempted, failures = out["attempted"], out["failures"]
        else:
            # The harness builds the inputs SETUP_REPEATS times, each timed
            # in process; each repeat is paired with one daemon start on a
            # fresh state dir. The last daemon is the one the run uses.
            # Oracles are computed after, outside the timed region.
            setups = []
            input_ms = harness(
                harness_bin, "setup", common, "--repeats", str(SETUP_REPEATS)
            )["input_ms"]
            for ms in input_ms:
                start_s = 0.0
                if args.workload in DAEMON_WORKLOADS:
                    if daemon is not None:
                        daemon.stop()
                    shutil.rmtree(os.path.join(work, "state"), ignore_errors=True)
                    t = time.perf_counter()
                    daemon = Daemon(lowvolt, os.path.join(work, "state"))
                    start_s = time.perf_counter() - t
                setups.append(ms / 1e3 + start_s)
            setup_s = statistics.median(setups)
            host["setup_samples_s"] = setups
            manifest = harness(harness_bin, "oracle", common)
            if daemon is None:
                samples, attempted, failures, peak_kib, elapsed, cycles = cli_loop(
                    lowvolt, manifest, work, args.seconds
                )
            else:
                out = harness(
                    harness_bin, "drive", common,
                    "--addr", daemon.addr, "--seconds", str(args.seconds),
                )
                peak_kib = daemon.peak_rss_kib()
                samples, attempted, failures = out["samples"], out["attempted"], out["failures"]
                elapsed, cycles = out["elapsed_s"], out["cycles"]
                host["verify_s"] = out["verify_s"]
            host["samples"] = {k: len(v) for k, v in samples.items()}
            host["op_ms"] = samples
            # Per-kind medians, for reading only: outside the campaign they
            # spread too much between runs to serve as bounded metrics.
            host["op_p50_ms"] = {
                k: statistics.median(v) for k, v in samples.items() if v
            }
            host["cycles"] = cycles
            done = sum(len(v) for v in samples.values())
            measured = {
                "setup_s": setup_s,
                "campaign_s": host["op_p50_ms"].get("campaign", 0.0) / 1e3,
                "ops_per_s": done / elapsed,
                "peak_rss_mb": peak_kib / 1024,
                "ok_frac": (attempted - len(failures)) / attempted,
            }
    finally:
        if daemon is not None:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)

    metrics, unmeasured = {}, []
    for name, unit in names[args.trace]:
        value = measured.get(name)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            unmeasured.append(name)
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
    host["failures"] = failures[:20]
    host["unmeasured"] = unmeasured
    print(json.dumps({"host": host}))
    print(
        json.dumps(
            {
                "correct": not failures and not unmeasured,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
