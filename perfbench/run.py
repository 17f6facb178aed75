#!/usr/bin/env python3
"""Benchmark launcher for the Modyn reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload criteo-bigpart --seed 1 --seconds 20 --trace 0

It builds the program and the benchmark from source with sbt (once per
source state; the build lives in .bench_build/), runs one workload in a JVM
with fixed flags, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics` (every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1, each
with its unit). The line before it is a JSON object with the run's context:
machine, JVM flags, warm-up, source identity and JMX counters of the timed
region.
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import time

BUILD_DIR = pathlib.Path(".bench_build")
# Temporary files (such as DuckDB's extracted native library) stay in the
# checkout too.
TMP_DIR = BUILD_DIR / "tmp"
BENCH_DIR = pathlib.Path("perfbench")
# Parallel GC with a fixed 4 GB heap and 2 GB young generation: on a 4-core
# VM, data-path throughput spread about twice as wide between processes with
# the default G1 and a growing heap.
JVM_FLAGS = ["-XX:+UseParallelGC", "-Xms4g", "-Xmx4g", "-Xmn2g", "-Dfile.encoding=UTF-8"]
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Inputs of the build: a change to any of them triggers a rebuild.
SOURCES = ["build.sbt", "project/build.properties", "src/main", "perfbench/build.sbt",
           "perfbench/project/build.properties", "perfbench/src/main"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def source_hash(root):
    h = hashlib.sha256()
    for rel in SOURCES:
        path = root / rel
        files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(root)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


def build(root, digest):
    """Compile with sbt unless the classpath of this source state exists."""
    classpath_file = BUILD_DIR / "perfbench-target" / "classpath.txt"
    stamp = BUILD_DIR / "stamp"
    if classpath_file.exists() and stamp.exists() and stamp.read_text() == digest:
        return classpath_file.read_text().strip()
    sbt = shutil.which("sbt")
    if sbt is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    # Resolve only from the local caches: the build must never go online.
    env["COURSIER_MODE"] = "offline"
    opts = ["-Dsbt.offline=true", "-Xmx2g", f"-Djava.io.tmpdir={TMP_DIR.resolve()}"]
    repos = pathlib.Path.home() / ".sbt" / "repositories"
    if repos.exists():
        opts += ["-Dsbt.override.build.repos=true", f"-Dsbt.repository.config={repos}"]
    env["SBT_OPTS"] = " ".join(opts)
    cmd = [sbt, "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false", "writeClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=root / BENCH_DIR, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if proc.returncode != 0 or not classpath_file.exists():
        fail(f"build failed (sbt exit code {proc.returncode})")
    stamp.write_text(digest)
    return classpath_file.read_text().strip()


def git_rev(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None."""
    try:
        fields = [int(x) for x in pathlib.Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def format_result(bench, raw, trace):
    """The result line: every metric of the selected list with its unit.

    Raises ValueError if the run's metrics differ from that list or a value
    is not a finite number.
    """
    specs = bench["per_layer" if trace else "end_to_end"]
    names = [s["name"] for s in specs]
    got = raw["metrics"]
    missing = [n for n in names if n not in got]
    extra = sorted(set(got) - set(names))
    if missing or extra:
        raise ValueError(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}")
    metrics = {}
    for s in specs:
        value = got[s["name"]]
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ValueError(f"metric {s['name']} has no finite value: {value!r}")
        metrics[s["name"]] = {"value": value, "unit": s["unit"]}
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    if attempted < 1:
        raise ValueError("no operation was attempted")
    return {"correct": bool(raw["correct"]) and failed == 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    # On SIGTERM, unwind so that the build or the JVM is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    bench_file = root / "BENCHMARK.json"
    if not bench_file.exists():
        fail("run from the repository root: BENCHMARK.json not found")
    bench = json.loads(bench_file.read_text())
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    if not (root / "build.sbt").exists() or not (root / "src" / "main" / "scala").is_dir():
        fail("the program's sources (build.sbt, src/main/scala) are not in this directory")

    TMP_DIR.mkdir(parents=True, exist_ok=True)
    digest = source_hash(root)
    classpath = build(root, digest)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = BUILD_DIR / "work" / f"{tag}-{os.getpid()}"
    trace_file = BUILD_DIR / "traces" / f"{tag}.jsonl"
    cmd = ["java", *JVM_FLAGS, f"-Djava.io.tmpdir={TMP_DIR}", "-cp", classpath, "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work_dir)]
    if args.trace:
        cmd += ["--trace-file", str(trace_file)]
    # Flush what earlier runs wrote or deleted, so its writeback does not
    # overlap this run.
    os.sync()
    started = time.monotonic()
    ticks_before = cpu_ticks()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        shutil.rmtree(work_dir, ignore_errors=True)
        fail(f"workload did not finish within {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    shutil.rmtree(work_dir, ignore_errors=True)
    lines = [l for l in out.splitlines() if l.strip()]
    if proc.returncode != 0 or not lines:
        fail(f"workload exited with code {proc.returncode}")
    try:
        raw = json.loads(lines[-1])
        result = format_result(bench, raw, args.trace == 1)
    except (ValueError, KeyError, TypeError) as e:
        fail(f"bad workload output: {e}")
    context = dict(raw.get("context", {}))
    context.update({"launcher_jvm_flags": JVM_FLAGS, "git_rev": git_rev(root), "source_hash": digest,
                    "run_wall_s": round(time.monotonic() - started, 3)})
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # Share of CPU time the hypervisor gave to other guests during the
        # run: high values explain slow outliers.
        context["cpu_steal_share"] = round(
            (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1]), 4)
    if args.trace:
        context["trace_file"] = str(trace_file)
    print(json.dumps({"context": context}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
