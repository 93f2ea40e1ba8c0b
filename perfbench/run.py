#!/usr/bin/env python3
"""Build and run one perfbench workload; the last stdout line is the result.

    python3 perfbench/run.py --workload fluid-sweep --seed 1 --seconds 40 --trace 0

Run from the repository root. The first call configures and builds the
btmf libraries and the benchmark binary into .bench_build (Release); later calls
rebuild incrementally. Each run gets a fresh work directory under
.bench_work that is removed when the run ends, and one process of its own,
so its peak RSS is that workload's alone. Around that process this script
records the environment: nproc, compiler, build type, git sha, the work
directory's filesystem, and the host's steal and iowait shares over the
run from /proc/stat. The record goes to stdout and, with the result, to
.bench_build/results/. A traced run (--trace 1) also writes its Chrome
trace to .bench_build/traces/.

Exit status: 0 when every output check passed, 1 when one failed (the
result is still printed), 2 when no result could be produced.
"""

import argparse
import array
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORK = ROOT / ".bench_work"
WORKLOADS = ("fluid-sweep", "sim-replicate")
RUN_TIMEOUT_S = 170
# Linux inode flags ioctls (linux/fs.h) and the "top directory" flag.
FS_IOC_GETFLAGS = 0x80086601
FS_IOC_SETFLAGS = 0x40086602
FS_TOPDIR_FL = 0x00020000


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures once, then builds the binary; False on any failure."""
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build step failed:", " ".join(step))
            return False
    return True


def spread_runs(path):
    """Marks `path` a top directory (chattr +T); True when it is one.

    ext4 then places each new subdirectory, and so each run's work
    directory and everything in it, in a block group of its own. Without
    the flag every run allocated its inodes where the previous run had
    just deleted ~10k, and ext4 without a journal makes each create skip
    inodes deleted in the last minute: fluid-sweep's set-ups took 1-2 ms
    in whole bursts instead of 0.1-0.4 ms. Filesystems without the flag
    ignore it or refuse it; the run goes on either way.
    """
    try:
        fd = os.open(path, os.O_RDONLY | os.O_DIRECTORY)
    except OSError:
        return False
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        if not flags[0] & FS_TOPDIR_FL:
            flags[0] |= FS_TOPDIR_FL
            fcntl.ioctl(fd, FS_IOC_SETFLAGS, flags, True)
            fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        return bool(flags[0] & FS_TOPDIR_FL)
    except OSError:
        return False
    finally:
        os.close(fd)


def cpu_times():
    """Aggregate jiffies from the first line of /proc/stat, or None."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return [int(v) for v in fields[1:]]
    except (OSError, ValueError):
        return None


def host_shares(before, after):
    """Steal and iowait as shares of all CPU time between two samples."""
    if before is None or after is None:
        return {}
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    if total <= 0:
        return {}
    named = {"iowait": 4, "steal": 7}
    return {f"host_{k}_share": delta[i] / total
            for k, i in named.items() if i < len(delta)}


def filesystem_of(path):
    """(fstype, mount point) of the mount holding `path`, from /proc."""
    best = ("unknown", "")
    try:
        with open("/proc/self/mounts") as f:
            for line in f:
                parts = line.split()
                if len(parts) < 3:
                    continue
                mount = parts[1].replace("\\040", " ")
                inside = str(path) == mount or str(path).startswith(
                    mount.rstrip("/") + "/")
                if inside and len(mount) >= len(best[1]):
                    best = (parts[2], mount)
    except OSError:
        pass
    return best


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for a run, or None without it."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return None
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def git_sha():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True,
                              timeout=10)
        if done.returncode == 0:
            return done.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        return 2
    binary = BUILD / "perfbench"

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    WORK.mkdir(parents=True, exist_ok=True)
    spread = spread_runs(WORK)
    work.mkdir()
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               # Relative, so the serve probe's unix socket path stays short.
               "--work-dir", str(work.relative_to(ROOT))]
    trace_file = None
    if args.trace:
        trace_file = BUILD / "traces" / f"{tag}.json"
        trace_file.parent.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out", str(trace_file)]

    fstype, mount = filesystem_of(work.resolve())
    before = cpu_times()
    started = time.monotonic()
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"perfbench: the run exceeded {RUN_TIMEOUT_S}s")
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    elapsed = time.monotonic() - started
    after = cpu_times()

    lines = done.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    if done.returncode not in (0, 1) or result is None:
        sys.stdout.write("\n".join(lines[:-1]) + "\n" if lines else "")
        log(f"perfbench: the binary exited {done.returncode} without a result")
        return 2
    expected = declared_metrics(args.trace)
    if expected is not None and set(result["metrics"]) != expected:
        log("perfbench: the metrics printed differ from BENCHMARK.json:",
            sorted(set(result["metrics"]) ^ expected))
        return 2

    env = {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(
            os, "sched_getaffinity") else os.cpu_count(),
        "git_sha": git_sha(),
        "cache_fs": fstype,
        "cache_mount": mount,
        "work_spread": int(spread),
        "run_wall_s": elapsed,
    }
    env.update(host_shares(before, after))
    try:
        env["loadavg"] = "/".join(Path("/proc/loadavg").read_text().split()[:3])
    except OSError:
        pass
    for line in lines[:-1]:
        if line.startswith("env "):  # merged into the record below
            for item in line[4:].split():
                key, _, value = item.partition("=")
                env[key] = value
        else:
            print(line)
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    if trace_file is not None:
        print(f"trace written to {trace_file.relative_to(ROOT)}")

    record = BUILD / "results" / f"{tag}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"workload": args.workload,
                                  "seed": args.seed,
                                  "seconds": args.seconds,
                                  "trace": args.trace,
                                  "environment": env,
                                  "detail": [line for line in lines[:-1]
                                             if not line.startswith("env ")],
                                  "result": result}, indent=2) + "\n")
    print(lines[-1], flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
