#!/usr/bin/env python3
"""Benchmark entry point for graphguard.

    python3 graphbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 graphbench/run.py --self-test

Run from the repository root. Builds the C++ harness (graphbench/*.cc)
and the library from src/ into $CARGO_TARGET_DIR/graphbench, or
.bench_build/graphbench when that variable is unset; runs the workload
in a scratch directory under the build directory and removes it after.
The harness prints only the metrics it measured; BENCHMARK.json is the
one list of metrics and units. A declared metric the run did not
measure (and its workload does not list as a layer it never reaches),
an undeclared one, or an end-to-end metric of 0 on a correct run is a
broken benchmark and exits non-zero without a result. The last stdout
line is the result object; the line before it is the run's metadata
(seed, pool size, SIMD variant, nproc, commit, host probe).
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170

# Per-layer metrics of layers a workload never reaches, by name prefix.
# The traced run reports them as 0; every other declared metric must be
# measured.
NOT_REACHED = {
    "peega-topo": ("gnat.", "nn.", "linalg.matmul", "linalg.spmm", "serve."),
    "peega-feat": ("gnat.", "nn.", "linalg.matmul", "linalg.spmm", "serve."),
    "gnat-defend": ("engine.", "linalg.incremental", "attack.", "graph.emit",
                    "serve."),
    "serve-journal": ("engine.", "linalg.", "attack.", "graph.emit", "gnat.",
                      "nn.", "parallel.", "trace.replay", "trace.overhead"),
}


def log(message):
    print(f"graphbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "graphbench")


def build(bdir):
    """Configures (once) and builds the harness; returns its path or None."""
    cache = os.path.join(bdir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(bdir)  # configured for another checkout
    steps = []
    if not os.path.exists(cache):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", bdir, "--target", "graphbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return None
    return os.path.join(bdir, "graphbench")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def declared_metrics(spec, trace):
    """name -> unit of the metric set BENCHMARK.json declares for this mode."""
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def assemble(measured, declared, workload, trace, correct):
    """Attaches units to the harness's measured {name: value}.

    Returns (metrics, problems): metrics in the result's {name: {value,
    unit}} form, and the ways the measured set breaks the declared one.
    """
    skipped = NOT_REACHED[workload] if trace else ()
    metrics, problems = {}, []
    for name in sorted(set(measured) - set(declared)):
        problems.append(f"undeclared metric {name}")
    for name, unit in declared.items():
        not_reached = name.startswith(skipped)
        if name not in measured:
            if not_reached:
                metrics[name] = {"value": 0, "unit": unit}
            else:
                problems.append(f"missing metric {name}")
            continue
        value = measured[name]
        if not_reached:
            problems.append(f"{name}: measured, but {workload} lists it as not reached")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
        elif not trace and value <= 0 and correct:
            problems.append(f"{name}: end-to-end value {value} on a correct run")
        metrics[name] = {"value": value, "unit": unit}
    return metrics, problems


def source_identity():
    """The git commit when the checkout is a git repository, else a digest of src/."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True)
            if head.returncode == 0:
                return head.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for directory, dirs, files in sorted(os.walk(os.path.join(ROOT, "src"))):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(directory, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_harness(exe, args, bdir):
    """Runs the harness in a fresh scratch directory; returns (code, stdout)."""
    work = os.path.join(bdir, f"run-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run([exe, *args], cwd=work, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
        return proc.returncode, proc.stdout
    except subprocess.TimeoutExpired:
        log(f"harness exceeded {RUN_TIMEOUT_S} s")
        return 1, ""
    finally:
        shutil.rmtree(work, ignore_errors=True)


def self_test(exe, bdir):
    """Plants faults; each gate must catch its plant."""
    code, _ = run_harness(exe, ["--self-test"], bdir)
    missed = 0 if code == 0 else 1
    spec = load_spec()
    for workload in sorted(NOT_REACHED):
        for trace in (False, True):
            declared = declared_metrics(spec, trace)
            skipped = NOT_REACHED[workload] if trace else ()
            full = {n: 1.0 for n in declared if not n.startswith(skipped)}
            mode = "trace" if trace else "end-to-end"
            if assemble(full, declared, workload, trace, True)[1]:
                log(f"self-test: the metric check rejects a complete {workload} {mode} result")
                missed += 1
            for dropped in full:
                planted = dict(full)
                del planted[dropped]
                if not assemble(planted, declared, workload, trace, True)[1]:
                    log(f"self-test: planted missing metric {dropped} ({workload} {mode}) MISSED")
                    missed += 1
            log(f"self-test: planted missing metric, each of {len(full)} "
                f"({workload} {mode}), checked")
    log(f"self-test: {missed} plant(s) missed in total")
    return 0 if missed == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (not args.workload or not args.seconds):
        parser.error("--workload and --seconds are required")
    spec = load_spec()
    if not args.self_test and args.workload not in NOT_REACHED:
        parser.error(f"unknown workload {args.workload!r}")

    bdir = build_dir()
    exe = build(bdir)
    if exe is None:
        return 3
    if args.self_test:
        return self_test(exe, bdir)

    declared = declared_metrics(spec, args.trace == 1)
    code, stdout = run_harness(
        exe, ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)], bdir)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        log(f"harness exited with code {code}")
        return 4
    output = json.loads(lines[-1])
    result = output["result"]
    result["metrics"], problems = assemble(result["metrics"], declared, args.workload,
                                           args.trace == 1, result["correct"])
    if problems:
        for problem in problems:
            log(problem)
        return 5
    meta = output["meta"]
    meta["commit"] = source_identity()
    print(json.dumps({"meta": meta}, sort_keys=True))
    print(json.dumps(result, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
