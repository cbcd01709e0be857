#!/usr/bin/env python3
"""The repository benchmark: builds the simulator, runs one workload, checks
its outputs and prints every metric by name with its unit.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all          # every workload in turn

Run it from anywhere inside a checkout; it builds perfbench/ (the simulator
library from src/ plus perfbench_sim) under .bench_build/perfbench on first
use.  With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer ones (BENCHMARK.json lists both).  Each result is preceded by one
{"meta": ...} line with the host and build metadata; the last line is the
result object.  --record stores the run's simulated digest in digests.json.
perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from statistics import fmean, median, quantiles

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench_sim"
DIGESTS = HERE / "digests.json"


class BenchError(Exception):
    pass


def call(cmd, timeout, capture=False):
    """Runs `cmd` in its own process group; kills the whole group on timeout
    or interrupt, and always waits for it to end."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE if capture else sys.stderr.fileno(),
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if proc.returncode != 0:
        raise BenchError(f"{cmd[0]} exited with {proc.returncode}")
    return out


def build():
    if not (ROOT / "src" / "exp" / "scenario.hpp").is_file():
        raise BenchError(f"no simulator sources under {ROOT / 'src'}")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        call(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"], 300)
    call(["cmake", "--build", str(BUILD_DIR), "-j", str(min(4, os.cpu_count() or 1))], 840)


def host_meta():
    cpu_model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    git_sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            git_sha = call(["git", "-C", str(ROOT), "rev-parse", "HEAD"], 30, capture=True).strip()
        except (BenchError, OSError, subprocess.TimeoutExpired):
            pass
    return {"cores": os.cpu_count(), "cpu_model": cpu_model, "git_sha": git_sha}


class Checker:
    """Counts attempted and failed simulation runs of one invocation.  A run
    fails its own invariants (reported by perfbench_sim) or disagrees with
    the digest recorded for its seed; for an unrecorded seed, every run of
    that seed must repeat the first."""

    def __init__(self, recorded):
        self.expected = dict(recorded)
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def run(self, label, seed, failure, digest):
        self.attempted += 1
        expected = self.expected.setdefault(str(seed), digest)
        if not failure and digest != expected:
            failure = f"digest {digest} != expected {expected}"
        if failure:
            self.failed += 1
            self.reasons.append(f"{label} (seed {seed}): {failure}")


def recorded_digests():
    return json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}


def end_to_end(raw, checker):
    reps = raw["reps"]
    for i, r in enumerate(reps):
        checker.run(f"rep {i}", r["seed"], r["failure"], r["digest"])
    # Simulated outputs: the mean over the run's seed batch, one rep per seed.
    batch = list({r["seed"]: r for r in reversed(reps)}.values())
    # setup_s is the lower decile of the run's constructions, not their
    # median.  The shared host alternates between phases that shift a
    # construction's time by up to ~50%, and a median lands on whichever phase
    # held the most samples; the lower decile reads the fast phase unless it
    # never came during the run.
    values = {
        "wall_s": median([r["wall_s"] for r in reps]),
        "setup_s": quantiles(raw["setup_only_s"] + [r["setup_s"] for r in reps], n=10)[0],
        "loop_s": median([r["loop_s"] for r in reps]),
        "events_per_s": median([r["events"] / r["loop_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "pass_ratio": 1.0 - checker.failed / checker.attempted,
    }
    for name in ("delivery_ratio", "energy_uj_per_item", "mean_delay_ms", "p95_delay_ms"):
        values[name] = fmean(r[name] for r in batch)
    return values


def per_layer(raw, checker, units):
    reps, traced = raw["reps"], raw["traced"]
    for i, r in enumerate(reps):
        checker.run(f"untraced rep {i}", r["seed"], r["failure"], r["digest"])
    for i, r in enumerate(traced):
        checker.run(f"traced rep {i}", r["seed"], r["failure"], r["digest"])
    checker.run("exp::run_experiment", raw["seed"], "", raw["run_experiment_digest"])

    layers = {}
    for name in traced[0]["layers"]:
        values = [t["layers"][name] for t in traced]
        if units.get(name) in ("s", "ns"):
            layers[name] = median(values)
        else:
            # Counts are functions of the event stream: they must repeat.
            if len(set(values)) != 1:
                checker.failed += 1
                checker.reasons.append(f"{name} differs between traced runs: {values}")
            layers[name] = values[0]
    for name in raw["construction"][0]:
        layers[name] = median(c[name] for c in raw["construction"])
    untraced_loop = median([r["loop_s"] for r in reps])
    layers["exp.setup_s"] = median([r["setup_s"] for r in reps])
    layers["exp.loop_s"] = untraced_loop
    layers["trace.overhead_ratio"] = median([t["loop_s"] for t in traced]) / untraced_loop
    return layers


def run_workload(name, seed, seconds, trace, spec, record=False):
    section = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    cmd = [str(BINARY), "--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    raw = json.loads(call(cmd + (["--trace"] if trace else []), 170, capture=True))

    digests = recorded_digests()
    # Recording replaces the stored digests of the seeds that ran, so only
    # the invariants (and agreement between repetitions) are checked then.
    checker = Checker({} if record else digests.get(name, {}))
    values = per_layer(raw, checker, units) if trace else end_to_end(raw, checker)
    if set(values) != set(units):
        raise BenchError(f"metric names {sorted(values)} do not match "
                         f"BENCHMARK.json {sorted(units)}")

    meta = dict(host_meta(), workload=name, seed=seed, seconds=seconds, trace=int(trace),
                build_type=raw["build_type"], compiler=raw["compiler"],
                hardware_threads=raw["hardware_threads"],
                digests={str(r["seed"]): r["digest"] for r in raw["reps"]})
    for reason in checker.reasons:
        print(f"perfbench: FAILED {name} seed {seed}: {reason}", file=sys.stderr)
    if record and checker.failed == 0:
        digests.setdefault(name, {}).update({str(r["seed"]): r["digest"] for r in raw["reps"]})
        DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    return meta, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, help="workload name, or 'all'")
    ap.add_argument("--seed", type=int, default=2004)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time per workload (default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="store this run's simulated digest in perfbench/digests.json")
    args = ap.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if any(n not in names for n in chosen):
            raise BenchError(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        build()
        for name in chosen:
            meta, result = run_workload(name, args.seed, seconds, args.trace == 1, spec,
                                        args.record)
            print(json.dumps({"meta": meta}))
            print(json.dumps(result), flush=True)
    except (BenchError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
