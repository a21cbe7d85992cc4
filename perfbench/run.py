#!/usr/bin/env python3
"""Wall-clock benchmark of the LAPSES simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload mesh16-paper-sweep --seed 1 \
        --seconds 30 --trace 0

Builds the harness (perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR
(default .bench_build) under the checkout, runs the workload, checks
its records and prints one JSON result as the last stdout line. With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json, with
--trace 1 the per-layer ones from the traced run. The full result, with
its provenance and raw samples, is also written under the build
directory's results/ folder.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
REFERENCE = BENCH_DIR / "reference_records.json"
REFERENCE_SEED = 1
# Cold Simulation constructions per run (median): at least the first
# number, and more while the second number of seconds is not yet spent.
SETUP_PROCESSES = (5, 15)
SETUP_BUDGET_S = 4.0
RUN_DEADLINE_S = 170.0  # everything after the build ends within this


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(bdir):
    """Configure (once) and build the harness; returns its path."""
    if not (ROOT / "src" / "core" / "simulation.hpp").is_file():
        raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
    if shutil.which("cmake") is None:
        raise BenchError("cmake not found")
    if not (bdir / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", "4"], check=True,
                   stdout=sys.stderr, stderr=sys.stderr)
    exe = bdir / "lapses-perfbench"
    if not exe.is_file():
        raise BenchError(f"harness not built at {exe}")
    return exe


class Harness:
    """Runs lapses-perfbench modes within one overall deadline."""

    def __init__(self, exe, workload, seed, quick):
        self.exe = exe
        self.base = ["--workload", workload, "--seed", str(seed)]
        if quick:
            self.base.append("--quick")
        self.deadline = time.monotonic() + RUN_DEADLINE_S

    def __call__(self, mode, *extra):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before " + mode)
        try:
            proc = subprocess.run([str(self.exe), mode, *self.base, *extra],
                                  stdout=subprocess.PIPE, stderr=sys.stderr,
                                  text=True, timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError(f"harness {mode} ran out of time")
        if proc.returncode != 0:
            raise BenchError(f"harness {mode} exited {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def reference_mismatches(workload, seed, quick, hashes):
    """Points whose records differ from the reference (reference seed
    only; None at other seeds)."""
    if seed != REFERENCE_SEED:
        return None
    ref = json.loads(REFERENCE.read_text())
    key = ("quick/" if quick else "") + workload
    expected = ref["records"].get(key)
    if expected is None:
        raise BenchError(f"no reference records for {key}")
    if len(expected) != len(hashes):
        return max(len(expected), len(hashes))
    return sum(a != b for a, b in zip(expected, hashes))


def update_reference(workload, quick, hashes):
    ref = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {
        "seed": REFERENCE_SEED, "records": {}}
    ref["records"][("quick/" if quick else "") + workload] = hashes
    ref["records"] = dict(sorted(ref["records"].items()))
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    log(f"reference records updated for {workload}")


def source_provenance():
    """Commit when the checkout is a git repository, else None; and a
    digest of the simulator sources, which identifies the code either
    way."""
    commit = None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            commit = out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return commit, h.hexdigest()[:16]


def metric_specs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def end_to_end(harness, args):
    fewest, most = SETUP_PROCESSES
    setups = []
    start = time.monotonic()
    while len(setups) < fewest or (
            len(setups) < most
            and time.monotonic() - start < SETUP_BUDGET_S):
        setups.append(harness("setup"))
    run = harness("run", "--seconds", str(args.seconds),
                  *(["--perturb"] if args.perturb else []))
    # A shared host runs for seconds at a time up to 30% faster or
    # slower. The fastest repetition lands on such a phase in some runs
    # and not in others; the median follows the host's usual speed.
    # The first repetition warms caches and the allocator and is left
    # out when there are others. Every repetition is kept in the raw
    # result.
    timed = slice(1, None) if len(run["wall_s"]) > 1 else slice(None)
    values = {
        "wall_s": statistics.median(run["wall_s"][timed]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "cpu_s": statistics.median(run["cpu_s"][timed]),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    prov = {"kernel": setups[0]["net_kernel"],
            "batch_cap": setups[0]["batch_cap"],
            "shards": setups[0]["shards"]}
    raw = {"setup_s": [s["setup_s"] for s in setups], "run": run}
    return run, values, prov, raw


def traced(harness, args, bdir):
    spans = bdir / "traces" / (
        f"{args.workload}-seed{args.seed}{'-quick' if args.quick else ''}"
        ".jsonl")
    spans.parent.mkdir(parents=True, exist_ok=True)
    out = harness("trace", "--spans", str(spans),
                  *(["--perturb"] if args.perturb else []))
    tr = out["trace"]
    m = tr["metrics"]
    if tr["min_self_s"] < -1e-9:
        tr["failed"] += 1
        tr["violations"].append("negative self time in the trace")
    prov = {"kernel": out["kernel"],
            "batch_cap": int(m["network.batch_cap"]),
            "shards": int(m["network.shards"]), "spans_file": str(spans)}
    return out, tr, m, prov


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="tiny sizes, for the benchmark's own test")
    ap.add_argument("--perturb", action="store_true",
                    help="alter one record to show the digest check trips")
    ap.add_argument("--update-reference", action="store_true",
                    help="store this run's records as the reference "
                         "(reference seed only)")
    args = ap.parse_args()

    bdir = build_dir()
    exe = build(bdir)
    e2e_specs, layer_specs = metric_specs()
    harness = Harness(exe, args.workload, args.seed, args.quick)
    # Shared hosts drift in speed over minutes; a fixed integer loop timed
    # next to every result shows how fast the host ran at the time.
    calib_s = harness("calibrate")["calib_s"]

    if args.trace:
        out, gate, values, kprov = traced(harness, args, bdir)
        specs = layer_specs
        attempted, reps, raw = gate["attempted"], 1, {"trace": out}
    else:
        out, values, kprov, raw = end_to_end(harness, args)
        gate = out
        specs = e2e_specs
        attempted, reps = out["attempted"], out["reps"]

    failed = gate["failed"]
    violations = list(gate["violations"])
    if args.update_reference:
        if args.seed != REFERENCE_SEED or args.perturb or failed:
            raise BenchError("reference records come from a clean run at "
                             f"seed {REFERENCE_SEED}")
        update_reference(args.workload, args.quick, gate["record_hashes"])
    mismatched = reference_mismatches(args.workload, args.seed, args.quick,
                                      gate["record_hashes"])
    if mismatched:
        # Each repetition reproduced the first one's records (checked
        # by the harness), so every repetition of those points failed.
        failed += mismatched * reps
        violations.append(f"{mismatched} record(s) differ from the "
                          "reference records")
    failed = min(failed, attempted)
    if not args.trace:
        values["passed_frac"] = 1.0 - failed / attempted

    commit, src_digest = source_provenance()
    provenance = {
        "workload": args.workload, "seed": args.seed, "quick": args.quick,
        "trace": args.trace, "commit": commit, "src_digest": src_digest,
        "build_type": out["build_type"], "compiler": out["compiler"],
        "nproc": os.cpu_count(), "campaign_jobs": out["jobs"],
        "intra_jobs": out["intra_jobs"], **kprov,
        "configs_digest": out["configs_digest"],
        "host_calib_s": calib_s,
        "reference_checked": mismatched is not None,
    }
    metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]}
               for s in specs}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    for v in violations:
        log(v)

    results_dir = bdir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            f"{'-quick' if args.quick else ''}.json")
    (results_dir / name).write_text(json.dumps(
        {"provenance": provenance, "result": result,
         "violations": violations, "raw": raw}, indent=1) + "\n")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError, OSError,
            json.JSONDecodeError, KeyError) as e:
        log(f"error: {e}")
        sys.exit(2)
