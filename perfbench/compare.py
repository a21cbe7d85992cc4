#!/usr/bin/env python3
"""Compare two sets of perfbench results (untraced runs) metric by metric.

    python3 perfbench/compare.py BASE_RESULTS_DIR NEW_RESULTS_DIR

Each directory holds the JSON files run.py writes under
<build dir>/results/. For every workload and end-to-end metric it prints
both medians, the quartile spread of each set as a share of its median,
and the change against the metric's bound from BENCHMARK.json. Result
sets whose nproc or build type differ are refused (exit 2): their times
are not comparable. It also prints each set's median of the host
calibration loop and warns when the host ran at a different speed.
Exits 1 when a metric is worse than its bound.
"""

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory):
    runs = []
    for p in sorted(Path(directory).glob("*.json")):
        doc = json.loads(p.read_text())
        if doc["provenance"]["trace"] == 0:
            runs.append(doc)
    if not runs:
        sys.exit(f"compare: no untraced results in {directory}")
    return runs


def host_key(doc):
    prov = doc["provenance"]
    return prov["nproc"], prov["build_type"]


def spread(values):
    if len(values) < 2:
        return float("nan")
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    base, new = load(argv[1]), load(argv[2])
    keys = {host_key(d) for d in base + new}
    if len(keys) != 1:
        print("compare: refusing to compare results from different hosts "
              "or builds (nproc, build type): " + ", ".join(
                  map(str, sorted(keys))), file=sys.stderr)
        return 2
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    worse = False
    print(f"{'workload':20} {'metric':12} {'base':>12} {'new':>12} "
          f"{'change':>8} {'bound':>6} {'spread b/n':>13}")
    for workload in sorted({d["provenance"]["workload"] for d in base}):
        b = [d for d in base if d["provenance"]["workload"] == workload]
        n = [d for d in new if d["provenance"]["workload"] == workload]
        if not n:
            print(f"{workload:20} missing from the new set")
            continue
        for s in specs:
            bv = [d["result"]["metrics"][s["name"]]["value"] for d in b]
            nv = [d["result"]["metrics"][s["name"]]["value"] for d in n]
            bm, nm = statistics.median(bv), statistics.median(nv)
            change = (nm - bm) / bm if bm else 0.0
            bad = -change if s["better"] == "higher" else change
            flag = " WORSE" if bad > s["bound"] else ""
            worse |= bool(flag)
            print(f"{workload:20} {s['name']:12} {bm:12.5g} {nm:12.5g} "
                  f"{change:+8.1%} {s['bound']:6.2f} "
                  f"{spread(bv):6.1%}/{spread(nv):6.1%}{flag}")
    calib = [statistics.median(d["provenance"]["host_calib_s"] for d in docs)
             for docs in (base, new)]
    drift = calib[1] / calib[0] - 1.0
    print(f"host: nproc={keys.pop()[0]}; base n={len(base)}, new n={len(new)}; "
          f"calibration loop {calib[0]:.4f} s -> {calib[1]:.4f} s "
          f"({drift:+.1%})")
    if abs(drift) > 0.05:
        print("compare: the host ran at a different speed for the two sets; "
              "time changes of about that size are unresolved",
              file=sys.stderr)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
