#!/usr/bin/env python3
"""Same-runner A/B of the simulator benchmark: HEAD against two bases.

    python3 tools/perf_ab.py --base BASE_CHECKOUT --anchor ANCHOR_CHECKOUT

HEAD is the checkout this file lives in. BASE is the commit a change is
judged against (the merge base of a pull request); ANCHOR is a checkout of
the pinned commit ANCHOR below. Each workload runs `perfbench/run.py` at
seed SEED for SECONDS in PAIRS alternating pairs (HEAD first, then the base
first), each checkout building into its own .bench_build. The metric is the
median over pairs of HEAD's cycles_per_s over the base's. A workload fails
when that median is below its floor and HEAD is slower in at least
SLOWER_SHARE of the pairs, or when any run is not correct or has a failed
operation. A median below the floor with mixed pairs runs PAIRS more pairs
and is judged on all of them; if they are still mixed it is reported as
unresolved and passes. Exits 1 when any workload fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
SEED = 1
SECONDS = 2
PAIRS = 5
SLOWER_SHARE = 0.8

# Floors on the median HEAD/base ratio against the merge base.
BASE_FLOORS = {
    "uniform_sat": 0.85,
    "adversarial_sat_sharded": 0.85,
    "figure_sweep": 0.95,
}

# HEAD must stay at >= 1.5x the speed of the pre-flat-state kernel
# (commit 64bd060), measured through the anchor: the floor against ANCHOR
# is 1.5 / s, where s is the anchor's speedup over 64bd060. s is the ratio
# of the two commits' median cycles/s in interleaved best-of-3 runs of the
# former perf_core bench (NDEBUG, 4 vCPUs): uniform_sat 762 / 333 (5 runs
# each), and adversarial_sat_mt, the same 8-shard kernel on the same h=4
# network as adversarial_sat_sharded, 1965.5 / 723.5 (10 runs each). A
# change to perfbench's timing re-pins the anchor and re-measures s.
ANCHOR = "b23d344"
ANCHOR_SPEEDUP = {"uniform_sat": 2.29, "adversarial_sat_sharded": 2.72}
ANCHOR_FLOORS = {w: 1.5 / s for w, s in ANCHOR_SPEEDUP.items()}


def perfbench_run(checkout, workload):
    """One perfbench run in `checkout`; its result object, or None."""
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # else both trees share one build
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(SEED), "--seconds", str(SECONDS)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    try:
        return json.loads(lines[-1])
    except ValueError:
        return None


def speed(result):
    """cycles_per_s of a correct run with no failed operation, else None."""
    if not result or not result.get("correct") or result.get("failed") != 0:
        return None
    return result["metrics"]["cycles_per_s"]["value"]


def judge(ratios, floor):
    if statistics.median(ratios) >= floor:
        return "PASS"
    slower = sum(r < 1 for r in ratios) / len(ratios)
    return "FAIL" if slower >= SLOWER_SHARE else "unresolved"


def compare(run, base, workload, floor):
    """PASS, FAIL or unresolved for one workload; prints every pair."""
    ratios = []

    def pairs():
        for _ in range(PAIRS):
            first = len(ratios) % 2 == 0
            order = [("head", HEAD), ("base", base)]
            got = {side: speed(run(path, workload))
                   for side, path in (order if first else order[::-1])}
            if None in got.values():
                print(f"  pair {len(ratios) + 1}: a run was not correct or "
                      f"had failed operations")
                return False
            ratios.append(got["head"] / got["base"])
            print(f"  pair {len(ratios):2} ({'head' if first else 'base'} "
                  f"first)  head {got['head']:10.1f}  base "
                  f"{got['base']:10.1f}  ratio {ratios[-1]:.3f}", flush=True)
        return True

    if not pairs():
        return "FAIL"
    verdict = judge(ratios, floor)
    if verdict == "unresolved":
        if not pairs():
            return "FAIL"
        verdict = judge(ratios, floor)
    print(f"  median ratio {statistics.median(ratios):.3f} over "
          f"{len(ratios)} pairs, floor {floor:.3f}, HEAD slower in "
          f"{sum(r < 1 for r in ratios)}")
    return verdict


def main(argv=None, run=perfbench_run):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="checkout of the base")
    ap.add_argument("--anchor", required=True,
                    help=f"checkout of the anchor commit {ANCHOR}")
    args = ap.parse_args(argv)
    ok = True
    for label, base, floors in (("base", args.base, BASE_FLOORS),
                                ("anchor", args.anchor, ANCHOR_FLOORS)):
        for workload, floor in floors.items():
            print(f"== {workload} vs {label} ({base})", flush=True)
            verdict = compare(run, base, workload, floor)
            print(f"{workload} vs {label}: {verdict}", flush=True)
            ok = ok and verdict != "FAIL"
    print("perf_ab: " + ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
