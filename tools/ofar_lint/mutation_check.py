"""Mutation self-test for the ofar_lint analyzer.

Seeds known phase-discipline and determinism violations into a scratch
copy of the real source tree — one at a time — and asserts that the
analyzer flags each mutant with the expected rule in the expected file,
and that the clean tree stays clean. This is the evidence that a green
`ofar_lint` run means something: every rule is backed by a mutant it
demonstrably kills (the check fails if a rule has none).

Run:  python3 -m ofar_lint.mutation_check [--root REPO]
Exit: 0 when the clean tree is clean and every mutant is killed.
"""

import argparse
import os
import shutil
import sys
import tempfile

from .cli import collect_files, load_program
from .rules import RULES, analyze

# Each mutation: a list of (anchor, replacement) edits applied to copies
# of real files. Anchors are verified unique so a refactor that moves
# them fails loudly here instead of silently testing nothing.
MUTATIONS = [
    {
        "name": "serial-call-direct",
        "why": "parallel delivery phase completes an ejected packet "
               "directly instead of staging it in ShardState::delivered",
        "edits": [("src/sim/network.cpp",
                   "sh.delivered.push_back(",
                   "deliver_packet(")],
        "rule": "serial-call",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "serial-call-cross-class",
        "why": "a routing policy drives Network's serial injection from "
               "inside route()",
        "edits": [("src/routing/par.cpp",
                   "  if (adaptive)\n",
                   "  net.do_injection();\n  if (adaptive)\n")],
        "rule": "serial-call",
        "file": "src/routing/par.cpp",
    },
    {
        "name": "serial-call-tracer",
        "why": "parallel transfer phase feeds the serial-only packet "
               "tracer directly instead of staging a trace event",
        "edits": [("src/sim/network.cpp",
                   "++channel_phits_[out.channel];",
                   "++channel_phits_[out.channel];\n      "
                   "if (trace_) trace_->on_event(TraceEvent{});")],
        "rule": "serial-call",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "serial-write-counter",
        "why": "parallel phase bumps the global delivered counter "
               "directly instead of ShardState::delivered",
        "edits": [("src/sim/network.cpp",
                   "++channel_phits_[out.channel];",
                   "++channel_phits_[out.channel];\n      ++delivered_total_;")],
        "rule": "serial-write",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "serial-call-trace-callback",
        "why": "parallel phase fires the serial-only trace callback "
               "directly, bypassing ShardState::traces staging",
        "edits": [("src/sim/network.cpp",
                   "++channel_phits_[out.channel];",
                   "++channel_phits_[out.channel];\n      "
                   "if (tracer_) tracer_(TraceEvent{});")],
        "rule": "serial-call",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "off-lane-rng-transitive",
        "why": "route() regrows the Valiant intermediate through a "
               "helper that hands the serial stream to pick_intermediate "
               "(two calls deep)",
        "edits": [("src/routing/valiant.hpp",
                   "  OFAR_SERIAL_ONLY Rng rng_;",
                   "  void regrow_intermediate(const Dragonfly& topo, "
                   "Packet& pkt, RouterId at) {\n"
                   "    set_valiant(pkt, pick_intermediate(topo, at, "
                   "pkt.dst_router, rng_));\n  }\n"
                   "  OFAR_SERIAL_ONLY Rng rng_;"),
                  ("src/routing/valiant.cpp",
                   "  return request_ordered(ctx, valiant_next_port(",
                   "  regrow_intermediate(ctx.net.topo(), ctx.pkt, ctx.at);\n"
                   "  return request_ordered(ctx, valiant_next_port(")],
        "rule": "off-lane-rng",
        "file": "src/routing/valiant.hpp",
    },
    {
        "name": "off-lane-rng-pass-by-ref",
        "why": "PAR hands the shared serial stream to ugal_intermediate "
               "instead of the bound lane's stream",
        "edits": [("src/routing/par.cpp",
                   "route_rng(ctx.lane)",
                   "rng_")],
        "rule": "off-lane-rng",
        "file": "src/routing/par.cpp",
    },
    {
        "name": "off-lane-rng-accessor-unsealed",
        "why": "dropping OFAR_LANE_RNG from route_rng turns its rng_ "
               "fallback into an unsanctioned parallel-phase stream use",
        "edits": [("src/routing/valiant.hpp",
                   "OFAR_LANE_RNG Rng& route_rng",
                   "Rng& route_rng")],
        "rule": "off-lane-rng",
        "file": "src/routing/valiant.hpp",
    },
    {
        "name": "cross-shard-write-unowned",
        "why": "removing VcFifo's shard-ownership annotation exposes its "
               "parallel-phase mutations as unowned state writes",
        "edits": [("src/sim/fifo.hpp",
                   "class OFAR_SHARD_LOCAL VcFifo",
                   "class VcFifo")],
        "rule": "cross-shard-write",
        "file": "src/sim/fifo.hpp",
    },
    {
        "name": "wall-clock-direct",
        "why": "simulation phase reads real time",
        "edits": [("src/sim/network.cpp",
                   "void Network::advance_transfers(ShardState& sh, "
                   "u32 slot) {",
                   "void Network::advance_transfers(ShardState& sh, "
                   "u32 slot) {\n"
                   "  const auto wall = std::chrono::steady_clock::now(); "
                   "(void)wall;")],
        "rule": "wall-clock",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "wall-clock-aliased",
        "why": "real-time clock laundered through a using-alias (a text "
               "match on clock names cannot see this)",
        "edits": [("src/sim/network.cpp",
                   "namespace ofar {",
                   "namespace ofar {\n"
                   "using TickSource = std::chrono::steady_clock;"),
                  ("src/sim/network.cpp",
                   "void Network::advance_transfers(ShardState& sh, "
                   "u32 slot) {",
                   "void Network::advance_transfers(ShardState& sh, "
                   "u32 slot) {\n"
                   "  const auto wall = TickSource::now(); (void)wall;")],
        "rule": "wall-clock",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "unordered-container-aliased",
        "why": "a std::unordered_map hidden behind a using-alias and "
               "iterated through it: the alias's own line spells the type",
        "edits": [("src/sim/network.cpp",
                   "namespace ofar {",
                   "namespace ofar {\n"
                   "using PendingMap = std::unordered_map<u32, u32>;"),
                  ("src/sim/network.cpp",
                   "void Network::advance_transfers(ShardState& sh, "
                   "u32 slot) {",
                   "void Network::advance_transfers(ShardState& sh, "
                   "u32 slot) {\n"
                   "  PendingMap pm;\n"
                   "  for (const auto& kv : pm) { (void)kv; }")],
        "rule": "unordered-container",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "wall-clock-libc-time",
        "why": "traffic source seeds itself from the C library clock",
        "edits": [("src/traffic/generator.cpp",
                   "rng_(seed ^ 0x5452414646494353ULL) {}",
                   "rng_(seed ^ 0x5452414646494353ULL) {\n"
                   "  rng_ = Rng(static_cast<u64>(std::time(nullptr)));\n}")],
        "rule": "wall-clock",
        "file": "src/traffic/generator.cpp",
    },
    {
        "name": "wall-clock-libc-clock",
        "why": "serial injection phase reads processor time",
        "edits": [("src/sim/network.cpp",
                   "void Network::do_injection() {",
                   "void Network::do_injection() {\n"
                   "  if (clock() % 2 == 0) return;")],
        "rule": "wall-clock",
        "file": "src/sim/network.cpp",
    },
    {
        "name": "libc-rng-draw",
        "why": "traffic source draws from the C library RNG instead of its "
               "seeded stream",
        "edits": [("src/traffic/generator.cpp",
                   "rng_(seed ^ 0x5452414646494353ULL) {}",
                   "rng_(seed ^ 0x5452414646494353ULL) {\n"
                   "  load_ += std::rand() % 2 == 0 ? 0.0 : 1e-9;\n}")],
        "rule": "libc-rng",
        "file": "src/traffic/generator.cpp",
    },
    {
        "name": "random-device-seed",
        "why": "RNG default-seeded from hardware entropy",
        "edits": [("src/common/rng.hpp",
                   "Rng() noexcept : Rng(0x0FA20FA20FA20FA2ULL) {}",
                   "Rng() : Rng(std::random_device{}()) {}")],
        "rule": "random-device",
        "file": "src/common/rng.hpp",
    },
    {
        "name": "unordered-container-member",
        "why": "a per-node map declared as std::unordered_map (its order "
               "leaks into any later iteration or dump)",
        "edits": [("src/sim/network.hpp",
                   "OFAR_SERIAL_ONLY u64 delivered_total_ = 0;",
                   "OFAR_SERIAL_ONLY u64 delivered_total_ = 0;\n"
                   "  std::unordered_map<NodeId, u64> delivered_by_node_;")],
        "rule": "unordered-container",
        "file": "src/sim/network.hpp",
    },
    {
        "name": "raw-thread-sweep",
        "why": "sweep runner spawns its own threads instead of going "
               "through common/parallel",
        "edits": [("src/core/orchestrator.cpp",
                   "  run_parallel(jobs, outer);",
                   "  std::thread([] {}).join();\n"
                   "  run_parallel(jobs, outer);")],
        "rule": "raw-thread",
        "file": "src/core/orchestrator.cpp",
    },
]


def run_analyzer(root):
    files = collect_files(root)
    program = load_program(root, files)
    return analyze(program)


def main(argv=None):
    ap = argparse.ArgumentParser(prog="ofar_lint.mutation_check")
    ap.add_argument("--root", default=None,
                    help="repository root (default: auto-detect)")
    args = ap.parse_args(argv)

    from .cli import _find_root
    root = args.root or _find_root(os.getcwd())
    if root is None:
        print("mutation_check: cannot locate repository root",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(prefix="ofar_lint_mut_") as tmp:
        scratch = os.path.join(tmp, "repo")
        os.makedirs(scratch)
        shutil.copytree(os.path.join(root, "src"),
                        os.path.join(scratch, "src"))

        clean = run_analyzer(scratch)
        if clean:
            print("FAIL: clean tree is not clean:")
            for f in clean:
                print("  " + f.format())
            return 1
        print(f"clean tree: 0 findings ({len(MUTATIONS)} mutants to kill)")

        unguarded = sorted(set(RULES) - {m["rule"] for m in MUTATIONS})
        if unguarded:
            print("FAIL: rules without a mutant: " + ", ".join(unguarded))
            return 1

        failures = 0
        for mut in MUTATIONS:
            originals = {}
            for path, anchor, replacement in (
                    (p, a, r) for p, a, r in mut["edits"]):
                full = os.path.join(scratch, path)
                with open(full, encoding="utf-8") as fh:
                    text = fh.read()
                if path not in originals:
                    originals[path] = text
                if text.count(anchor) != 1:
                    print(f"FAIL [{mut['name']}]: anchor not unique in "
                          f"{path}: {anchor!r}")
                    failures += 1
                    text = None
                    break
                with open(full, "w", encoding="utf-8") as fh:
                    fh.write(text.replace(anchor, replacement))
            if text is None:
                for path, orig in originals.items():
                    with open(os.path.join(scratch, path), "w",
                              encoding="utf-8") as fh:
                        fh.write(orig)
                continue

            findings = run_analyzer(scratch)
            hits = [f for f in findings
                    if f.rule == mut["rule"] and f.file == mut["file"]]
            if hits:
                locs = ", ".join(f"{f.file}:{f.line}" for f in hits[:3])
                print(f"killed [{mut['name']}] -> [{mut['rule']}] {locs}")
            else:
                print(f"FAIL [{mut['name']}]: expected [{mut['rule']}] "
                      f"in {mut['file']}, analyzer reported "
                      f"{len(findings)} finding(s):")
                for f in findings:
                    print("  " + f.format())
                failures += 1

            for path, orig in originals.items():
                with open(os.path.join(scratch, path), "w",
                          encoding="utf-8") as fh:
                    fh.write(orig)

        if failures:
            print(f"\nmutation_check: {failures}/{len(MUTATIONS)} "
                  "mutants survived")
            return 1
        print(f"\nmutation_check: all {len(MUTATIONS)} mutants killed")
        return 0


if __name__ == "__main__":
    sys.exit(main())
