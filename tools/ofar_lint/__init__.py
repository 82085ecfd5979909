"""ofar_lint: phase-discipline and determinism analyzer for the kernel.

Checks the concurrency/determinism contracts of DESIGN.md §10 against the
annotation vocabulary of src/common/phase.hpp (OFAR_PARALLEL_PHASE,
OFAR_SERIAL_ONLY, OFAR_SHARD_LOCAL, OFAR_LANE_RNG): it walks the call
graph from every parallel-phase root and rejects serial-only calls
(tracer_ callbacks included) and writes, unowned writes and off-lane RNG
draws reachable from a parallel phase. Over every file it bans the
constructs that make a run depend on anything but (config, seed): C
library and hardware RNGs, wall-clock reads, unordered containers, and
raw threads outside common/parallel. Each hazard has one rule and no
rule has a waiver.

The frontend is a dependency-free C++ tokenizer/parser (ofar_lint.lexer,
ofar_lint.frontend_builtin); the analyzer needs nothing beyond the Python
standard library.

Run:  python3 -m ofar_lint [--root REPO]
"""
