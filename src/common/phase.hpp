// Phase-discipline annotation vocabulary (DESIGN.md §12).
//
// The sharded cycle kernel (DESIGN.md §10) splits every cycle into parallel
// phases, where a shard may touch only shard-owned state, and serial
// sections, where cross-shard effects are committed in shard-ascending
// order. Those rules are what make per-seed results bit-identical at any
// sim_threads.
//
// The macros below encode the contract in the source itself as
// [[clang::annotate]] markers. They expand to nothing on GCC (and any
// compiler without the attribute), so codegen, layout and golden digests
// are unaffected everywhere. tools/ofar_lint consumes them semantically:
// it walks the call graph from every OFAR_PARALLEL_PHASE root and rejects
// reachable calls into OFAR_SERIAL_ONLY functions and callbacks (tracer_
// included), writes to OFAR_SERIAL_ONLY or unannotated state, and RNG
// draws that bypass an OFAR_LANE_RNG lane; over every file it bans
// unordered containers, wall-clock reads and the other determinism
// hazards (see tools/ofar_lint/rules.py).
//
// Vocabulary:
//
//  OFAR_PARALLEL_PHASE  Function may execute concurrently on shard workers
//                       (a parallel-phase root or a function audited as
//                       safe to reach from one).
//  OFAR_SERIAL_ONLY     Function or data member that only the serial
//                       sections of a cycle may call/write (commit paths,
//                       injection, stats/trace emission, a policy's
//                       serial RNG).
//                       On a class it covers every member function.
//  OFAR_SHARD_LOCAL     Data member partitioned by shard ownership:
//                       parallel-phase code may touch it, but only the
//                       slice its shard owns (routers of the shard, the
//                       shard's ShardState, per-(router,port,vc) telemetry
//                       slots).
//  OFAR_LANE_RNG        RNG state (or the accessor selecting it) bound to
//                       a route() lane, i.e. the sanctioned source of
//                       randomness inside a parallel phase. Any other Rng
//                       use reachable from a parallel phase is an
//                       off-lane draw and is rejected.
//
// Placement: annotations go on the *declaration* (in-class for methods,
// the member line for fields, after the class-key for classes):
//
//   OFAR_PARALLEL_PHASE void deliver_events_shard(ShardState& sh, u32 s);
//   OFAR_SERIAL_ONLY Stats stats_;
//   class OFAR_SERIAL_ONLY PacketTracer { ... };
#pragma once

#if defined(__clang__)
#define OFAR_ANNOTATE(x) [[clang::annotate(x)]]
#else
#define OFAR_ANNOTATE(x)
#endif

#define OFAR_PARALLEL_PHASE OFAR_ANNOTATE("ofar::parallel_phase")
#define OFAR_SERIAL_ONLY OFAR_ANNOTATE("ofar::serial_only")
#define OFAR_SHARD_LOCAL OFAR_ANNOTATE("ofar::shard_local")
#define OFAR_LANE_RNG OFAR_ANNOTATE("ofar::lane_rng")
