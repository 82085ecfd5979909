// Deterministic checkpoint/restart of the full simulation state
// (DESIGN.md §"Scale").
//
// A checkpoint captures everything that determines future simulation
// behaviour — the cycle clock, every RNG stream (policy lanes, traffic
// source), the packet pool verbatim (including the LIFO free list, whose
// order decides future id assignment), per-node offer queues, every
// built router's FIFO/credit/arbiter/transfer state, the in-flight event
// wheels, lifetime counters and the open Stats window — and no index of
// it: restore rebuilds the pool's live bits from the free list, and the
// routers' flags, counts, masks and worklists with the kernel's own
// bookkeeping. Restoring into a freshly constructed Network of the SAME
// config (validated via spec's canonical config signature + seed) and then
// stepping produces the bit-identical continuation of the original run, at
// any sim_threads.
//
// NOT captured: instrumentation (telemetry, tracers, the invariant
// auditor). All of it is read-only with respect to simulation outcomes, so
// a resumed run's *results* are unaffected; mid-run instrumentation output
// simply restarts at the resume point.
//
// Format: native-endian binary (common/ckpt_stream.hpp), tied to the build
// that wrote it; a magic/format-version/signature header rejects anything
// else, and a trailing checksum any changed byte. save() writes to
// "<path>.tmp" and renames, so a crash mid-write leaves the previous
// checkpoint intact.
#pragma once

#include <string>

#include "common/types.hpp"

namespace ofar {

class Network;
class CkptArchive;
class VcFifo;
struct Router;
class TimeSeries;
class Stats;

class CheckpointIO {
 public:
  /// Serializes the network's full simulation state to `path` (atomic
  /// tmp+rename). Returns false (with `error` filled when non-null) on any
  /// I/O failure.
  static bool save(const Network& net, const std::string& path,
                   std::string* error = nullptr);

  /// Restores a checkpoint into `net`, which must be freshly constructed
  /// from the same SimConfig (same seed included) with its traffic source
  /// already installed. Restore is read + audit: it reads the state,
  /// checking every length, size and id before it sizes or indexes with
  /// it, then runs verify::InvariantAuditor::run_all() on the result.
  /// Returns false without touching `net` when the file is missing;
  /// otherwise returns false (error filled when non-null) on a signature
  /// or format mismatch, an out-of-range length or id, or an audit that is
  /// not clean, whose first violation becomes the error ("[invariant]
  /// detail"). After any failure but a missing file `net` may be partly
  /// written: discard it and start the run on a fresh network, as
  /// run_steady does (with a warning).
  static bool restore(Network& net, const std::string& path,
                      std::string* error = nullptr);

 private:
  // One io per checkpointed type serves both directions (see
  // common/ckpt_stream.hpp). Members, not free helpers, because they
  // exercise the `friend class CheckpointIO` grants of their targets.
  static void io(CkptArchive& ar, Network& net);
  // A router's and a FIFO's stamps are checked against `cycle`, the cycle
  // the saved state reflects; a restored FIFO's packets are
  // `packet_size` phits.
  static void io(CkptArchive& ar, Network& net, Router& r, u32 cycle);
  static void io(CkptArchive& ar, VcFifo& f, u32 packet_size, u32 cycle);
  static void io(CkptArchive& ar, Stats& s);
  static void io(CkptArchive& ar, TimeSeries& ts);
};

}  // namespace ofar
