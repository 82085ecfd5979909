// Thread-parallel job runner for parameter sweeps.
//
// Each simulation point is an independent job (own network, own RNG), so
// sweeps are embarrassingly parallel. On a single-core host this degrades
// gracefully to sequential execution.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"

namespace ofar {

/// Runs `jobs` functions, at most `threads` concurrently (0 = hardware
/// concurrency). Jobs may run in any order; exceptions escaping a job
/// terminate the process (jobs are expected to handle their own errors).
void run_parallel(const std::vector<std::function<void()>>& jobs,
                  unsigned threads = 0);

/// Persistent worker pool for the sharded cycle kernel (DESIGN.md §10).
///
/// `run_parallel` spawns threads per call, which is fine for sweeps where a
/// job is a whole simulation, but a sharded Network::step() dispatches two
/// parallel phases per cycle — thread spawn cost would dwarf the work. A
/// ShardPool keeps `threads - 1` workers alive and reuses them for every
/// phase; the calling thread participates as worker 0, so a pool of N
/// threads occupies exactly N cores during a phase.
///
/// Dispatch spins, then parks. Between phases a worker spins on an atomic
/// phase counter, and the caller spins on the count of workers still in
/// the phase, for kSpinIterations pause instructions each. That covers the
/// serial sections between a saturated cycle's two phases, so the hot loop
/// never sleeps. Every kYieldInterval pauses a spinning thread yields its
/// core: on a host with fewer free cores than pool threads, the thread it
/// waits for gets to run instead of queueing behind the spinners. Past the
/// budget (an idle pool, a drained network, a long serial stretch) they
/// park in std::atomic::wait and cost nothing.
///
/// Determinism contract: `parallel_phase(count, fn)` invokes fn(i) exactly
/// once for every i in [0, count) and returns only after all invocations
/// finished (barrier). Shard i is always the same *work*, merely executed on
/// an arbitrary thread — callers must keep fn(i) free of cross-shard writes
/// and commit any cross-shard effects themselves, in shard order, after the
/// barrier. The pool never reorders, splits, or merges shard indices.
class ShardPool {
 public:
  /// Pause instructions a waiting thread spins through before it parks:
  /// about 0.2 ms at the ~13 ns a pause takes on current x86 server cores,
  /// several times the ~60 µs of serial work between the phases of a
  /// saturated h=4 cycle.
  static constexpr u32 kSpinIterations = 1u << 14;
  /// Pauses between two yields of a spinning thread's core.
  static constexpr u32 kYieldInterval = 256;

  /// Spawns `threads - 1` workers (the caller is the remaining thread).
  /// `threads` is clamped to at least 1; a 1-thread pool spawns nothing and
  /// parallel_phase degenerates to a sequential loop.
  explicit ShardPool(unsigned threads);
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;
  ~ShardPool();

  unsigned threads() const noexcept { return threads_; }

  /// Runs fn(i) for every i in [0, count) across the pool and waits for all
  /// of them (barrier). Workers use a static stride partition (worker w runs
  /// i = w, w + threads, ...) so the assignment of shards to threads is
  /// itself deterministic — useful when debugging with per-thread logs.
  void parallel_phase(u32 count, const std::function<void(u32)>& fn);

 private:
  struct Impl;
  void worker_loop(unsigned worker_index);

  unsigned threads_ = 1;
  Impl* impl_ = nullptr;
};

}  // namespace ofar
