#include "common/parallel.hpp"

#include <atomic>
#include <thread>

namespace ofar {

void run_parallel(const std::vector<std::function<void()>>& jobs,
                  unsigned threads) {
  if (threads == 0) threads = std::thread::hardware_concurrency();
  if (threads == 0) threads = 1;
  if (threads == 1 || jobs.size() <= 1) {
    for (const auto& job : jobs) job();
    return;
  }
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= jobs.size()) return;
      jobs[i]();
    }
  };
  std::vector<std::thread> pool;
  const unsigned n = std::min<std::size_t>(threads, jobs.size());
  pool.reserve(n);
  for (unsigned t = 0; t < n; ++t) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
}

// ---------------------------------------------------------------------------
// ShardPool
// ---------------------------------------------------------------------------

namespace {

inline void cpu_relax() noexcept {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield" ::: "memory");
#endif
}

/// Waits until `a` no longer holds `old` and returns what it holds then:
/// spins for the pool's budget, yielding the core every kYieldInterval
/// pauses, then parks in atomic::wait until a notify.
template <typename T>
T await_change(const std::atomic<T>& a, T old) {
  for (u32 spin = 1; spin <= ShardPool::kSpinIterations; ++spin) {
    const T now = a.load(std::memory_order_acquire);
    if (now != old) return now;
    if (spin % ShardPool::kYieldInterval == 0)
      std::this_thread::yield();
    else
      cpu_relax();
  }
  a.wait(old, std::memory_order_acquire);
  return a.load(std::memory_order_acquire);
}

}  // namespace

// Every field a waiting thread polls is atomic. The caller publishes fn and
// count, then bumps `generation` (release) and notifies it; a worker that
// sees the new generation (acquire) reads them and runs its shards. The
// worker that takes `pending` to zero notifies the caller. A notify with no
// parked waiter is one load, so the spinning fast path pays almost nothing
// for it.
struct ShardPool::Impl {
  alignas(64) std::atomic<u32> generation{0};    // bumped per phase
  const std::function<void(u32)>* fn = nullptr;  // published by generation
  u32 count = 0;                                 // published by generation
  std::atomic<bool> shutdown{false};             // published by generation
  alignas(64) std::atomic<u32> pending{0};       // workers still in a phase
  // Written only before any worker runs (ctor) and after all are woken for
  // shutdown (dtor join) — never concurrently.
  std::vector<std::thread> workers;

  void start_phase() {
    generation.fetch_add(1, std::memory_order_release);
    generation.notify_all();
  }
};

ShardPool::ShardPool(unsigned threads)
    : threads_(threads < 1 ? 1 : threads) {
  if (threads_ == 1) return;
  impl_ = new Impl;
  impl_->workers.reserve(threads_ - 1);
  for (unsigned w = 1; w < threads_; ++w)
    impl_->workers.emplace_back([this, w] { worker_loop(w); });
}

ShardPool::~ShardPool() {
  if (impl_ == nullptr) return;
  impl_->shutdown.store(true, std::memory_order_relaxed);
  impl_->start_phase();
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

void ShardPool::worker_loop(unsigned worker_index) {
  Impl& im = *impl_;
  u32 seen = 0;
  for (;;) {
    seen = await_change(im.generation, seen);
    if (im.shutdown.load(std::memory_order_relaxed)) return;
    const std::function<void(u32)>& fn = *im.fn;
    const u32 count = im.count;
    // Static stride partition: worker w takes shards w, w+N, w+2N, ...
    for (u32 i = worker_index; i < count; i += threads_) fn(i);
    if (im.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      im.pending.notify_one();
  }
}

void ShardPool::parallel_phase(u32 count, const std::function<void(u32)>& fn) {
  if (count == 0) return;
  if (impl_ == nullptr || count == 1) {
    for (u32 i = 0; i < count; ++i) fn(i);
    return;
  }
  impl_->fn = &fn;
  impl_->count = count;
  impl_->pending.store(static_cast<u32>(impl_->workers.size()),
                       std::memory_order_relaxed);
  impl_->start_phase();
  // The caller is worker 0.
  for (u32 i = 0; i < count; i += threads_) fn(i);
  for (u32 left = impl_->pending.load(std::memory_order_acquire); left != 0;)
    left = await_change(impl_->pending, left);
}

}  // namespace ofar
