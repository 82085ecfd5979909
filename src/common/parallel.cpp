#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <mutex>
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

}  // namespace

// Every field a waiting thread polls is atomic. The caller publishes fn and
// count, then bumps `generation` (release); a worker that sees the new
// generation (acquire) reads them and runs its shards. The worker that takes
// `pending` to zero releases the caller. The mutex exists only for parking:
// a waker takes it between changing the polled atomic and notifying, so a
// thread that re-checked the atomic under the mutex and is about to wait
// cannot miss the wake-up.
struct ShardPool::Impl {
  alignas(64) std::atomic<u64> generation{0};  // bumped per phase
  const std::function<void(u32)>* fn = nullptr;  // published by generation
  u32 count = 0;                                 // published by generation
  std::atomic<bool> shutdown{false};             // published by generation
  alignas(64) std::atomic<unsigned> pending{0};  // workers still in a phase
  alignas(64) tsa::Mutex mutex;
  std::condition_variable start_cv;  // parked workers wait here
  std::condition_variable done_cv;   // a parked caller waits here
  // Written only before any worker runs (ctor) and after all are woken for
  // shutdown (dtor join) — never concurrently.
  std::vector<std::thread> workers;

  void wake(std::condition_variable& cv) {
    mutex.lock();
    mutex.unlock();
    cv.notify_all();
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
  impl_->generation.fetch_add(1, std::memory_order_release);
  impl_->wake(impl_->start_cv);
  for (auto& t : impl_->workers) t.join();
  delete impl_;
}

void ShardPool::worker_loop(unsigned worker_index) {
  Impl& im = *impl_;
  u64 seen = 0;
  for (;;) {
    u64 gen = im.generation.load(std::memory_order_acquire);
    for (u32 spin = 0; gen == seen && spin < kSpinIterations; ++spin) {
      cpu_relax();
      gen = im.generation.load(std::memory_order_acquire);
    }
    if (gen == seen) {
      std::unique_lock<std::mutex> lock(im.mutex.native());
      im.start_cv.wait(lock, [&] {
        gen = im.generation.load(std::memory_order_acquire);
        return gen != seen;
      });
    }
    if (im.shutdown.load(std::memory_order_relaxed)) return;
    seen = gen;
    const std::function<void(u32)>& fn = *im.fn;
    const u32 count = im.count;
    // Static stride partition: worker w takes shards w, w+N, w+2N, ...
    for (u32 i = worker_index; i < count; i += threads_) fn(i);
    if (im.pending.fetch_sub(1, std::memory_order_acq_rel) == 1)
      im.wake(im.done_cv);
  }
}

void ShardPool::wait_done() {
  Impl& im = *impl_;
  for (u32 spin = 0; spin < kSpinIterations; ++spin) {
    if (im.pending.load(std::memory_order_acquire) == 0) return;
    cpu_relax();
  }
  std::unique_lock<std::mutex> lock(im.mutex.native());
  im.done_cv.wait(
      lock, [&] { return im.pending.load(std::memory_order_acquire) == 0; });
}

void ShardPool::parallel_phase(u32 count, const std::function<void(u32)>& fn) {
  if (count == 0) return;
  if (impl_ == nullptr || count == 1) {
    for (u32 i = 0; i < count; ++i) fn(i);
    return;
  }
  impl_->fn = &fn;
  impl_->count = count;
  impl_->pending.store(static_cast<unsigned>(impl_->workers.size()),
                       std::memory_order_relaxed);
  impl_->generation.fetch_add(1, std::memory_order_release);
  impl_->wake(impl_->start_cv);
  // The caller is worker 0.
  for (u32 i = 0; i < count; i += threads_) fn(i);
  wait_done();
}

}  // namespace ofar
