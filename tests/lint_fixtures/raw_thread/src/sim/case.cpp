// Fixture: raw threading primitives outside src/common/parallel are
// banned; querying the core count is not a thread.

#include <future>
#include <thread>

struct Sweep {
  std::thread worker_;  // expect: raw-thread
};

void run_points() {
  auto f = std::async([] { return 1; });  // expect: raw-thread
  std::jthread t([] {});                  // expect: raw-thread
  const unsigned n = std::thread::hardware_concurrency();  // fine
  (void)f;
  (void)n;
}
