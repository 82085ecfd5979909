// Fixture: src/common/parallel owns the worker threads; the raw-thread
// ban does not apply here.

#include <thread>
#include <vector>

void start_pool(unsigned n) {
  std::vector<std::thread> workers;  // fine: the sanctioned owner
  for (unsigned i = 0; i < n; ++i) workers.emplace_back([] {});
  for (std::thread& w : workers) w.join();
}
