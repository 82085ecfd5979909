// Fixture: telemetry under src/stats/ may timestamp its records with real
// time; none of the wall-clock forms is flagged here.

#include <chrono>
#include <ctime>

long stamp() {
  const auto t = std::chrono::system_clock::now();
  (void)t;
  return static_cast<long>(time(nullptr)) + static_cast<long>(clock());
}
