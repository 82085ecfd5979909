// Fixture: wall-clock reads must be flagged everywhere (simulation state
// must advance on Network::now()), including when the clock type is
// laundered through a using-alias, and the C library's time()/clock() in
// any spelling; a member that happens to be called `time` is fine.

#include <chrono>
#include <ctime>

using WallClock = std::chrono::steady_clock;

struct Timer {
  void tick();
};

void Timer::tick() {
  auto a = std::chrono::steady_clock::now();  // expect: wall-clock
  auto b = WallClock::now();                  // expect: wall-clock
  (void)a;
  (void)b;
}

struct Span {
  long time() const;
};

long libc_clocks(const Span& s) {
  long a = time(nullptr);     // expect: wall-clock
  long b = std::time(NULL);   // expect: wall-clock
  long c = clock();           // expect: wall-clock
  return a + b + c + s.time();  // fine: a member, not the C library
}

static const long kBoot = ::time(0);  // expect: wall-clock
