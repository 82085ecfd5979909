// Fixture: C library RNG calls are banned wherever they appear (all
// randomness flows through common/rng.hpp, seeded from SimConfig),
// qualified or not; a member of some other entity that happens to share
// the name is not the C library's.

#include <cstdlib>

struct Rng {
  unsigned random();
};

int seed_from_libc() {
  std::srand(7);        // expect: libc-rng
  int a = rand();       // expect: libc-rng
  int b = ::random();   // expect: libc-rng
  return a + b;
}

static const int kJitter = std::rand() % 4;  // expect: libc-rng

unsigned draw(Rng& rng, Rng* other) {
  return rng.random() + other->random() + Rng::random();  // fine: members
}
