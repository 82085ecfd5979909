// Fixture: std::random_device (hardware entropy) is banned in
// declarations and expressions alike: a seed drawn from it makes a run
// unrepeatable.

#include <random>

struct Seeder {
  std::random_device entropy_;  // expect: random-device
};

unsigned fresh_seed() {
  return std::random_device{}();  // expect: random-device
}
