// Fixture: declaring any std::unordered_* container is banned, not just
// iterating one: members, aliases and locals are flagged where they are
// declared, and a reviewed site may carry a waiver.

#include <unordered_map>
#include <unordered_set>

using NodeSet = std::unordered_set<int>;  // expect: unordered-container

struct Cache {
  std::unordered_map<int, double> memo_;  // expect: unordered-container
  std::unordered_multimap<int, int> index_;  // lint: allow(unordered-container)
};

int count_unique(const int* ids, int n) {
  std::unordered_set<int> seen;  // expect: unordered-container
  for (int i = 0; i < n; ++i) seen.insert(ids[i]);
  return static_cast<int>(seen.size());
}
