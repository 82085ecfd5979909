// Fixture: declaring any std::unordered_* container is banned, not just
// iterating one: members, aliases and locals are flagged where they are
// declared. An unordered type reaches other code only through such a
// spelling, so iterating it through a chain of aliases adds no finding.

#include <unordered_map>
#include <unordered_set>

using NodeSet = std::unordered_set<int>;  // expect: unordered-container
using NodeSetAlias = NodeSet;

struct Cache {
  std::unordered_map<int, double> memo_;  // expect: unordered-container
  std::unordered_multimap<int, int> index_;  // expect: unordered-container
};

int count_unique(const int* ids, int n) {
  std::unordered_set<int> seen;  // expect: unordered-container
  for (int i = 0; i < n; ++i) seen.insert(ids[i]);
  return static_cast<int>(seen.size());
}

int sum(const NodeSetAlias& nodes) {
  int total = 0;
  for (int v : nodes) total += v;  // its alias line is flagged
  return total;
}
