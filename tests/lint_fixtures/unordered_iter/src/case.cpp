// Fixture: range-for over a std::unordered_* container must be flagged
// even when the container type is hidden behind a typedef/using chain;
// an explicit waiver suppresses the finding. (The declaration itself is
// banned too; see the unordered_container fixture.)

#include <unordered_map>
#include <vector>

using PendingMap = std::unordered_map<int, int>;  // expect: unordered-container
using PendingAlias = PendingMap;

struct Table {
  void scan();
  void scan_waived();
  void scan_vector();
  PendingAlias live_;
  std::vector<int> order_;
};

void Table::scan() {
  for (const auto& kv : live_) {  // expect: unordered-iter
    (void)kv;
  }
}

void Table::scan_waived() {
  for (const auto& kv : live_) {  // lint: allow(unordered-iter)
    (void)kv;
  }
}

void Table::scan_vector() {
  for (int v : order_) {  // fine: deterministic order
    (void)v;
  }
}
