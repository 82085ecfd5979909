// Fixture: the flat-state view type (sim/flat_state.hpp CreditView
// pattern). A view memoizes per-cycle summaries in its own
// members while serving parallel-phase routing queries, which is only
// shard-safe because each shard owns one view instance — the
// OFAR_SHARD_LOCAL annotation is what the analyzer accepts as that
// ownership claim. A lookalike view without the annotation must have its
// memoization writes flagged, both inside its own methods and when a
// parallel phase calls them.

// Annotated view: bind() and the lazy snapshot refresh mutate members
// from a parallel phase — fine, the class is declared shard-owned.
struct OFAR_SHARD_LOCAL CreditViewLike {
  void bind(int router);
  double occupancy(int port);
  int epoch_ = 0;
  int router_ = 0;
  double memo_ = 0.0;
};

void CreditViewLike::bind(int router) {
  router_ = router;  // fine: shard-local view rebind
  epoch_ = epoch_ + 1;
}

double CreditViewLike::occupancy(int port) {
  memo_ = memo_ + port;  // fine: shard-local memoized summary
  return memo_;
}

// Unannotated lookalike: identical memoization pattern, no ownership
// claim — every member write is a potential cross-shard race.
struct BareView {
  void bind(int router);
  double occupancy(int port);
  int epoch_ = 0;
  double memo_ = 0.0;
};

void BareView::bind(int router) {
  epoch_ = router;  // expect: cross-shard-write
}

double BareView::occupancy(int port) {
  memo_ = memo_ + port;  // expect: cross-shard-write
  return memo_;
}

// A view holding scratch containers: mutating-container calls on an
// unannotated view are caught at the call site too; the annotated twin
// is parallel-legal.
struct OFAR_SHARD_LOCAL OwnedScratchView {
  void note(int p);
  int deps_[4] = {0, 0, 0, 0};
};

void OwnedScratchView::note(int p) {
  deps_[p] = 1;  // fine: shard-local view scratch
}

struct Kernel {
  OFAR_PARALLEL_PHASE void do_allocation();
  CreditViewLike view_;
  BareView bare_;
  OwnedScratchView scratch_;
  int heads_ = 0;
};

void Kernel::do_allocation() {
  view_.bind(1);        // fine: the view's writes are declared shard-owned
  view_.occupancy(2);
  bare_.bind(3);        // pulls BareView's writes into parallel context —
  bare_.occupancy(4);   // the findings anchor at the definitions above
  scratch_.note(3);
  heads_ = 4;           // expect: cross-shard-write
}
