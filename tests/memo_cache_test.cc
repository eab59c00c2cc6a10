// MemoCache's eviction rule with explicit costs: GreedyDual-frequency
// credit H = L + uses × cost, lowest credit out first (ties: oldest
// insertion), the floor L rising to each victim's credit, and the entry
// and byte caps. The scheduler-level tests (service_test.cc) run real
// queries, whose costs are wall-clock noise, so they assert only
// order-independent facts; the order itself is pinned here.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "service/memo_cache.h"
#include "service/query.h"

namespace saphyra {
namespace {

/// A result carrying `estimates` doubles of payload.
std::shared_ptr<const QueryResult> Result(size_t estimates = 1) {
  auto res = std::make_shared<QueryResult>();
  res->estimates.assign(estimates, 0.5);
  return res;
}

bool Cached(MemoCache* memo, const std::string& key) {
  return memo->Lookup(key) != nullptr;
}

TEST(MemoCacheTest, CostlierEntryOutlivesNewerCheaperOne) {
  MemoCache memo(2, 0);
  memo.Insert("old-dear", Result(), 5.0);
  memo.Insert("new-cheap", Result(), 1.0);
  memo.Insert("newest", Result(), 2.0);  // over the cap: one must go
  EXPECT_EQ(memo.size(), 2u);
  EXPECT_EQ(memo.evictions(), 1u);
  EXPECT_FALSE(Cached(&memo, "new-cheap"));  // LRU would have dropped old-dear
  EXPECT_TRUE(Cached(&memo, "old-dear"));
  EXPECT_TRUE(Cached(&memo, "newest"));
}

TEST(MemoCacheTest, HitProtectsEntryOfEqualCost) {
  MemoCache memo(2, 0);
  memo.Insert("a", Result(), 1.0);
  memo.Insert("b", Result(), 1.0);
  ASSERT_TRUE(Cached(&memo, "a"));  // credit 0 + 2 × 1
  memo.Insert("c", Result(), 1.0);
  EXPECT_FALSE(Cached(&memo, "b"));
  EXPECT_TRUE(Cached(&memo, "a"));
  EXPECT_TRUE(Cached(&memo, "c"));
}

TEST(MemoCacheTest, EqualCostsWithoutHitsEvictInInsertionOrder) {
  MemoCache memo(3, 0);
  for (int i = 0; i < 10; ++i) {
    memo.Insert("k" + std::to_string(i), Result(), 1.0);
    // A miss leaves the cache untouched, so probing the expected victim
    // never perturbs the order under test.
    if (i >= 3) {
      EXPECT_FALSE(Cached(&memo, "k" + std::to_string(i - 3))) << i;
    }
  }
  EXPECT_EQ(memo.evictions(), 7u);
  for (int i = 7; i < 10; ++i) {
    EXPECT_TRUE(Cached(&memo, "k" + std::to_string(i))) << i;
  }
}

TEST(MemoCacheTest, UnusedExpensiveEntryAgesOut) {
  // Capacity 2: one cost-10 entry that is never hit again, then cost-1
  // inserts. Each cheap insert evicts the older cheap entry and lifts the
  // floor to its credit, so the cheap credits climb 1, 2, 2, 3, 3, ...:
  // cheap insert i (i ≥ 2) carries credit ⌊(i + 1) / 2⌋. The expensive
  // entry, oldest at credit 10, is the victim once both cheap survivors
  // reach 10 — at cheap insert 20.
  auto after = [](int cheap_inserts) {
    MemoCache memo(2, 0);
    memo.Insert("dear", Result(), 10.0);
    for (int i = 1; i <= cheap_inserts; ++i) {
      memo.Insert("cheap" + std::to_string(i), Result(), 1.0);
    }
    return Cached(&memo, "dear");
  };
  EXPECT_TRUE(after(19));
  EXPECT_FALSE(after(20));
}

TEST(MemoCacheTest, ByteCapEvictsLowestCreditUntilUnderBudget) {
  const size_t unit = MemoCache::EntryBytes("a", *Result(100));
  const size_t big = MemoCache::EntryBytes("d", *Result(250));
  ASSERT_GT(big, 2 * unit);
  ASSERT_LT(big, 3 * unit);
  const size_t budget = 3 * unit + unit / 2;
  MemoCache memo(64, budget);
  memo.Insert("a", Result(100), 3.0);
  memo.Insert("b", Result(100), 1.0);
  memo.Insert("c", Result(100), 2.0);
  EXPECT_EQ(memo.bytes(), 3 * unit);
  EXPECT_EQ(memo.evictions(), 0u);
  // The big entry pushes the footprint past the budget: b (credit 1) and
  // then c (credit 2) leave, and a (credit 3) fits beside it.
  memo.Insert("d", Result(250), 5.0);
  EXPECT_EQ(memo.evictions(), 2u);
  EXPECT_EQ(memo.bytes(), unit + big);
  EXPECT_LE(memo.bytes(), budget);
  EXPECT_FALSE(Cached(&memo, "b"));
  EXPECT_FALSE(Cached(&memo, "c"));
  EXPECT_TRUE(Cached(&memo, "a"));
  EXPECT_TRUE(Cached(&memo, "d"));
}

TEST(MemoCacheTest, OversizeResultIsNotCached) {
  const size_t small = MemoCache::EntryBytes("s", *Result(1));
  MemoCache memo(64, 2 * small);
  memo.Insert("s", Result(1), 1.0);
  // Larger than the whole budget: caching it would evict everything and
  // still bust the budget, so it is dropped and nothing else moves.
  memo.Insert("huge", Result(1000), 100.0);
  EXPECT_FALSE(Cached(&memo, "huge"));
  EXPECT_EQ(memo.evictions(), 0u);
  EXPECT_EQ(memo.bytes(), small);
  EXPECT_TRUE(Cached(&memo, "s"));
}

TEST(MemoCacheTest, ZeroByteBudgetIsUnbounded) {
  MemoCache memo(4, 0);
  for (int i = 0; i < 4; ++i) {
    memo.Insert("big" + std::to_string(i), Result(100000), 1.0);
  }
  EXPECT_EQ(memo.size(), 4u);
  EXPECT_EQ(memo.evictions(), 0u);
  memo.Insert("big4", Result(100000), 1.0);  // the entry cap still rules
  EXPECT_EQ(memo.size(), 4u);
  EXPECT_EQ(memo.evictions(), 1u);
}

TEST(MemoCacheTest, HitsAccumulateSavedSecondsAndZeroCapacityDisables) {
  MemoCache memo(8, 0);
  memo.Insert("q", Result(), 0.25);
  memo.Insert("q", Result(), 9.0);  // a present key keeps its entry
  EXPECT_EQ(memo.size(), 1u);
  EXPECT_EQ(memo.saved_seconds(), 0.0);
  ASSERT_TRUE(Cached(&memo, "q"));
  ASSERT_TRUE(Cached(&memo, "q"));
  EXPECT_EQ(memo.saved_seconds(), 0.5);
  EXPECT_FALSE(Cached(&memo, "absent"));
  EXPECT_EQ(memo.saved_seconds(), 0.5);

  MemoCache off(0, 0);
  off.Insert("q", Result(), 1.0);
  EXPECT_EQ(off.size(), 0u);
  EXPECT_FALSE(Cached(&off, "q"));
}

}  // namespace
}  // namespace saphyra
