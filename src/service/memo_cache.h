#ifndef SAPHYRA_SERVICE_MEMO_CACHE_H_
#define SAPHYRA_SERVICE_MEMO_CACHE_H_

/// \file
/// MemoCache: the scheduler's completed-results memo, bounded in entries
/// and in bytes, with GreedyDual-frequency eviction charged by each
/// result's measured compute time (Cao & Irani, "Cost-Aware WWW Proxy
/// Caching Algorithms", USITS 1997; Cherkasova, HPL-98-69, 1998).
///
/// Every entry carries a credit H = L + uses × cost, where `cost` is the
/// compute seconds of the run that produced it and `uses` counts its
/// insert and every hit since. When a cap is exceeded the lowest-credit
/// entry leaves (ties: the oldest insertion) and the floor L rises to its
/// credit, so an expensive entry that stops being asked for ages out
/// behind the cheaper ones that are still in demand. Lookups, inserts and
/// evictions each cost O(log n): the victim comes off an ordered index
/// keyed by (credit, insertion sequence), never from a scan.
///
/// The policy decides only *which* results stay cached, never what a
/// result contains: a hit returns the stored bytes, which the determinism
/// contract makes equal to a recompute.
///
/// Not thread-safe; the owner serializes every call (BatchScheduler holds
/// it under its mutex).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "service/query.h"

namespace saphyra {

class MemoCache {
 public:
  /// \brief `capacity` entries (0 disables caching) and `capacity_bytes`
  /// of charged footprint (0 = unbounded); a cap is exceeded when either
  /// is.
  MemoCache(size_t capacity, size_t capacity_bytes)
      : capacity_(capacity), capacity_bytes_(capacity_bytes) {}

  /// \brief The stored result of `canonical`, or null. A hit counts one
  /// more use, raises the entry's credit to L + uses × cost and adds its
  /// cost to saved_seconds(). Memoized results are immutable and shared by
  /// pointer, so a hit is a refcount bump, not an O(|result|) copy.
  std::shared_ptr<const QueryResult> Lookup(const std::string& canonical);

  /// \brief Cache `result`, which took `cost_seconds` to compute, then
  /// evict lowest-credit entries until both caps hold. A key already
  /// present keeps its stored entry (the determinism contract makes the
  /// bytes identical). A result whose footprint alone exceeds the byte
  /// budget is not cached: it would evict the whole memo and still not
  /// fit.
  void Insert(const std::string& canonical,
              std::shared_ptr<const QueryResult> result, double cost_seconds);

  /// \brief Footprint charged against the byte budget: the key, the
  /// result's payload vectors and a fixed overhead standing in for the
  /// map and index nodes and the QueryResult scalars. O(|targets|) for
  /// subset queries, O(n) for whole-network results, so one big result
  /// displaces proportionally many small ones.
  static size_t EntryBytes(const std::string& canonical,
                           const QueryResult& result);

  size_t size() const { return entries_.size(); }
  size_t bytes() const { return bytes_; }
  /// Entries displaced by either cap.
  uint64_t evictions() const { return evictions_; }
  /// Σ cost over all hits: the compute time the memo spared.
  double saved_seconds() const { return saved_seconds_; }

 private:
  struct Entry;
  using EntryMap = std::map<std::string, Entry, std::less<>>;
  /// Eviction order: (credit, insertion sequence), lowest first.
  using OrderKey = std::pair<double, uint64_t>;

  struct Entry {
    std::shared_ptr<const QueryResult> result;
    size_t bytes = 0;
    double cost = 0.0;
    uint64_t uses = 0;
    OrderKey order;
  };

  size_t capacity_;
  size_t capacity_bytes_;
  EntryMap entries_;
  std::map<OrderKey, EntryMap::iterator> order_;
  /// L: the credit of the last evicted entry.
  double floor_ = 0.0;
  uint64_t next_seq_ = 0;
  size_t bytes_ = 0;
  uint64_t evictions_ = 0;
  double saved_seconds_ = 0.0;
};

}  // namespace saphyra

#endif  // SAPHYRA_SERVICE_MEMO_CACHE_H_
