#include "service/memo_cache.h"

namespace saphyra {

size_t MemoCache::EntryBytes(const std::string& canonical,
                             const QueryResult& result) {
  return canonical.size() + result.id.size() + result.graph.size() +
         result.nodes.size() * sizeof(NodeId) +
         result.estimates.size() * sizeof(double) + 192;
}

std::shared_ptr<const QueryResult> MemoCache::Lookup(
    const std::string& canonical) {
  const auto it = entries_.find(canonical);
  if (it == entries_.end()) return nullptr;
  Entry& e = it->second;
  order_.erase(e.order);
  ++e.uses;
  e.order.first = floor_ + static_cast<double>(e.uses) * e.cost;
  order_.emplace(e.order, it);
  saved_seconds_ += e.cost;
  return e.result;
}

void MemoCache::Insert(const std::string& canonical,
                       std::shared_ptr<const QueryResult> result,
                       double cost_seconds) {
  if (capacity_ == 0 || entries_.find(canonical) != entries_.end()) return;
  const size_t bytes = EntryBytes(canonical, *result);
  if (capacity_bytes_ != 0 && bytes > capacity_bytes_) return;
  const OrderKey order{floor_ + cost_seconds, next_seq_++};
  const auto it =
      entries_
          .emplace(canonical,
                   Entry{std::move(result), bytes, cost_seconds, 1, order})
          .first;
  order_.emplace(order, it);
  bytes_ += bytes;
  while (entries_.size() > capacity_ ||
         (capacity_bytes_ != 0 && bytes_ > capacity_bytes_)) {
    const auto victim = order_.begin();
    floor_ = victim->first.first;
    bytes_ -= victim->second->second.bytes;
    entries_.erase(victim->second);
    order_.erase(victim);
    ++evictions_;
  }
}

}  // namespace saphyra
