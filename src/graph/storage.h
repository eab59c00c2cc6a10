#ifndef SAPHYRA_GRAPH_STORAGE_H_
#define SAPHYRA_GRAPH_STORAGE_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <span>
#include <utility>
#include <vector>

namespace saphyra {

/// \brief Immutable array that either owns its elements or views memory
/// owned by someone else (typically an mmap'ed `.sgr` cache file).
///
/// This is the ownership abstraction behind zero-copy graph loading (see
/// DESIGN.md, "The .sgr on-disk format"): `Graph` and `ComponentViews`
/// store their CSR arrays as ArrayRefs, so the same accessors run on
/// heap-built graphs (GraphBuilder, generators) and on graphs whose arrays
/// live inside a mapped cache file, with no copy on load.
///
/// In view mode the ArrayRef carries a type-erased keepalive handle; the
/// backing storage (e.g. the MappedFile) stays alive as long as any
/// ArrayRef referencing it does. Copies are cheap in view mode (span +
/// shared_ptr) and deep in owned mode, which preserves the value semantics
/// the rest of the code base expects from std::vector members.
template <typename T>
class ArrayRef {
 public:
  ArrayRef() = default;

  /// \brief Owned mode: adopt `values`.
  ArrayRef(std::vector<T> values)  // NOLINT: implicit by design
      : owned_(std::move(values)) {}

  /// \brief View mode: reference `view`, keeping `keepalive` alive for the
  /// lifetime of this ArrayRef (and of its copies).
  ArrayRef(std::span<const T> view, std::shared_ptr<const void> keepalive)
      : view_(view), keepalive_(std::move(keepalive)), is_view_(true) {}

  const T* data() const { return is_view_ ? view_.data() : owned_.data(); }
  size_t size() const { return is_view_ ? view_.size() : owned_.size(); }
  bool empty() const { return size() == 0; }
  const T& operator[](size_t i) const { return data()[i]; }
  const T* begin() const { return data(); }
  const T* end() const { return data() + size(); }
  std::span<const T> span() const { return {data(), size()}; }

  /// \brief True when this ArrayRef views foreign storage (mmap mode).
  bool is_view() const { return is_view_; }

 private:
  std::vector<T> owned_;
  std::span<const T> view_;  // only meaningful when is_view_
  std::shared_ptr<const void> keepalive_;
  bool is_view_ = false;
};

/// \brief Element-wise equality, whichever storage either side uses.
template <typename T>
bool operator==(const ArrayRef<T>& a, const ArrayRef<T>& b) {
  return std::ranges::equal(a.span(), b.span());
}

/// \brief Move `values` into one immutable heap buffer and view it: every
/// copy of the result shares that buffer, which lives as long as any copy.
template <typename T>
ArrayRef<T> ShareArray(std::vector<T> values) {
  auto owner = std::make_shared<const std::vector<T>>(std::move(values));
  const std::span<const T> view(owner->data(), owner->size());
  return ArrayRef<T>(view, std::move(owner));
}

}  // namespace saphyra

#endif  // SAPHYRA_GRAPH_STORAGE_H_
