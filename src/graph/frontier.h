#ifndef SAPHYRA_GRAPH_FRONTIER_H_
#define SAPHYRA_GRAPH_FRONTIER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace saphyra {

/// \brief How level-synchronous traversals explore the graph.
///
/// Orthogonal to SamplingStrategy (which picks *what* is searched —
/// unidirectional vs. bidirectional); the traversal policy picks *how* each
/// BFS level is expanded:
///
///  * kTopDown  — classic push: scan the frontier's out-arcs, discover
///                unvisited endpoints. Cost per level: |frontier arcs|.
///  * kHybrid   — direction-optimizing: when the frontier's arc mass
///                dominates the unexplored remainder (see
///                DirectionHeuristic), flip to a bottom-up pull — scan the
///                still-unvisited vertices' arcs against a bitmap of the
///                frontier. Cost per level: |unexplored arcs|, which in the
///                dense-frontier regime is far smaller. Produces identical
///                dist/σ values (see DESIGN.md, "Direction-optimizing
///                traversal").
///  * kAuto     — let the library choose; currently identical to kHybrid
///                everywhere (every traversal substrate is a contiguous CSR
///                span — the global graph or a component view — so every
///                one supports the bottom-up scan). The `auto` spelling
///                stays accepted on the CLI and the wire.
enum class TraversalPolicy : uint8_t {
  kAuto = 0,
  kTopDown = 1,
  kHybrid = 2,
};

/// \brief CLI spelling of a policy (matches `--strategy`).
inline const char* TraversalPolicyName(TraversalPolicy p) {
  switch (p) {
    case TraversalPolicy::kTopDown: return "topdown";
    case TraversalPolicy::kHybrid: return "hybrid";
    default: return "auto";
  }
}

/// \brief Parse the `--strategy` spelling; returns false on unknown input.
inline bool ParseTraversalPolicy(const std::string& s, TraversalPolicy* out) {
  if (s == "auto") {
    *out = TraversalPolicy::kAuto;
  } else if (s == "topdown") {
    *out = TraversalPolicy::kTopDown;
  } else if (s == "hybrid") {
    *out = TraversalPolicy::kHybrid;
  } else {
    return false;
  }
  return true;
}

/// \brief The classic |frontier arcs| vs. |unexplored arcs| switch.
///
/// Beamer's direction-optimizing BFS flips to bottom-up when the frontier
/// carries more than 1/α of the unexplored arc mass. The textbook α ≈ 14
/// assumes the pull can stop at the first parent found; a σ-counting BFS
/// must scan *every* arc of an unvisited vertex to accumulate the full
/// path-count mass, so the pull saves less and the switch must be more
/// conservative: α = 2 charges a bottom-up level at most twice the arcs of
/// the top-down level it replaces, which the cheaper per-arc work (a bitmap
/// probe instead of a 16-byte state-line touch) comfortably amortizes.
/// Tiny frontiers never flip — the bitmap build would dominate.
struct DirectionHeuristic {
  static constexpr uint64_t kAlpha = 2;
  static constexpr uint64_t kMinFrontierArcs = 64;

  static bool PreferBottomUp(uint64_t frontier_arcs,
                             uint64_t unexplored_arcs) {
    return frontier_arcs >= kMinFrontierArcs &&
           frontier_arcs * kAlpha >= unexplored_arcs;
  }
};

/// \brief Dual-representation vertex frontier for level-synchronous BFS.
///
/// Holds one BFS level as a *sparse* vertex list (what a top-down push
/// iterates) and, on demand, as a *dense* bitmap (what a bottom-up pull
/// probes). Both sides are preallocated once for a fixed vertex domain and
/// reset in O(1): the sparse side by rewinding its size, the dense side by
/// bumping an epoch counter — each 64-bit bitmap word carries the epoch it
/// was last written in, exactly the reset trick the sampler scratch in
/// bc/path_sampler.h uses per node. A frontier can therefore be re-marked
/// millions of times (once per sampled path) with no O(n) clearing.
///
/// The sparse list owns one slot of slack past the domain size so the
/// branchless expansion idiom (store the push candidate unconditionally,
/// bump the count only on discovery) stays in bounds.
class FrontierSet {
 public:
  FrontierSet() = default;
  explicit FrontierSet(uint32_t domain_size) { Reset(domain_size); }

  /// \brief (Re)allocate for vertex ids in [0, domain_size). Keeps the
  /// bitmap epoch, so previously marked bits stay invalidated.
  void Reset(uint32_t domain_size) {
    domain_size_ = domain_size;
    list_.resize(static_cast<size_t>(domain_size) + 1);
    words_.resize((static_cast<size_t>(domain_size) + 63) / 64);
    size_ = 0;
  }

  uint32_t domain_size() const { return domain_size_; }

  // --- sparse side -------------------------------------------------------

  void Clear() { size_ = 0; }
  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  void Push(uint32_t v) { list_[size_++] = v; }
  /// Raw slot access for the branchless push (one slot of slack past the
  /// domain size is guaranteed).
  uint32_t* data() { return list_.data(); }
  const uint32_t* data() const { return list_.data(); }
  void set_size(size_t n) { size_ = n; }
  std::span<const uint32_t> vertices() const { return {list_.data(), size_}; }

  // --- dense side (epoch-reset bitmap) -----------------------------------

  /// \brief Invalidate every marked bit in O(1).
  void BeginEpoch() { ++epoch_; }

  void Mark(uint32_t v) {
    Word& w = words_[v >> 6];
    if (w.epoch != epoch_) {
      w.epoch = epoch_;
      w.bits = 0;
    }
    w.bits |= uint64_t{1} << (v & 63);
  }

  /// \brief Mark every vertex currently in the sparse list.
  void MarkSparse() {
    for (size_t i = 0; i < size_; ++i) Mark(list_[i]);
  }

  bool Test(uint32_t v) const {
    const Word& w = words_[v >> 6];
    return w.epoch == epoch_ && ((w.bits >> (v & 63)) & 1) != 0;
  }

  /// \brief Swap with another frontier (the level flip: next becomes
  /// current). Swaps both representations and their epochs.
  void Swap(FrontierSet& other) {
    list_.swap(other.list_);
    words_.swap(other.words_);
    std::swap(size_, other.size_);
    std::swap(domain_size_, other.domain_size_);
    std::swap(epoch_, other.epoch_);
  }

 private:
  /// One bitmap word plus the epoch it was written in: 16 bytes per 64
  /// vertices, and a stale word is recognized (and lazily zeroed) by its
  /// epoch instead of an O(n) clear.
  struct Word {
    uint64_t bits = 0;
    uint64_t epoch = 0;
  };

  std::vector<uint32_t> list_;
  std::vector<Word> words_;
  size_t size_ = 0;
  uint32_t domain_size_ = 0;
  uint64_t epoch_ = 1;
};

}  // namespace saphyra

#endif  // SAPHYRA_GRAPH_FRONTIER_H_
