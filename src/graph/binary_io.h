#ifndef SAPHYRA_GRAPH_BINARY_IO_H_
#define SAPHYRA_GRAPH_BINARY_IO_H_

/// \file
/// The `.sgr` binary graph cache: a versioned, 64-byte-aligned, mmap-ready
/// on-disk image of a CSR graph plus (optionally) its full SaPHyRa
/// preprocessing — biconnected labels, connectivity, block-cut-tree
/// out-reach table, and the per-component CSR views of
/// bicomp/component_view.h. Text corpora (graph/io.h) pay a line-by-line
/// parse plus an O(n+m) decomposition on every run; a `.sgr` cache pays
/// them once (tools/graph_convert.cc) and then loads in O(1) via mmap, the
/// big arrays staying zero-copy inside the mapping (graph/storage.h).
///
/// Byte-level layout, alignment/endianness rules, the versioning policy and
/// the mmap ownership/trust model are specified in docs/formats.md (the
/// cache's contracts in DESIGN.md, "The .sgr on-disk format"); user-facing
/// workflows (graph_convert, cache-aware loading) are in README.md, section
/// "The .sgr binary cache".

#include <cstdint>
#include <string>

#include "bicomp/biconnected.h"
#include "bicomp/block_cut_tree.h"
#include "bicomp/component_view.h"
#include "graph/connectivity.h"
#include "graph/graph.h"
#include "util/status.h"

namespace saphyra {

/// Format identification. The magic doubles as a version gate: readers
/// reject files whose magic, byte-order tag, or version they do not know.
inline constexpr char kSgrMagic[8] = {'S', 'A', 'P', 'H', 'S', 'G', 'R', '\n'};
inline constexpr uint32_t kSgrByteOrderTag = 0x01020304;
inline constexpr uint32_t kSgrVersion = 1;
/// Every section starts on a 64-byte boundary (cache line; also satisfies
/// the alignment of every element type used by the format).
inline constexpr uint64_t kSgrAlignment = 64;

/// \brief A graph together with (optionally) its persisted preprocessing.
///
/// This is what a `.sgr` file deserializes to. When `has_decomposition` is
/// true, `bcc`/`conn`/`views`/`tree` hold exactly what
/// ComputeBiconnectedComponents / ConnectedComponents / ComponentViews /
/// BlockCutTree::Build would have produced on `graph` — IspIndex can adopt
/// them (IspIndex(g, std::move(cache))) and skip the whole decomposition.
struct GraphCache {
  Graph graph;
  /// Content digest of `graph` (GraphContentFingerprint), read from the
  /// `.sgr` header when the cache was loaded from a file that recorded
  /// one; 0 = unknown (text parse, or a cache written before fingerprints
  /// existed). The serving layer keys its result memo on this — see
  /// docs/serving.md.
  uint64_t content_fingerprint = 0;
  bool has_decomposition = false;
  BiconnectedComponents bcc;
  ComponentLabels conn;
  ComponentViews views;
  BlockCutTree tree;

};

struct SgrWriteOptions {
  /// When non-empty, the size and mtime of this file are recorded in the
  /// header so loaders can detect a stale cache (source edited after
  /// conversion). Leave empty for graphs with no backing text file; such
  /// caches never test as fresh and must be loaded explicitly.
  std::string source_path;
  /// Pre-captured source stat (CaptureSourceStat). When nonzero these are
  /// recorded instead of stat'ing `source_path` at write time — capture
  /// them *before* parsing so a source edited mid-conversion yields a
  /// cache that correctly tests stale.
  uint64_t source_size = 0;
  uint64_t source_mtime_ns = 0;
  /// Whether the SNAP parse that produced the graph compacted node ids
  /// (LoadSnapEdgeList's compact_ids). Recorded in the header; the
  /// auto-substitution path refuses a cache whose id scheme differs from
  /// the text parse it replaces. Irrelevant for DIMACS sources.
  bool compact_ids = true;
};

/// \brief Stat `source_path` into `opts` (size + mtime). Call before the
/// text parse; see SgrWriteOptions::source_size.
Status CaptureSourceStat(const std::string& source_path,
                         SgrWriteOptions* opts);

struct SgrReadOptions {
  /// Map the file and reference its bytes zero-copy (default). When false,
  /// the file is read into one owned buffer instead — same interface, no
  /// page-cache sharing; used by tests and exotic filesystems.
  bool prefer_mmap = true;
};

/// \brief Write `g` (and, when all four pointers are non-null, its
/// decomposition) as a `.sgr` file. The decomposition must have been
/// computed on `g`.
Status WriteSgr(const std::string& path, const Graph& g,
                const BiconnectedComponents* bcc, const ComponentLabels* conn,
                const ComponentViews* views, const BlockCutTree* tree,
                const SgrWriteOptions& options = {});

/// \brief Load a `.sgr` file. The heavy CSR arrays of `out->graph` and
/// `out->views` reference the mapping zero-copy (the mapping lives as long
/// as they do); a graph-only cache therefore loads in near-constant time
/// (header/section validation plus one O(n) offsets-monotonicity pass).
/// With a decomposition, the side tables of `out->bcc`/`out->conn`/
/// `out->tree` — including the Θ(m) `arc_component` and `rev_arc` arrays —
/// are materialized by sequential memcpy from the mapping: no parsing and
/// no recomputation, but not free (see docs/formats.md, "mmap ownership model").
Status LoadSgr(const std::string& path, GraphCache* out,
               const SgrReadOptions& options = {});

/// \brief Conventional cache path of a text corpus: `<source>.sgr`.
std::string SgrCachePathFor(const std::string& source_path);

/// \brief Content digest of a graph: FNV-1a over (num_nodes, num_arcs, the
/// CSR offset array, the adjacency array). Two graphs hash equal iff their
/// CSR images are byte-identical, regardless of how they were loaded (text
/// parse or `.sgr` cache). O(n + m); WriteSgr computes it once and records
/// it in the header so cache loads get it for free
/// (GraphCache::content_fingerprint). Used by the serving layer to key
/// memoized query results to the exact graph they were computed on.
uint64_t GraphContentFingerprint(const Graph& g);

/// \brief Sets `*fresh` iff `sgr_path` exists, parses as `.sgr`, and its
/// recorded source size+mtime match the current stat of `source_path`.
/// Reads only the 64-byte header and never fails: a missing, truncated,
/// unreadable, or foreign cache is simply reported as not fresh.
Status SgrIsFresh(const std::string& sgr_path, const std::string& source_path,
                  bool* fresh);

struct LoadGraphOptions {
  /// "snap", "dimacs", "sgr", or "auto" (sgr iff the path ends in ".sgr",
  /// snap otherwise).
  std::string format = "auto";
  /// Auto-use `<path>.sgr` when present and fresh (text formats only).
  bool use_cache = true;
  /// SNAP loader id compaction (must match how the cache was converted).
  bool compact_ids = true;
  SgrReadOptions sgr;
};

/// \brief Cache-aware graph loading: the one entry point tools, benches and
/// examples use. Loads `path` according to `options.format`; for text
/// formats, transparently substitutes the `<path>.sgr` cache when it is
/// present and fresh (falling back to the text parse if the cache is stale,
/// truncated, or from a different format version). `*loaded_from_cache`
/// reports which path was taken.
Status LoadGraphAuto(const std::string& path, const LoadGraphOptions& options,
                     GraphCache* out, bool* loaded_from_cache = nullptr);

}  // namespace saphyra

#endif  // SAPHYRA_GRAPH_BINARY_IO_H_
