#include "graph/binary_io.h"

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <utility>
#include <vector>

#include "graph/io.h"
#include "util/failpoint.h"
#include "util/hash.h"
#include "util/mapped_file.h"

namespace saphyra {

namespace {

// ---------------------------------------------------------------------------
// On-disk structures. All fixed-size, written in the producer's native byte
// order; `byte_order` in the header lets a foreign-endian reader detect the
// mismatch and refuse. See DESIGN.md, "The .sgr on-disk format".
// ---------------------------------------------------------------------------

struct SgrHeader {
  char magic[8];
  uint32_t byte_order;  // kSgrByteOrderTag as written by the producer
  uint32_t version;
  uint32_t section_count;
  uint32_t flags;
  uint64_t num_nodes;
  uint64_t num_arcs;
  uint64_t source_size;      // stat of the text corpus at conversion time
  uint64_t source_mtime_ns;  // 0/0 = unknown provenance (never fresh)
  // Content digest of the CSR image (GraphContentFingerprint). Occupies
  // what was a reserved field, so caches written before fingerprints
  // existed read back as 0 = unknown — an additive change, no version
  // bump (see docs/formats.md).
  uint64_t content_fingerprint;
};
static_assert(sizeof(SgrHeader) == 64, ".sgr header must stay 64 bytes");

struct SgrSection {
  uint32_t kind;        // SectionKind; readers skip kinds they don't know
  uint32_t elem_bytes;  // sizeof one element (sanity check on read)
  uint64_t offset;      // absolute file offset, kSgrAlignment-aligned
  uint64_t count;       // number of elements
  uint64_t reserved;
};
static_assert(sizeof(SgrSection) == 32, ".sgr section entry must stay 32B");

/// Fixed per-file scalars that don't merit their own array section.
struct SgrMeta {
  uint32_t max_degree;
  uint32_t num_bicomponents;
  uint32_t max_component_size;
  uint32_t num_connected_components;
};
static_assert(sizeof(SgrMeta) == 16);

enum SectionKind : uint32_t {
  kSecMeta = 1,
  kSecGraphOffsets = 2,        // u64 × (n+1)
  kSecGraphAdj = 3,            // u32 × num_arcs
  kSecBccArcComponent = 4,     // u32 × num_arcs
  kSecBccIsCutpoint = 5,       // u8  × n
  kSecBccNodeComponent = 6,    // u32 × n
  kSecBccCutpointCount = 7,    // u32 × n
  kSecBccRevArc = 8,           // u64 × num_arcs
  kSecConnLabels = 9,          // u32 × n
  kSecConnSizes = 10,          // u32 × num_connected_components
  kSecViewNodeBegin = 11,      // u64 × (ℓ+1)
  kSecViewNodes = 12,          // u32 × Σ|C_i|
  kSecViewOffsets = 13,        // u64 × (Σ|C_i|+1)
  kSecViewAdj = 14,            // u32 × num_arcs
  kSecTreeConnSizeOfComp = 15, // u64 × ℓ
  kSecTreeCutReach = 16,       // u64 × 2·entries: (key, reach) pairs
};

constexpr uint32_t kFlagHasDecomposition = 1u << 0;
constexpr uint32_t kFlagCompactIds = 1u << 1;
constexpr uint64_t kAnyCount = static_cast<uint64_t>(-1);

uint64_t AlignUp(uint64_t x) {
  return (x + kSgrAlignment - 1) / kSgrAlignment * kSgrAlignment;
}

Status StatFile(const std::string& path, uint64_t* size, uint64_t* mtime_ns) {
  std::error_code ec;
  uint64_t sz = std::filesystem::file_size(path, ec);
  if (ec) return Status::IOError("cannot stat " + path + ": " + ec.message());
  auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return Status::IOError("cannot stat " + path + ": " + ec.message());
  *size = sz;
  // file_clock's epoch is implementation-defined, but staleness only ever
  // compares values produced on the same system, where it is consistent.
  *mtime_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          mtime.time_since_epoch())
          .count());
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Writer.
// ---------------------------------------------------------------------------

struct PendingSection {
  uint32_t kind;
  uint32_t elem_bytes;
  uint64_t count;
  const void* data;
};

class SectionWriter {
 public:
  explicit SectionWriter(std::FILE* f) : f_(f) {}

  void Write(const void* data, size_t bytes) {
    if (bytes == 0) return;
    ok_ &= std::fwrite(data, 1, bytes, f_) == bytes;
    pos_ += bytes;
  }

  void PadTo(uint64_t offset) {
    static const char zeros[kSgrAlignment] = {};
    while (ok_ && pos_ < offset) {
      size_t chunk = std::min<uint64_t>(offset - pos_, sizeof(zeros));
      Write(zeros, chunk);
    }
  }

  bool ok() const { return ok_; }

 private:
  std::FILE* f_;
  uint64_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Reader helpers.
// ---------------------------------------------------------------------------

template <typename T>
Status SectionSpan(std::span<const std::byte> bytes, const SgrSection* sec,
                   const char* what, uint64_t expected_count,
                   std::span<const T>* out) {
  if (sec == nullptr) {
    return Status::IOError(std::string(".sgr missing section: ") + what);
  }
  if (sec->elem_bytes != sizeof(T)) {
    return Status::IOError(std::string(".sgr section ") + what +
                           " has wrong element size");
  }
  if (sec->offset % kSgrAlignment != 0) {
    return Status::IOError(std::string(".sgr section ") + what +
                           " is misaligned");
  }
  // Divide rather than multiply: a crafted/corrupt count must not overflow
  // the bounds check into an out-of-range span.
  if (sec->offset > bytes.size() ||
      sec->count > (bytes.size() - sec->offset) / sizeof(T)) {
    return Status::IOError(std::string(".sgr section ") + what +
                           " exceeds the file (truncated?)");
  }
  if (expected_count != kAnyCount && sec->count != expected_count) {
    return Status::IOError(std::string(".sgr section ") + what +
                           " has unexpected length");
  }
  *out = {reinterpret_cast<const T*>(bytes.data() + sec->offset),
          static_cast<size_t>(sec->count)};
  return Status::OK();
}

template <typename T, typename Vec>
Status CopySection(std::span<const std::byte> bytes, const SgrSection* sec,
                   const char* what, uint64_t expected_count, Vec* out) {
  std::span<const T> span;
  SAPHYRA_RETURN_NOT_OK(
      SectionSpan<T>(bytes, sec, what, expected_count, &span));
  out->assign(span.begin(), span.end());
  return Status::OK();
}

Status ParseHeader(std::span<const std::byte> bytes, SgrHeader* hdr) {
  if (bytes.size() < sizeof(SgrHeader)) {
    return Status::IOError(".sgr file shorter than its header (truncated?)");
  }
  std::memcpy(hdr, bytes.data(), sizeof(SgrHeader));
  if (std::memcmp(hdr->magic, kSgrMagic, sizeof(kSgrMagic)) != 0) {
    return Status::IOError("not a .sgr file (bad magic)");
  }
  if (hdr->byte_order != kSgrByteOrderTag) {
    return Status::IOError(
        ".sgr file was written on a foreign-endian machine; re-run "
        "graph_convert on this host");
  }
  if (hdr->version != kSgrVersion) {
    return Status::IOError(".sgr version " + std::to_string(hdr->version) +
                           " unsupported (this build reads version " +
                           std::to_string(kSgrVersion) + ")");
  }
  return Status::OK();
}

}  // namespace

uint64_t GraphContentFingerprint(const Graph& g) {
  Fnv1a64 h;
  h.UpdateValue(static_cast<uint64_t>(g.num_nodes()));
  h.UpdateValue(static_cast<uint64_t>(g.num_arcs()));
  const auto offsets = g.raw_offsets();
  h.Update(offsets.data(), offsets.size() * sizeof(EdgeIndex));
  const auto adj = g.raw_adj();
  h.Update(adj.data(), adj.size() * sizeof(NodeId));
  return h.Digest();
}

Status WriteSgr(const std::string& path, const Graph& g,
                const BiconnectedComponents* bcc, const ComponentLabels* conn,
                const ComponentViews* views, const BlockCutTree* tree,
                const SgrWriteOptions& options) {
  const bool with_decomp =
      bcc != nullptr && conn != nullptr && views != nullptr && tree != nullptr;
  if (with_decomp && (bcc->arc_component.size() != g.num_arcs() ||
                      bcc->is_cutpoint.size() != g.num_nodes() ||
                      conn->component.size() != g.num_nodes() ||
                      views->raw_adj().size() != g.num_arcs())) {
    return Status::InvalidArgument(
        "decomposition does not match the graph being written");
  }

  SgrHeader hdr{};
  std::memcpy(hdr.magic, kSgrMagic, sizeof(kSgrMagic));
  hdr.byte_order = kSgrByteOrderTag;
  hdr.version = kSgrVersion;
  hdr.flags = (with_decomp ? kFlagHasDecomposition : 0) |
              (options.compact_ids ? kFlagCompactIds : 0);
  hdr.num_nodes = g.num_nodes();
  hdr.num_arcs = g.num_arcs();
  hdr.content_fingerprint = GraphContentFingerprint(g);
  if (options.source_size != 0 || options.source_mtime_ns != 0) {
    hdr.source_size = options.source_size;
    hdr.source_mtime_ns = options.source_mtime_ns;
  } else if (!options.source_path.empty()) {
    SAPHYRA_RETURN_NOT_OK(
        StatFile(options.source_path, &hdr.source_size, &hdr.source_mtime_ns));
  }

  SgrMeta meta{};
  meta.max_degree = g.max_degree();
  if (with_decomp) {
    meta.num_bicomponents = bcc->num_components;
    meta.max_component_size = views->max_component_size();
    meta.num_connected_components = conn->num_components();
  }

  // The cut-reach table flattens to (key, reach) pairs, sorted by key so the
  // bytes are deterministic for a given decomposition.
  std::vector<uint64_t> cut_reach_flat;
  if (with_decomp) {
    std::vector<std::pair<uint64_t, uint64_t>> pairs(tree->cut_reach().begin(),
                                                     tree->cut_reach().end());
    std::sort(pairs.begin(), pairs.end());
    cut_reach_flat.reserve(2 * pairs.size());
    for (const auto& [key, reach] : pairs) {
      cut_reach_flat.push_back(key);
      cut_reach_flat.push_back(reach);
    }
  }

  std::vector<PendingSection> pending;
  auto add = [&](uint32_t kind, uint32_t elem_bytes, uint64_t count,
                 const void* data) {
    pending.push_back({kind, elem_bytes, count, data});
  };
  add(kSecMeta, sizeof(SgrMeta), 1, &meta);
  add(kSecGraphOffsets, sizeof(EdgeIndex), g.raw_offsets().size(),
      g.raw_offsets().data());
  add(kSecGraphAdj, sizeof(NodeId), g.raw_adj().size(), g.raw_adj().data());
  if (with_decomp) {
    add(kSecBccArcComponent, 4, bcc->arc_component.size(),
        bcc->arc_component.data());
    add(kSecBccIsCutpoint, 1, bcc->is_cutpoint.size(),
        bcc->is_cutpoint.data());
    add(kSecBccNodeComponent, 4, bcc->node_component.size(),
        bcc->node_component.data());
    add(kSecBccCutpointCount, 4, bcc->cutpoint_comp_count_.size(),
        bcc->cutpoint_comp_count_.data());
    add(kSecBccRevArc, 8, bcc->rev_arc.size(), bcc->rev_arc.data());
    add(kSecConnLabels, 4, conn->component.size(), conn->component.data());
    add(kSecConnSizes, 4, conn->size.size(), conn->size.data());
    add(kSecViewNodeBegin, 8, views->raw_node_begin().size(),
        views->raw_node_begin().data());
    add(kSecViewNodes, 4, views->raw_nodes().size(),
        views->raw_nodes().data());
    add(kSecViewOffsets, 8, views->raw_offsets().size(),
        views->raw_offsets().data());
    add(kSecViewAdj, 4, views->raw_adj().size(), views->raw_adj().data());
    add(kSecTreeConnSizeOfComp, 8, tree->conn_size_of_comp_table().size(),
        tree->conn_size_of_comp_table().data());
    add(kSecTreeCutReach, 8, cut_reach_flat.size(), cut_reach_flat.data());
  }
  hdr.section_count = static_cast<uint32_t>(pending.size());

  // Lay the sections out back to back, each on a kSgrAlignment boundary.
  std::vector<SgrSection> table;
  table.reserve(pending.size());
  uint64_t cursor =
      AlignUp(sizeof(SgrHeader) + pending.size() * sizeof(SgrSection));
  for (const PendingSection& p : pending) {
    table.push_back({p.kind, p.elem_bytes, cursor, p.count, 0});
    cursor = AlignUp(cursor + p.count * p.elem_bytes);
  }

  // Atomic publish: write a sibling temp file, fsync it, then rename over
  // the final path. A reader racing the write (or a crash/ENOSPC mid-way)
  // sees either the previous complete file or none — never a torn `.sgr`.
  // The fixed temp name means concurrent writers of the *same* path race
  // each other, but each still publishes only complete bytes.
  const std::string tmp_path = path + ".tmp";
  std::FILE* f = std::fopen(tmp_path.c_str(), "wb");
  if (f == nullptr) {
    return Status::IOError("cannot open " + tmp_path + " for writing");
  }
  SectionWriter w(f);
  w.Write(&hdr, sizeof(hdr));
  w.Write(table.data(), table.size() * sizeof(SgrSection));
  Status write_st = Status::OK();
  for (size_t i = 0; i < pending.size(); ++i) {
    // Mid-payload fault site: an injected short write/ENOSPC lands after
    // some sections already hit the disk but before the rename publishes.
    write_st = fail::FaultStatus("sgr.write");
    if (!write_st.ok()) break;
    w.PadTo(table[i].offset);
    w.Write(pending[i].data, pending[i].count * pending[i].elem_bytes);
  }
  bool ok = write_st.ok() && w.ok();
  if (ok) ok = std::fflush(f) == 0;
  // rename() only orders metadata; the payload needs its own fsync or a
  // crash right after publish could surface a complete-looking empty file.
  if (ok) ok = ::fsync(fileno(f)) == 0;
  ok = std::fclose(f) == 0 && ok;  // always close, even after a failed write
  if (!ok) {
    std::remove(tmp_path.c_str());
    return write_st.ok() ? Status::IOError("write failure on " + tmp_path)
                         : write_st;
  }
  if (std::rename(tmp_path.c_str(), path.c_str()) != 0) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot publish " + path + " (rename failed)");
  }
  return Status::OK();
}

Status LoadSgr(const std::string& path, GraphCache* out,
               const SgrReadOptions& options) {
  SAPHYRA_RETURN_NOT_OK(fail::FaultStatus("sgr.load"));
  std::shared_ptr<MappedFile> file;
  SAPHYRA_RETURN_NOT_OK(MappedFile::Open(path, &file, options.prefer_mmap));
  const std::span<const std::byte> bytes = file->bytes();
  *out = GraphCache();  // drop whatever a reused cache held

  SgrHeader hdr;
  SAPHYRA_RETURN_NOT_OK(ParseHeader(bytes, &hdr));
  if (hdr.num_nodes > kInvalidNode) {
    return Status::IOError(".sgr node count overflows 32-bit node ids");
  }
  const uint64_t table_bytes =
      static_cast<uint64_t>(hdr.section_count) * sizeof(SgrSection);
  if (sizeof(SgrHeader) + table_bytes > bytes.size()) {
    return Status::IOError(".sgr section table exceeds the file (truncated?)");
  }
  std::vector<SgrSection> sections(hdr.section_count);
  std::memcpy(sections.data(), bytes.data() + sizeof(SgrHeader), table_bytes);
  // First section of each kind wins; unknown kinds are skipped so newer
  // writers can append sections without breaking this reader.
  auto find = [&](uint32_t kind) -> const SgrSection* {
    for (const SgrSection& s : sections) {
      if (s.kind == kind) return &s;
    }
    return nullptr;
  };

  std::span<const SgrMeta> meta_span;
  SAPHYRA_RETURN_NOT_OK(
      SectionSpan<SgrMeta>(bytes, find(kSecMeta), "meta", 1, &meta_span));
  const SgrMeta meta = meta_span[0];
  const NodeId n = static_cast<NodeId>(hdr.num_nodes);
  const uint64_t arcs = hdr.num_arcs;

  std::span<const EdgeIndex> offsets;
  std::span<const NodeId> adj;
  SAPHYRA_RETURN_NOT_OK(SectionSpan<EdgeIndex>(
      bytes, find(kSecGraphOffsets), "graph offsets", hdr.num_nodes + 1,
      &offsets));
  SAPHYRA_RETURN_NOT_OK(
      SectionSpan<NodeId>(bytes, find(kSecGraphAdj), "graph adj", arcs, &adj));
  SAPHYRA_RETURN_NOT_OK(Graph::FromCsr(n, meta.max_degree,
                                       ArrayRef<EdgeIndex>(offsets, file),
                                       ArrayRef<NodeId>(adj, file),
                                       &out->graph));

  out->content_fingerprint = hdr.content_fingerprint;
  out->has_decomposition = (hdr.flags & kFlagHasDecomposition) != 0;
  if (!out->has_decomposition) return Status::OK();

  // Biconnected decomposition: small side tables are materialized (they are
  // O(n) and interleave poorly with zero-copy ownership); the component
  // views below stay inside the mapping.
  BiconnectedComponents& bcc = out->bcc;
  bcc.num_components = meta.num_bicomponents;
  SAPHYRA_RETURN_NOT_OK(CopySection<uint32_t>(bytes,
                                              find(kSecBccArcComponent),
                                              "bcc arc_component", arcs,
                                              &bcc.arc_component));
  // The node-level fields stay inside the mapping, like the views.
  std::span<const uint8_t> is_cutpoint;
  std::span<const uint32_t> node_component;
  std::span<const uint32_t> cutpoint_comp_count;
  SAPHYRA_RETURN_NOT_OK(SectionSpan<uint8_t>(bytes, find(kSecBccIsCutpoint),
                                             "bcc is_cutpoint", n,
                                             &is_cutpoint));
  SAPHYRA_RETURN_NOT_OK(SectionSpan<uint32_t>(bytes,
                                              find(kSecBccNodeComponent),
                                              "bcc node_component", n,
                                              &node_component));
  SAPHYRA_RETURN_NOT_OK(SectionSpan<uint32_t>(
      bytes, find(kSecBccCutpointCount), "bcc cutpoint_comp_count", n,
      &cutpoint_comp_count));
  bcc.is_cutpoint = ArrayRef<uint8_t>(is_cutpoint, file);
  bcc.node_component = ArrayRef<uint32_t>(node_component, file);
  bcc.cutpoint_comp_count_ = ArrayRef<uint32_t>(cutpoint_comp_count, file);
  SAPHYRA_RETURN_NOT_OK(CopySection<EdgeIndex>(
      bytes, find(kSecBccRevArc), "bcc rev_arc", arcs, &bcc.rev_arc));
  SAPHYRA_RETURN_NOT_OK(CopySection<NodeId>(bytes, find(kSecConnLabels),
                                            "conn labels", n,
                                            &out->conn.component));
  SAPHYRA_RETURN_NOT_OK(
      CopySection<NodeId>(bytes, find(kSecConnSizes), "conn sizes",
                          meta.num_connected_components, &out->conn.size));

  std::span<const uint64_t> view_node_begin;
  std::span<const NodeId> view_nodes;
  std::span<const EdgeIndex> view_offsets;
  std::span<const NodeId> view_adj;
  SAPHYRA_RETURN_NOT_OK(SectionSpan<uint64_t>(
      bytes, find(kSecViewNodeBegin), "view node_begin",
      static_cast<uint64_t>(meta.num_bicomponents) + 1, &view_node_begin));
  SAPHYRA_RETURN_NOT_OK(SectionSpan<NodeId>(bytes, find(kSecViewNodes),
                                            "view nodes", kAnyCount,
                                            &view_nodes));
  SAPHYRA_RETURN_NOT_OK(SectionSpan<EdgeIndex>(bytes, find(kSecViewOffsets),
                                               "view offsets",
                                               view_nodes.size() + 1,
                                               &view_offsets));
  SAPHYRA_RETURN_NOT_OK(SectionSpan<NodeId>(bytes, find(kSecViewAdj),
                                            "view adj", arcs, &view_adj));
  SAPHYRA_RETURN_NOT_OK(ComponentViews::FromParts(
      ArrayRef<uint64_t>(view_node_begin, file),
      ArrayRef<NodeId>(view_nodes, file),
      ArrayRef<EdgeIndex>(view_offsets, file),
      ArrayRef<NodeId>(view_adj, file), meta.max_component_size,
      &out->views));

  // component_nodes is the per-component slicing of the view node array:
  // the same mapped bytes, no copy.
  bcc.component_nodes =
      ComponentMembers(ArrayRef<uint64_t>(view_node_begin, file),
                       ArrayRef<NodeId>(view_nodes, file));

  std::vector<uint64_t> conn_size_of_comp;
  SAPHYRA_RETURN_NOT_OK(CopySection<uint64_t>(
      bytes, find(kSecTreeConnSizeOfComp), "tree conn_size_of_comp",
      meta.num_bicomponents, &conn_size_of_comp));
  std::span<const uint64_t> cut_reach_flat;
  SAPHYRA_RETURN_NOT_OK(SectionSpan<uint64_t>(bytes, find(kSecTreeCutReach),
                                              "tree cut_reach", kAnyCount,
                                              &cut_reach_flat));
  if (cut_reach_flat.size() % 2 != 0) {
    return Status::IOError(".sgr cut_reach table has odd length");
  }
  std::vector<std::pair<uint64_t, uint64_t>> cut_reach;
  cut_reach.reserve(cut_reach_flat.size() / 2);
  for (size_t i = 0; i < cut_reach_flat.size(); i += 2) {
    cut_reach.emplace_back(cut_reach_flat[i], cut_reach_flat[i + 1]);
  }
  out->tree = BlockCutTree::FromParts(bcc, out->conn,
                                      std::move(conn_size_of_comp), cut_reach);
  return Status::OK();
}

std::string SgrCachePathFor(const std::string& source_path) {
  return source_path + ".sgr";
}

namespace {

/// Read and validate just the 64-byte header of `path`. False when the
/// file is missing, truncated, or not a readable `.sgr`.
bool ReadHeaderIfValid(const std::string& path, SgrHeader* hdr) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  const size_t got = std::fread(hdr, 1, sizeof(*hdr), f);
  std::fclose(f);
  if (got != sizeof(*hdr)) return false;
  std::span<const std::byte> header_bytes(
      reinterpret_cast<const std::byte*>(hdr), sizeof(*hdr));
  return ParseHeader(header_bytes, hdr).ok();
}

/// True iff the header's recorded provenance matches the current stat of
/// `source_path`. Unknown provenance (0/0) never matches.
bool SourceMatches(const SgrHeader& hdr, const std::string& source_path) {
  if (hdr.source_size == 0 && hdr.source_mtime_ns == 0) return false;
  uint64_t size = 0, mtime_ns = 0;
  if (!StatFile(source_path, &size, &mtime_ns).ok()) return false;
  return size == hdr.source_size && mtime_ns == hdr.source_mtime_ns;
}

}  // namespace

Status CaptureSourceStat(const std::string& source_path,
                         SgrWriteOptions* opts) {
  opts->source_path = source_path;
  return StatFile(source_path, &opts->source_size, &opts->source_mtime_ns);
}

Status SgrIsFresh(const std::string& sgr_path, const std::string& source_path,
                  bool* fresh) {
  SgrHeader hdr;
  *fresh = ReadHeaderIfValid(sgr_path, &hdr) && SourceMatches(hdr, source_path);
  return Status::OK();
}

Status LoadGraphAuto(const std::string& path, const LoadGraphOptions& options,
                     GraphCache* out, bool* loaded_from_cache) {
  if (loaded_from_cache != nullptr) *loaded_from_cache = false;
  std::string format = options.format;
  const bool sgr_extension =
      path.size() >= 4 && path.compare(path.size() - 4, 4, ".sgr") == 0;
  if (format == "auto") format = sgr_extension ? "sgr" : "snap";
  // A `.sgr` path is self-identifying: honor it even when the caller names
  // the text format it was converted from.
  if (sgr_extension) format = "sgr";
  if (format == "sgr") {
    SAPHYRA_RETURN_NOT_OK(LoadSgr(path, out, options.sgr));
    if (loaded_from_cache != nullptr) *loaded_from_cache = true;
    return Status::OK();
  }
  if (format != "snap" && format != "dimacs") {
    return Status::InvalidArgument("unknown graph format: " + format);
  }
  if (options.use_cache) {
    const std::string cache_path = SgrCachePathFor(path);
    SgrHeader hdr;
    // Substitute the cache only when it is fresh AND was converted with
    // the same id scheme this text parse would use — a compact_ids
    // mismatch would silently renumber every node.
    if (ReadHeaderIfValid(cache_path, &hdr) && SourceMatches(hdr, path) &&
        (format != "snap" ||
         ((hdr.flags & kFlagCompactIds) != 0) == options.compact_ids) &&
        LoadSgr(cache_path, out, options.sgr).ok()) {
      if (loaded_from_cache != nullptr) *loaded_from_cache = true;
      return Status::OK();
    }
    // A stale, unreadable, or differently-converted cache falls back to
    // the text parse.
  }
  *out = GraphCache();
  if (format == "dimacs") return LoadDimacsGraph(path, &out->graph);
  return LoadSnapEdgeList(path, &out->graph, options.compact_ids);
}

}  // namespace saphyra
