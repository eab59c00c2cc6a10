#include "graph/binary_io.h"

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bc/saphyra_bc.h"
#include "bicomp/isp.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "test_util.h"
#include "util/failpoint.h"

namespace saphyra {
namespace {

using testing::MakeGraph;

class BinaryIoTest : public ::testing::TestWithParam<bool> {
 protected:
  /// Per-process unique path: two test processes (e.g. ctest runs over two
  /// build trees) must never share fixture files — one would truncate a
  /// file the other has mmap'ed, and reading a page beyond the new EOF is
  /// a SIGBUS.
  std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/saphyra_sgr_" +
           std::to_string(::getpid()) + "_" + name;
  }

  SgrReadOptions ReadOptions() {
    SgrReadOptions opts;
    opts.prefer_mmap = GetParam();  // exercise both mmap and buffered reads
    return opts;
  }

  /// Write graph + full decomposition, computed via IspIndex.
  void WriteWithDecomposition(const std::string& path, const Graph& g,
                              const SgrWriteOptions& wopts = {}) {
    IspIndex isp(g);
    ASSERT_TRUE(WriteSgr(path, g, &isp.bcc(), &isp.conn(), &isp.views(),
                         &isp.tree(), wopts)
                    .ok());
  }

  void ExpectGraphsEqual(const Graph& a, const Graph& b) {
    ASSERT_EQ(a.num_nodes(), b.num_nodes());
    ASSERT_EQ(a.num_arcs(), b.num_arcs());
    EXPECT_EQ(a.max_degree(), b.max_degree());
    ASSERT_TRUE(std::equal(a.raw_offsets().begin(), a.raw_offsets().end(),
                           b.raw_offsets().begin()));
    ASSERT_TRUE(std::equal(a.raw_adj().begin(), a.raw_adj().end(),
                           b.raw_adj().begin()));
  }

  void ExpectDecompositionsEqual(const GraphCache& cache,
                                 const IspIndex& isp) {
    const BiconnectedComponents& want = isp.bcc();
    EXPECT_EQ(cache.bcc.num_components, want.num_components);
    EXPECT_EQ(cache.bcc.arc_component, want.arc_component);
    EXPECT_EQ(cache.bcc.is_cutpoint, want.is_cutpoint);
    EXPECT_EQ(cache.bcc.node_component, want.node_component);
    EXPECT_EQ(cache.bcc.component_nodes, want.component_nodes);
    EXPECT_EQ(cache.conn.component, isp.conn().component);
    EXPECT_EQ(cache.conn.size, isp.conn().size);

    const ComponentViews& v = isp.views();
    ASSERT_EQ(cache.views.num_components(), v.num_components());
    EXPECT_EQ(cache.views.max_component_size(), v.max_component_size());
    for (uint32_t c = 0; c < v.num_components(); ++c) {
      ASSERT_EQ(cache.views.size(c), v.size(c));
      ASSERT_EQ(cache.views.num_arcs(c), v.num_arcs(c));
      ASSERT_TRUE(std::equal(v.nodes(c).begin(), v.nodes(c).end(),
                             cache.views.nodes(c).begin()));
      for (NodeId local = 0; local < v.size(c); ++local) {
        ASSERT_TRUE(std::equal(v.Neighbors(c, local).begin(),
                               v.Neighbors(c, local).end(),
                               cache.views.Neighbors(c, local).begin()));
      }
      for (NodeId g_node : v.nodes(c)) {
        EXPECT_EQ(cache.tree.OutReach(c, g_node), isp.tree().OutReach(c, g_node));
        EXPECT_EQ(cache.tree.HangSize(c, g_node), isp.tree().HangSize(c, g_node));
      }
      EXPECT_EQ(cache.tree.conn_size_of_comp(c), isp.tree().conn_size_of_comp(c));
    }
  }
};

TEST_P(BinaryIoTest, GraphOnlyRoundTrip) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}, {1, 3}});
  std::string path = TempPath("graph_only.sgr");
  ASSERT_TRUE(
      WriteSgr(path, g, nullptr, nullptr, nullptr, nullptr).ok());
  GraphCache cache;
  ASSERT_TRUE(LoadSgr(path, &cache, ReadOptions()).ok());
  EXPECT_FALSE(cache.has_decomposition);
  ExpectGraphsEqual(g, cache.graph);
  // Both read modes hand out views: of the mmap'ed pages, or of the one
  // owned buffer the buffered fallback reads the file into.
  EXPECT_TRUE(cache.graph.is_view());
}

TEST_P(BinaryIoTest, DecompositionRoundTripSmall) {
  // The paper's Fig. 2 shape: two blocks joined at a cutpoint plus a
  // pendant path — cutpoints, bridges and a non-trivial block-cut tree.
  Graph g = MakeGraph(8, {{0, 1},
                          {1, 2},
                          {2, 0},
                          {2, 3},
                          {3, 4},
                          {4, 5},
                          {5, 3},
                          {5, 6},
                          {6, 7}});
  std::string path = TempPath("decomp_small.sgr");
  WriteWithDecomposition(path, g);
  GraphCache cache;
  ASSERT_TRUE(LoadSgr(path, &cache, ReadOptions()).ok());
  ASSERT_TRUE(cache.has_decomposition);
  ExpectGraphsEqual(g, cache.graph);
  IspIndex fresh(g);
  ExpectDecompositionsEqual(cache, fresh);
}

TEST_P(BinaryIoTest, DecompositionRoundTripRandomGraphs) {
  const struct {
    const char* name;
    Graph graph;
  } corpora[] = {
      {"ba", BarabasiAlbert(300, 3, 7)},
      {"er", ErdosRenyi(200, 350, 11)},  // disconnected w.h.p.
      {"tree", RandomTree(150, 5)},      // every edge its own component
      {"road", RoadGrid(20, 15, 0.8, 3).graph},
  };
  for (const auto& corpus : corpora) {
    SCOPED_TRACE(corpus.name);
    std::string path = TempPath(std::string("rt_") + corpus.name + ".sgr");
    WriteWithDecomposition(path, corpus.graph);
    GraphCache cache;
    ASSERT_TRUE(LoadSgr(path, &cache, ReadOptions()).ok());
    ASSERT_TRUE(cache.has_decomposition);
    ExpectGraphsEqual(corpus.graph, cache.graph);
    IspIndex fresh(corpus.graph);
    ExpectDecompositionsEqual(cache, fresh);
  }
}

TEST_P(BinaryIoTest, IspIndexFromCacheMatchesFreshBuild) {
  Graph g = BarabasiAlbert(400, 3, 21);
  std::string path = TempPath("isp_adopt.sgr");
  WriteWithDecomposition(path, g);
  GraphCache cache;
  ASSERT_TRUE(LoadSgr(path, &cache, ReadOptions()).ok());
  Graph loaded = std::move(cache.graph);
  IspIndex cached(loaded, std::move(cache));
  IspIndex fresh(g);
  EXPECT_DOUBLE_EQ(cached.gamma(), fresh.gamma());
  EXPECT_DOUBLE_EQ(cached.total_weight(), fresh.total_weight());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_DOUBLE_EQ(cached.bca(v), fresh.bca(v)) << "node " << v;
  }
  // End to end: identical decompositions + identical seeds must produce
  // bitwise-identical rankings.
  std::vector<NodeId> targets{1, 17, 42, 99, 256, 399};
  SaphyraBcOptions opts;
  opts.epsilon = 0.02;
  opts.seed = 5;
  SaphyraBcResult a = RunSaphyraBc(cached, targets, opts);
  SaphyraBcResult b = RunSaphyraBc(fresh, targets, opts);
  EXPECT_EQ(a.samples_used, b.samples_used);
  EXPECT_EQ(a.bc, b.bc);
}

TEST_P(BinaryIoTest, MoveRebindsTree) {
  Graph g = MakeGraph(4, {{0, 1}, {1, 2}, {2, 0}, {2, 3}});
  std::string path = TempPath("move.sgr");
  WriteWithDecomposition(path, g);
  GraphCache first;
  ASSERT_TRUE(LoadSgr(path, &first, ReadOptions()).ok());
  GraphCache second = std::move(first);
  GraphCache third;
  third = std::move(second);
  // OutReach consults the tree's cutpoint flags; after the moves they must
  // still be the decomposition's.
  EXPECT_EQ(third.tree.OutReach(third.bcc.arc_component[0], 2),
            IspIndex(g).tree().OutReach(third.bcc.arc_component[0], 2));
}

TEST_P(BinaryIoTest, RejectsTruncatedFile) {
  Graph g = BarabasiAlbert(100, 3, 9);
  std::string path = TempPath("trunc.sgr");
  WriteWithDecomposition(path, g);
  const auto full_size = std::filesystem::file_size(path);
  for (uintmax_t keep : {uintmax_t{0}, uintmax_t{17}, uintmax_t{63},
                         full_size / 2, full_size - 1}) {
    std::filesystem::resize_file(path, keep);
    GraphCache cache;
    Status st = LoadSgr(path, &cache, ReadOptions());
    EXPECT_FALSE(st.ok()) << "kept " << keep << " of " << full_size;
    EXPECT_EQ(st.code(), StatusCode::kIOError);
  }
}

TEST_P(BinaryIoTest, RejectsCorruptMagicAndForeignEndianness) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  std::string path = TempPath("magic.sgr");
  ASSERT_TRUE(WriteSgr(path, g, nullptr, nullptr, nullptr, nullptr).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(0);
    f.write("NOTSAGRF", 8);
  }
  GraphCache cache;
  EXPECT_FALSE(LoadSgr(path, &cache, ReadOptions()).ok());

  // Restore the magic but flip the byte-order tag (offset 8).
  ASSERT_TRUE(WriteSgr(path, g, nullptr, nullptr, nullptr, nullptr).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(8);
    const uint32_t swapped = 0x04030201;
    f.write(reinterpret_cast<const char*>(&swapped), sizeof(swapped));
  }
  Status st = LoadSgr(path, &cache, ReadOptions());
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("endian"), std::string::npos);
}

TEST_P(BinaryIoTest, RejectsWrongVersion) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  std::string path = TempPath("version.sgr");
  ASSERT_TRUE(WriteSgr(path, g, nullptr, nullptr, nullptr, nullptr).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(12);  // version field: magic (8) + byte_order (4)
    const uint32_t future = kSgrVersion + 1;
    f.write(reinterpret_cast<const char*>(&future), sizeof(future));
  }
  GraphCache cache;
  Status st = LoadSgr(path, &cache, ReadOptions());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("version"), std::string::npos);
}

TEST_P(BinaryIoTest, RejectsOverflowingSectionCount) {
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  std::string path = TempPath("overflow.sgr");
  ASSERT_TRUE(WriteSgr(path, g, nullptr, nullptr, nullptr, nullptr).ok());
  {
    // Section table starts at 64; each entry is {u32 kind, u32 elem_bytes,
    // u64 offset, u64 count, u64 reserved}. Patch section 0's count to a
    // value whose byte length wraps uint64 — the bounds check must not
    // overflow into accepting it.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(64 + 16);
    const uint64_t huge = uint64_t{1} << 61;
    f.write(reinterpret_cast<const char*>(&huge), sizeof(huge));
  }
  GraphCache cache;
  Status st = LoadSgr(path, &cache, ReadOptions());
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
}

TEST_P(BinaryIoTest, CompactIdsMismatchFallsBackToText) {
  // Sparse raw ids so compact and raw parses disagree.
  std::string source = TempPath("sparse_ids.txt");
  {
    std::ofstream out(source);
    out << "100 200\n200 300\n";
  }
  // Cache converted with raw ids; the default (compact) text path must
  // refuse it and re-parse.
  Graph raw;
  ASSERT_TRUE(LoadSnapEdgeList(source, &raw, /*compact_ids=*/false).ok());
  SgrWriteOptions wopts;
  ASSERT_TRUE(CaptureSourceStat(source, &wopts).ok());
  wopts.compact_ids = false;
  ASSERT_TRUE(WriteSgr(SgrCachePathFor(source), raw, nullptr, nullptr,
                       nullptr, nullptr, wopts)
                  .ok());

  GraphCache cache;
  bool from_cache = true;
  LoadGraphOptions lopts;
  lopts.sgr = ReadOptions();
  ASSERT_TRUE(LoadGraphAuto(source, lopts, &cache, &from_cache).ok());
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(cache.graph.num_nodes(), 3u);  // compacted, not 301 raw ids

  // With matching id options the same cache is substituted.
  lopts.compact_ids = false;
  ASSERT_TRUE(LoadGraphAuto(source, lopts, &cache, &from_cache).ok());
  EXPECT_TRUE(from_cache);
  EXPECT_EQ(cache.graph.num_nodes(), 301u);
}

TEST_P(BinaryIoTest, RejectsNotAFile) {
  GraphCache cache;
  EXPECT_FALSE(
      LoadSgr(TempPath("does_not_exist.sgr"), &cache, ReadOptions()).ok());
}

TEST_P(BinaryIoTest, StaleCacheDetection) {
  std::string source = TempPath("edges.txt");
  {
    std::ofstream out(source);
    out << "0 1\n1 2\n2 0\n";
  }
  Graph g;
  ASSERT_TRUE(LoadSnapEdgeList(source, &g).ok());
  SgrWriteOptions wopts;
  wopts.source_path = source;
  std::string cache_path = SgrCachePathFor(source);
  ASSERT_TRUE(
      WriteSgr(cache_path, g, nullptr, nullptr, nullptr, nullptr, wopts)
          .ok());

  bool fresh = false;
  ASSERT_TRUE(SgrIsFresh(cache_path, source, &fresh).ok());
  EXPECT_TRUE(fresh);

  // Appending an edge changes size+mtime: the cache must test stale and
  // LoadGraphAuto must fall back to the text parse.
  {
    std::ofstream out(source, std::ios::app);
    out << "2 3\n";
  }
  ASSERT_TRUE(SgrIsFresh(cache_path, source, &fresh).ok());
  EXPECT_FALSE(fresh);

  GraphCache cache;
  bool from_cache = true;
  LoadGraphOptions lopts;
  lopts.sgr = ReadOptions();
  ASSERT_TRUE(LoadGraphAuto(source, lopts, &cache, &from_cache).ok());
  EXPECT_FALSE(from_cache);
  EXPECT_EQ(cache.graph.num_nodes(), 4u);  // saw the appended edge

  // A cache with no recorded provenance is never substituted.
  ASSERT_TRUE(
      WriteSgr(cache_path, cache.graph, nullptr, nullptr, nullptr, nullptr)
          .ok());
  ASSERT_TRUE(SgrIsFresh(cache_path, source, &fresh).ok());
  EXPECT_FALSE(fresh);
}

TEST_P(BinaryIoTest, LoadGraphAutoUsesFreshCache) {
  std::string source = TempPath("auto_edges.txt");
  {
    std::ofstream out(source);
    out << "0 1\n1 2\n2 0\n2 3\n";
  }
  Graph g;
  ASSERT_TRUE(LoadSnapEdgeList(source, &g).ok());
  IspIndex isp(g);
  SgrWriteOptions wopts;
  wopts.source_path = source;
  ASSERT_TRUE(WriteSgr(SgrCachePathFor(source), g, &isp.bcc(), &isp.conn(),
                       &isp.views(), &isp.tree(), wopts)
                  .ok());

  GraphCache cache;
  bool from_cache = false;
  LoadGraphOptions lopts;
  lopts.sgr = ReadOptions();
  ASSERT_TRUE(LoadGraphAuto(source, lopts, &cache, &from_cache).ok());
  EXPECT_TRUE(from_cache);
  EXPECT_TRUE(cache.has_decomposition);
  ExpectGraphsEqual(g, cache.graph);

  // Explicitly disabling the cache forces the text path.
  lopts.use_cache = false;
  ASSERT_TRUE(LoadGraphAuto(source, lopts, &cache, &from_cache).ok());
  EXPECT_FALSE(from_cache);
  EXPECT_FALSE(cache.has_decomposition);
}

// ---------------------------------------------------------------------------
// Fuzz-style robustness corpus: deterministic byte-flip and truncation
// sweeps over a decomposition-carrying cache. The reader's trust model
// (DESIGN.md, ".sgr on-disk format") promises that *any* byte-level
// corruption yields a clean Status return — possibly ok for payload bytes
// the structural validation does not cover, but never a crash or UB. The
// ASan+UBSan CI job turns every violation into a hard failure.
// ---------------------------------------------------------------------------

TEST_P(BinaryIoTest, ByteFlipSweepYieldsStatusNeverCrash) {
  Graph g = BarabasiAlbert(30, 2, 9);
  std::string path = TempPath("fuzz_flip.sgr");
  WriteWithDecomposition(path, g);
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), 64u);
  // Every byte of the header and section table, then a coprime stride
  // through the payloads (coverage of every section without a
  // per-byte sweep of the whole file).
  std::vector<size_t> offsets;
  const size_t dense_prefix = std::min<size_t>(pristine.size(), 640);
  for (size_t i = 0; i < dense_prefix; ++i) offsets.push_back(i);
  for (size_t i = dense_prefix; i < pristine.size(); i += 7) {
    offsets.push_back(i);
  }
  for (size_t off : offsets) {
    std::string mutated = pristine;
    mutated[off] = static_cast<char>(mutated[off] ^ 0xFF);
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(mutated.data(), static_cast<std::streamsize>(mutated.size()));
    }
    GraphCache cache;
    Status st = LoadSgr(path, &cache, ReadOptions());
    if (st.ok()) {
      // Flips the structural validation cannot see (payload content,
      // reserved fields) load fine; the loaded object must still be
      // shallowly usable.
      EXPECT_LE(cache.graph.num_nodes(), 2u * g.num_nodes())
          << "flipped byte " << off;
    }
  }
}

TEST_P(BinaryIoTest, TruncationSweepYieldsStatusNeverCrash) {
  Graph g = BarabasiAlbert(30, 2, 13);
  std::string path = TempPath("fuzz_trunc.sgr");
  WriteWithDecomposition(path, g);
  std::string pristine;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in);
    pristine.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  for (size_t keep = 0; keep < pristine.size(); keep += 17) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(pristine.data(), static_cast<std::streamsize>(keep));
    }
    GraphCache cache;
    Status st = LoadSgr(path, &cache, ReadOptions());
    // A strict prefix can never carry the full section payloads.
    EXPECT_FALSE(st.ok()) << "kept " << keep << " of " << pristine.size();
  }
}

TEST_P(BinaryIoTest, AtomicWriteLeavesNoTempFile) {
  Graph g = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  std::string path = TempPath("atomic.sgr");
  ASSERT_TRUE(WriteSgr(path, g, nullptr, nullptr, nullptr, nullptr).ok());
  // The write staged through <path>.tmp and published with rename; a
  // successful publish leaves only the final file behind.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  GraphCache cache;
  ASSERT_TRUE(LoadSgr(path, &cache, ReadOptions()).ok());
  ExpectGraphsEqual(g, cache.graph);
  std::remove(path.c_str());
}

TEST_P(BinaryIoTest, InjectedWriteFailureLeavesTargetUntouched) {
  if (!fail::kBuiltWithFailpoints) {
    GTEST_SKIP() << "build has no failpoint registry";
  }
  fail::ClearAll();
  Graph original = MakeGraph(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  std::string path = TempPath("enospc.sgr");
  ASSERT_TRUE(
      WriteSgr(path, original, nullptr, nullptr, nullptr, nullptr).ok());

  // An overwrite that dies mid-payload (simulated ENOSPC) must fail with
  // a structured error and leave the published file bitwise intact — the
  // regression the temp-file + rename protocol exists to prevent.
  Graph replacement = MakeGraph(4, {{0, 1}, {1, 2}, {2, 3}});
  ASSERT_TRUE(fail::Inject("sgr.write", "1*io-error(disk full)"));
  Status st =
      WriteSgr(path, replacement, nullptr, nullptr, nullptr, nullptr);
  fail::ClearAll();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("disk full"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));

  GraphCache cache;
  ASSERT_TRUE(LoadSgr(path, &cache, ReadOptions()).ok());
  ExpectGraphsEqual(original, cache.graph);  // the old file, not a torso
  std::remove(path.c_str());
}

TEST_P(BinaryIoTest, InjectedLoadFailureSurfaces) {
  if (!fail::kBuiltWithFailpoints) {
    GTEST_SKIP() << "build has no failpoint registry";
  }
  fail::ClearAll();
  Graph g = MakeGraph(3, {{0, 1}, {1, 2}});
  std::string path = TempPath("load_fault.sgr");
  ASSERT_TRUE(WriteSgr(path, g, nullptr, nullptr, nullptr, nullptr).ok());
  ASSERT_TRUE(fail::Inject("sgr.load", "1*io-error(read failed)"));
  GraphCache cache;
  Status st = LoadSgr(path, &cache, ReadOptions());
  fail::ClearAll();
  EXPECT_EQ(st.code(), StatusCode::kIOError);
  EXPECT_NE(st.message().find("read failed"), std::string::npos);
  // The fault disarmed; the same file loads fine afterwards.
  ASSERT_TRUE(LoadSgr(path, &cache, ReadOptions()).ok());
  std::remove(path.c_str());
}

TEST(ComponentViewFromPartsTest, RejectsNonMonotonicNodeBegin) {
  // A bit-flipped interior node_begin entry must be refused — it would
  // bound nodes(c) spans with end < begin.
  ComponentViews views;
  Status st = ComponentViews::FromParts(
      ArrayRef<uint64_t>(std::vector<uint64_t>{0, 5, 2, 3}),
      ArrayRef<NodeId>(std::vector<NodeId>(3, 0)),
      ArrayRef<EdgeIndex>(std::vector<EdgeIndex>(4, 0)), ArrayRef<NodeId>(),
      0, &views);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

INSTANTIATE_TEST_SUITE_P(MmapAndBuffered, BinaryIoTest,
                         ::testing::Values(true, false),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Mmap" : "Buffered";
                         });

}  // namespace
}  // namespace saphyra
