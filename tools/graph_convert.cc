// graph_convert — one-time preprocessing into the `.sgr` binary cache.
//
// Parses a text corpus (SNAP edge list or DIMACS .gr), runs the SaPHyRa
// preprocessing once (biconnected decomposition, connectivity, block-cut
// tree, per-component CSR views), and writes everything as a versioned,
// mmap-loadable `.sgr` file. Tools and benches then auto-substitute the
// cache for the text parse (see graph/binary_io.h; format spec in
// DESIGN.md, "The .sgr on-disk format").
//
// Usage:
//   graph_convert --input edges.txt [--format snap|dimacs]
//                 [--output edges.txt.sgr] [--graph-only]
//                 [--no-compact-ids] [--verify]
//
//   --graph-only      write only the CSR graph, skip the decomposition
//   --no-compact-ids  SNAP: keep raw node ids instead of renumbering
//   --verify          re-load the cache and check it against the text
//                     pipeline (round-trip structural equality)

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>

#include "bicomp/isp.h"
#include "graph/binary_io.h"
#include "graph/io.h"
#include "util/timer.h"

using namespace saphyra;

namespace {

struct Args {
  std::string input;
  std::string format = "snap";
  std::string output;
  bool graph_only = false;
  bool compact_ids = true;
  bool verify = false;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --input FILE [--format snap|dimacs]\n"
               "          [--output FILE.sgr] [--graph-only]\n"
               "          [--no-compact-ids] [--verify]\n",
               argv0);
}

bool Parse(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* val = nullptr;
    if (key == "--graph-only") {
      args->graph_only = true;
    } else if (key == "--no-compact-ids") {
      args->compact_ids = false;
    } else if (key == "--verify") {
      args->verify = true;
    } else if (key == "--input" && (val = next())) {
      args->input = val;
    } else if (key == "--format" && (val = next())) {
      args->format = val;
    } else if (key == "--output" && (val = next())) {
      args->output = val;
    } else {
      std::fprintf(stderr, "unknown or incomplete option: %s\n", key.c_str());
      return false;
    }
  }
  if (args->input.empty()) {
    std::fprintf(stderr, "--input is required\n");
    return false;
  }
  if (args->format != "snap" && args->format != "dimacs") {
    std::fprintf(stderr, "--format must be snap or dimacs\n");
    return false;
  }
  if (args->output.empty()) args->output = SgrCachePathFor(args->input);
  return true;
}

bool SpansEqual(std::span<const NodeId> a, std::span<const NodeId> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(),
                                             a.size() * sizeof(NodeId)) == 0;
}

bool SpansEqual64(std::span<const uint64_t> a, std::span<const uint64_t> b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(),
                                             a.size() * sizeof(uint64_t)) == 0;
}

/// Round-trip check: the cache must reproduce the text pipeline exactly.
/// `isp` is null for --graph-only conversions.
bool Verify(const std::string& sgr_path, const Graph& g, const IspIndex* isp) {
  GraphCache cache;
  Status st = LoadSgr(sgr_path, &cache);
  if (!st.ok()) {
    std::fprintf(stderr, "verify: reload failed: %s\n", st.ToString().c_str());
    return false;
  }
  bool ok = cache.graph.num_nodes() == g.num_nodes() &&
            SpansEqual64(cache.graph.raw_offsets(), g.raw_offsets()) &&
            SpansEqual(cache.graph.raw_adj(), g.raw_adj());
  if (!ok) {
    std::fprintf(stderr, "verify: graph CSR mismatch\n");
    return false;
  }
  if (cache.has_decomposition && isp != nullptr) {
    const ComponentViews& v = isp->views();
    ok = cache.bcc.num_components == isp->bcc().num_components &&
         cache.bcc.arc_component == isp->bcc().arc_component &&
         cache.bcc.is_cutpoint == isp->bcc().is_cutpoint &&
         SpansEqual64(cache.views.raw_node_begin(), v.raw_node_begin()) &&
         SpansEqual(cache.views.raw_nodes(), v.raw_nodes()) &&
         SpansEqual64(cache.views.raw_offsets(), v.raw_offsets()) &&
         SpansEqual(cache.views.raw_adj(), v.raw_adj());
    if (!ok) {
      std::fprintf(stderr, "verify: decomposition mismatch\n");
      return false;
    }
    for (uint32_t c = 0; ok && c < cache.bcc.num_components; ++c) {
      for (NodeId v_node : cache.bcc.component_nodes[c]) {
        ok &=
            cache.tree.OutReach(c, v_node) == isp->tree().OutReach(c, v_node);
      }
    }
    if (!ok) {
      std::fprintf(stderr, "verify: block-cut-tree out-reach mismatch\n");
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) {
    Usage(argv[0]);
    return 2;
  }

  // Capture the source stat *before* parsing: a source edited while the
  // (potentially long) conversion runs must leave a cache that tests stale.
  SgrWriteOptions wopts;
  wopts.compact_ids = args.compact_ids;
  Status st = CaptureSourceStat(args.input, &wopts);
  if (!st.ok()) {
    std::fprintf(stderr, "cannot stat %s: %s\n", args.input.c_str(),
                 st.ToString().c_str());
    return 1;
  }

  Timer timer;
  Graph g;
  st = args.format == "dimacs"
           ? LoadDimacsGraph(args.input, &g)
           : LoadSnapEdgeList(args.input, &g, args.compact_ids);
  if (!st.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", args.input.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "parsed %s in %s\n", g.DebugString().c_str(),
               FormatDuration(timer.ElapsedSeconds()).c_str());
  std::unique_ptr<IspIndex> isp;
  if (args.graph_only) {
    timer.Restart();
    st = WriteSgr(args.output, g, nullptr, nullptr, nullptr, nullptr, wopts);
  } else {
    timer.Restart();
    isp = std::make_unique<IspIndex>(g);
    std::fprintf(stderr,
                 "decomposition: %u bi-components in %s\n",
                 isp->num_components(),
                 FormatDuration(timer.ElapsedSeconds()).c_str());
    timer.Restart();
    st = WriteSgr(args.output, g, &isp->bcc(), &isp->conn(), &isp->views(),
                  &isp->tree(), wopts);
  }
  if (!st.ok()) {
    std::fprintf(stderr, "failed to write %s: %s\n", args.output.c_str(),
                 st.ToString().c_str());
    return 1;
  }
  std::error_code ec;
  const auto bytes = std::filesystem::file_size(args.output, ec);
  std::fprintf(stderr, "wrote %s (%llu bytes) in %s\n", args.output.c_str(),
               static_cast<unsigned long long>(ec ? 0 : bytes),
               FormatDuration(timer.ElapsedSeconds()).c_str());

  if (args.verify) {
    if (!Verify(args.output, g, isp.get())) return 1;
    std::fprintf(stderr, "verify: cache matches the text pipeline\n");
  }
  return 0;
}
