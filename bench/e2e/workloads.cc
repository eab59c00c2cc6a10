#include "workloads.h"

#include <algorithm>
#include <fstream>
#include <unordered_set>
#include <utility>

#include "graph/generators.h"
#include "graph/io.h"
#include "service/json_util.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/rng.h"

namespace e2e {

using saphyra::Graph;
using saphyra::GraphBuilder;
using saphyra::JsonNumber;
using saphyra::NodeId;
using saphyra::Rng;
using saphyra::Status;

namespace {

// Calibrated on a 4-core 2.1 GHz x86-64 VM; see README.md for the run
// times and sample counts these give at the default run length.
WorkloadSpec ServeMixed() {
  WorkloadSpec w;
  w.name = "serve-mixed";
  w.graphs = {{"social", false, 100000}, {"road", true, 80}};
  w.pooled = true;
  w.clients = 4;
  w.max_concurrent = 2;
  w.pass_lines = 300;
  w.stream_lines = 9000;
  w.warmup_lines = 200;
  w.catalogue = 200;
  w.zipf_block = 3000;
  return w;
}

WorkloadSpec RankSocial() {
  WorkloadSpec w;
  w.name = "rank-social";
  w.graphs = {{"social", false, 30000}};
  w.pass_lines = 20;
  w.stream_lines = 4000;
  w.warmup_lines = 40;
  return w;
}

WorkloadSpec RankRoadSharded() {
  WorkloadSpec w;
  w.name = "rank-road-sharded";
  w.graphs = {{"road", true, 100}};
  w.pooled = true;
  w.sharded = true;
  w.pass_lines = 10;
  w.stream_lines = 2000;
  w.warmup_lines = 12;
  return w;
}

WorkloadSpec ServeMutating() {
  WorkloadSpec w;
  w.name = "serve-mutating";
  w.graphs = {{"social", false, 30000}};
  w.mutating = true;
  w.pass_lines = 40;  // 10 cycles of [update, q_a, q_b, q_a]
  w.stream_lines = 12000;
  w.warmup_lines = 40;
  w.catalogue = 400;
  return w;
}

size_t Scaled(size_t count, size_t floor) {
  return std::max(floor, count / 20);
}

uint64_t MixSeed(uint64_t seed, const std::string& a, const std::string& b) {
  saphyra::Fnv1a64 h;
  h.UpdateValue(seed);
  h.Update(a);
  h.Update(std::string_view("/"));
  h.Update(b);
  return h.Digest();
}

Graph SocialGraph(NodeId n, uint64_t seed) {
  const NodeId core = n - n / 10 * 3;
  const Graph base = saphyra::BarabasiAlbert(core, 3, seed);
  const auto edges = base.UndirectedEdges();
  Rng rng(seed ^ 0x1eafULL);
  GraphBuilder b;
  b.Reserve(edges.size() + (n - core));
  for (const auto& [u, v] : edges) b.AddEdge(u, v);
  // A leaf attaches to a uniform endpoint of a uniform core edge, i.e.
  // degree-proportionally: hubs collect followers.
  for (NodeId leaf = core; leaf < n; ++leaf) {
    const auto& e = edges[rng.UniformInt(edges.size())];
    b.AddEdge(leaf, rng.UniformInt(2) == 0 ? e.first : e.second);
  }
  Graph g;
  Status st = b.Build(n, &g);
  SAPHYRA_CHECK_MSG(st.ok(), st.ToString().c_str());
  return g;
}

std::vector<NodeId> DistinctTargets(NodeId n, size_t k, Rng* rng) {
  std::vector<NodeId> out;
  std::unordered_set<NodeId> seen;
  k = std::min<size_t>(k, n);
  while (out.size() < k) {
    const NodeId v = static_cast<NodeId>(rng->UniformInt(n));
    if (seen.insert(v).second) out.push_back(v);
  }
  return out;
}

/// Statistical shape of one query; targets and seed are drawn per line.
struct QueryShape {
  std::string graph;  ///< "" on single-graph workloads
  const char* estimator;
  double epsilon;
  uint64_t topk;
  size_t targets;  ///< 0 = whole graph (bc-full)
};

std::string QueryLine(const std::string& id, const QueryShape& q,
                      NodeId graph_nodes, Rng* rng) {
  std::string line = "{\"id\":\"" + id + "\"";
  if (!q.graph.empty()) line += ",\"graph\":\"" + q.graph + "\"";
  line += ",\"estimator\":\"" + std::string(q.estimator) + "\"";
  line += ",\"epsilon\":" + JsonNumber(q.epsilon);
  line += ",\"seed\":" + std::to_string(rng->UniformInt(1ULL << 40) + 1);
  if (q.topk != 0) line += ",\"topk\":" + std::to_string(q.topk);
  if (q.targets != 0) {
    line += ",\"targets\":[";
    const std::vector<NodeId> t = DistinctTargets(graph_nodes, q.targets, rng);
    for (size_t i = 0; i < t.size(); ++i) {
      if (i != 0) line += ',';
      line += std::to_string(t[i]);
    }
    line += ']';
  }
  return line + "}";
}

std::string UpdateLine(const std::string& id, bool insert, NodeId u,
                       NodeId v) {
  return "{\"id\":\"" + id + "\",\"op\":\"update\",\"action\":\"" +
         (insert ? "insert" : "delete") + "\",\"edge\":[" +
         std::to_string(u) + "," + std::to_string(v) + "]}";
}

/// Class slots of the serve-mixed catalogue: each class appears in
/// proportion to its weight, spread evenly over every run of 100 ranks so
/// Zipf popularity falls on every class alike, whatever the seed.
std::vector<size_t> InterleavedClasses(const std::vector<size_t>& weights) {
  size_t total = 0;
  for (size_t w : weights) total += w;
  std::vector<size_t> placed(weights.size(), 0), out;
  for (size_t slot = 0; slot < total; ++slot) {
    size_t best = 0;
    double best_lag = -1e300;
    for (size_t c = 0; c < weights.size(); ++c) {
      const double lag = static_cast<double>(weights[c]) * (slot + 1) / total -
                         static_cast<double>(placed[c]);
      if (lag > best_lag) {
        best_lag = lag;
        best = c;
      }
    }
    ++placed[best];
    out.push_back(best);
  }
  return out;
}

/// serve-mixed catalogue entry `i`: the class comes from the interleaved
/// pattern (bc on social 50%, its top-10 10%, kpath 15%, closeness on road
/// 10%, bc on road 13%, bc-full on road 2%); within a class the variants
/// (|A|, ε) cycle.
QueryShape MixedShape(size_t i) {
  static const std::vector<size_t> kWeights = {50, 10, 15, 10, 13, 2};
  static const std::vector<size_t> kPattern = InterleavedClasses(kWeights);
  const size_t period = kPattern.size();
  const size_t cls = kPattern[i % period];
  size_t v = i / period * kWeights[cls];  // earlier entries of this class
  for (size_t s = 0; s < i % period; ++s) v += kPattern[s] == cls;
  switch (cls) {
    case 0: {
      static const size_t kSizes[] = {16, 64, 256};
      return {"social", "bc", v % 2 == 0 ? 0.05 : 0.1, 0, kSizes[v / 2 % 3]};
    }
    case 1:
      return {"social", "bc", 0.05, 10, 64};
    case 2:
      return {"social", "kpath", v % 2 == 0 ? 0.05 : 0.02, 0, 64};
    case 3:
      return {"road", "closeness", v % 2 == 0 ? 0.05 : 0.1, 0, 64};
    case 4:
      return {"road", "bc", 0.1, 0, v % 2 == 0 ? 16u : 64u};
    default:
      return {"road", "bc-full", 0.1, 0, 0};
  }
}

/// `lines` lines in blocks of `block` (the last one may be cut short):
/// every block is the same Zipf(1.0) multiset over the catalogue, in its own
/// order.
std::vector<std::string> ZipfLines(const std::vector<QueryShape>& shapes,
                                   const std::vector<NodeId>& nodes_of,
                                   size_t block, size_t lines,
                                   const std::string& prefix, Rng* rng) {
  // Materialize the catalogue once: a Zipf repeat must be the same query.
  std::vector<std::string> catalogue;
  for (size_t i = 0; i < shapes.size(); ++i) {
    catalogue.push_back(QueryLine("", shapes[i], nodes_of[i], rng));
  }
  std::vector<double> cdf(catalogue.size());
  double acc = 0.0;
  for (size_t r = 0; r < cdf.size(); ++r) {
    acc += 1.0 / static_cast<double>(r + 1);
    cdf[r] = acc;
  }
  // Systematic draws — one uniform offset, then evenly spaced quantiles —
  // give every rank its Zipf share to within one line, so the mix of hits,
  // misses and query classes is the same for every seed; the seed picks
  // the offset, the queries' contents and the order they arrive in. Each
  // block gets a new order, so a run's memo hit ratio averages over orders.
  const double offset = rng->UniformDouble();
  std::vector<size_t> ranks;
  for (size_t i = 0; i < block; ++i) {
    const double u = (static_cast<double>(i) + offset) /
                     static_cast<double>(block) * acc;
    ranks.push_back(std::min<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin(),
        catalogue.size() - 1));
  }
  std::vector<std::string> out;
  while (out.size() < lines) {
    for (size_t i = ranks.size(); i > 1; --i) {
      std::swap(ranks[i - 1], ranks[rng->UniformInt(i)]);
    }
    for (size_t i = 0; i < block && out.size() < lines; ++i) {
      // Catalogue lines start {"id":"" — splice this line's id in.
      std::string line = catalogue[ranks[i]];
      line.insert(7, prefix + std::to_string(out.size()));
      out.push_back(std::move(line));
    }
  }
  return out;
}

/// rank-social and rank-road-sharded: unique bc queries in blocks of one
/// pass, each block holding every (|A|, ε) class the same number of times
/// plus top-k queries, shuffled within the block.
std::vector<std::string> RankLines(const std::string& graph,
                                   const std::vector<size_t>& sizes,
                                   const std::vector<double>& epsilons,
                                   size_t per_class, size_t topk_per_block,
                                   NodeId n, size_t lines,
                                   const std::string& prefix, Rng* rng) {
  std::vector<std::string> out;
  for (size_t block = 0; out.size() < lines; ++block) {
    std::vector<QueryShape> shapes;
    for (size_t s : sizes) {
      for (double e : epsilons) {
        for (size_t r = 0; r < per_class; ++r) {
          shapes.push_back({graph, "bc", e, 0, s});
        }
      }
    }
    for (size_t t = 0; t < topk_per_block; ++t) {
      shapes.push_back({graph, "bc", epsilons[0], 10,
                        sizes[(block * topk_per_block + t) % sizes.size()]});
    }
    for (size_t i = shapes.size(); i > 1; --i) {
      std::swap(shapes[i - 1], shapes[rng->UniformInt(i)]);
    }
    for (const QueryShape& q : shapes) {
      if (out.size() == lines) break;
      out.push_back(
          QueryLine(prefix + std::to_string(out.size()), q, n, rng));
    }
  }
  return out;
}

/// serve-mutating: cycles of [update, q_a, q_b, q_a]. Updates alternate
/// between inserting a uniform non-edge and deleting a uniform current
/// edge, tracked against the evolving edge set so every update is valid.
std::vector<std::string> MutatingLines(const Graph& g, size_t catalogue_size,
                                       size_t lines, Rng* rng) {
  const NodeId n = g.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> edges = g.UndirectedEdges();
  std::unordered_set<uint64_t> present;
  auto key = [](NodeId u, NodeId v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  };
  for (const auto& [u, v] : edges) present.insert(key(u, v));

  // One ε: a cycle's three queries are then a memo hit, q_b and q_a paying
  // the epoch's index adoption, so the median request lies inside the q_b
  // mode. With ε alternating 0.05/0.1 it fell where the cheap q_a met the
  // dear q_b, and moved 10% between seeds.
  std::vector<std::string> catalogue;
  for (size_t i = 0; i < catalogue_size; ++i) {
    const QueryShape q{"", "bc", 0.05, 0, i % 2 == 0 ? 16u : 64u};
    catalogue.push_back(QueryLine("", q, n, rng));
  }
  auto query = [&](size_t c, size_t line) {
    std::string s = catalogue[c];
    s.insert(7, "q" + std::to_string(line));
    return s;
  };

  std::vector<std::string> out;
  for (size_t cycle = 0; out.size() < lines; ++cycle) {
    const std::string id = "u" + std::to_string(out.size());
    if (cycle % 2 == 0) {
      NodeId u, v;
      do {
        u = static_cast<NodeId>(rng->UniformInt(n));
        v = static_cast<NodeId>(rng->UniformInt(n));
      } while (u == v || present.count(key(u, v)) != 0);
      present.insert(key(u, v));
      edges.emplace_back(u, v);
      out.push_back(UpdateLine(id, true, u, v));
    } else {
      const size_t at = rng->UniformInt(edges.size());
      const auto [u, v] = edges[at];
      edges[at] = edges.back();
      edges.pop_back();
      present.erase(key(u, v));
      out.push_back(UpdateLine(id, false, u, v));
    }
    const size_t a = rng->UniformInt(catalogue.size());
    size_t b = rng->UniformInt(catalogue.size() - 1);
    if (b >= a) ++b;
    out.push_back(query(a, out.size()));
    out.push_back(query(b, out.size()));
    out.push_back(query(a, out.size()));
  }
  out.resize(lines);
  return out;
}

Status WriteLines(const std::string& path,
                  const std::vector<std::string>& lines) {
  std::ofstream f(path);
  for (size_t i = 0; i < lines.size() && f; ++i) f << lines[i] << '\n';
  if (!f) return Status::IOError("cannot write " + path);
  return Status::OK();
}

}  // namespace

Status FindWorkload(const std::string& name, bool smoke, WorkloadSpec* out) {
  if (name == "serve-mixed") {
    *out = ServeMixed();
  } else if (name == "rank-social") {
    *out = RankSocial();
  } else if (name == "rank-road-sharded") {
    *out = RankRoadSharded();
  } else if (name == "serve-mutating") {
    *out = ServeMutating();
  } else {
    return Status::InvalidArgument("unknown workload: " + name);
  }
  if (smoke) {
    for (GraphSpec& g : out->graphs) g.size = g.road ? g.size / 2 : g.size / 5;
    const size_t unit = out->mutating ? 4 : 1;  // whole update cycles
    out->pass_lines = Scaled(out->pass_lines, 4 * unit) / unit * unit;
    out->stream_lines = Scaled(out->stream_lines, 8 * unit) / unit * unit;
    out->warmup_lines = Scaled(out->warmup_lines, unit) / unit * unit;
    out->catalogue = Scaled(out->catalogue, 4);
    out->zipf_block = Scaled(out->zipf_block, 4);
  }
  return Status::OK();
}

std::string GraphTextPath(const std::string& dir, const GraphSpec& g) {
  return dir + "/" + g.name + ".txt";
}

std::string GraphSgrPath(const std::string& dir, const GraphSpec& g) {
  return GraphTextPath(dir, g) + ".sgr";
}

Status GenerateInputs(const WorkloadSpec& spec, uint64_t seed,
                      const std::string& dir) {
  std::vector<Graph> graphs;
  for (const GraphSpec& g : spec.graphs) {
    // Graphs do not depend on the seed: they are the workload's datasets,
    // and their Brandes ground truth (seconds on the 30k-node graphs) is
    // then computed once per checkout instead of on every run.
    const uint64_t gseed = MixSeed(0, spec.name, g.name);
    graphs.push_back(g.road ? saphyra::RoadGrid(g.size, g.size, 0.75, gseed)
                                  .graph
                            : SocialGraph(g.size, gseed));
    SAPHYRA_RETURN_NOT_OK(
        saphyra::SaveSnapEdgeList(graphs.back(), GraphTextPath(dir, g)));
  }
  auto nodes_of = [&](const std::string& graph) {
    for (size_t i = 0; i < spec.graphs.size(); ++i) {
      if (spec.graphs[i].name == graph) return graphs[i].num_nodes();
    }
    return graphs[0].num_nodes();
  };

  Rng rng(MixSeed(seed, spec.name, "requests"));
  Rng warm_rng(MixSeed(seed, spec.name, "warmup"));
  std::vector<std::string> warmup, stream;
  if (spec.name == "serve-mixed") {
    std::vector<QueryShape> shapes;
    std::vector<NodeId> nodes;
    for (size_t i = 0; i < spec.catalogue; ++i) {
      shapes.push_back(MixedShape(i));
      nodes.push_back(nodes_of(shapes.back().graph));
    }
    stream = ZipfLines(shapes, nodes, spec.zipf_block, spec.stream_lines, "m",
                       &rng);
    warmup = ZipfLines(shapes, nodes, spec.warmup_lines, spec.warmup_lines,
                       "w", &warm_rng);
  } else if (spec.name == "rank-social") {
    const NodeId n = graphs[0].num_nodes();
    stream = RankLines("", {16, 128, 1024}, {0.05, 0.03}, 3, 2, n,
                       spec.stream_lines, "r", &rng);
    warmup = RankLines("", {16, 128, 1024}, {0.05, 0.03}, 3, 2, n,
                       spec.warmup_lines, "w", &warm_rng);
  } else if (spec.name == "rank-road-sharded") {
    const NodeId n = graphs[0].num_nodes();
    stream = RankLines("road", {16, 64, 256}, {0.1}, 3, 1, n,
                       spec.stream_lines, "r", &rng);
    warmup = RankLines("road", {16, 64, 256}, {0.1}, 3, 1, n,
                       spec.warmup_lines, "w", &warm_rng);
  } else {
    // One valid update sequence: the warm-up cycles come first and the
    // timed stream continues from the graph they leave behind.
    std::vector<std::string> all = MutatingLines(
        graphs[0], spec.catalogue, spec.warmup_lines + spec.stream_lines,
        &rng);
    warmup.assign(all.begin(), all.begin() + spec.warmup_lines);
    stream.assign(all.begin() + spec.warmup_lines, all.end());
  }
  SAPHYRA_RETURN_NOT_OK(WriteLines(dir + "/warmup.jsonl", warmup));
  return WriteLines(dir + "/stream.jsonl", stream);
}

}  // namespace e2e
