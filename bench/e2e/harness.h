#ifndef SAPHYRA_BENCH_E2E_HARNESS_H_
#define SAPHYRA_BENCH_E2E_HARNESS_H_

/// \file
/// Measurement plumbing of the end-to-end benchmark: steady-clock spans
/// recorded from the benchmark's own code around calls into each layer,
/// percentile statistics, the oracle's line masking, the host record and a
/// small ordered JSON writer. Nothing here calls into the library under
/// test except its JSON number/quote helpers.

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Nearest-rank percentile `p` ∈ (0, 100] of an unsorted sample; 0 when
/// the sample is empty.
double Percentile(std::vector<double> values, double p);
double Mean(const std::vector<double>& values);

/// FNV-1a over `s`.
uint64_t Fnv(std::string_view s);

/// A served NDJSON line with the fields that legitimately differ between
/// a scheduled serve and a plain QuerySession::Run blanked: the client's
/// "id", the "served" mode and the wall-clock "seconds". Every other byte
/// — estimates, nodes, samples, degradation — must match exactly.
std::string MaskLine(const std::string& line);

/// A field of /proc/self/status ("VmRSS", "VmHWM") in MiB; 0 if absent.
double ProcStatusMiB(const char* field);

/// Where and on what a result was measured.
struct HostRecord {
  long nproc = 0;
  unsigned hardware_concurrency = 0;
  std::string compiler;
  std::string build_type;
  std::string commit;
  std::string dirty;
  std::string kernel;
  double loadavg_1m = 0.0;
};

HostRecord CaptureHost(const std::string& commit, const std::string& dirty);

/// Ordered JSON object writer (keys in insertion order).
class JsonWriter {
 public:
  void String(const std::string& key, const std::string& value);
  void Number(const std::string& key, double value);
  void Int(const std::string& key, uint64_t value);
  void Bool(const std::string& key, bool value);
  void Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

std::string HostJson(const HostRecord& host);

/// One named, unit-carrying measurement.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One timed interval of a request: `parent` indexes the enclosing span
/// in the same log (-1 for a request's root).
struct Span {
  uint32_t request = 0;
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;
};

/// Spans of one client thread, kept in memory until the run ends.
class SpanLog {
 public:
  /// Reserve up front so no reallocation lands inside a timed span.
  void Reserve(size_t n) { spans_.reserve(n); }
  int32_t Begin(uint32_t request, const char* name, int32_t parent) {
    spans_.push_back({request, name, NowNs(), 0, parent});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[index].end_ns = NowNs(); }
  /// Duration of a closed span in ms.
  double Ms(int32_t index) const {
    return static_cast<double>(spans_[index].end_ns -
                               spans_[index].start_ns) / 1e6;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Durations in µs of every span called `name`.
std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                    const std::string& name);

/// Share of root-span time covered by the roots' child spans.
double RootCoverage(const std::vector<SpanLog>& logs);

/// Write every span as one JSON line with its self time (duration minus
/// the union of its children's intervals); times are relative to
/// `origin_ns`.
saphyra::Status WriteSpans(const std::string& path,
                           const std::vector<std::pair<std::string,
                                                       const std::vector<SpanLog>*>>&
                               phases,
                           int64_t origin_ns);

}  // namespace e2e

#endif  // SAPHYRA_BENCH_E2E_HARNESS_H_
