#include "harness.h"

#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "service/json_util.h"
#include "util/hash.h"

namespace e2e {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

uint64_t Fnv(std::string_view s) {
  saphyra::Fnv1a64 h;
  h.Update(s);
  return h.Digest();
}

std::string MaskLine(const std::string& line) {
  std::string out = line;
  // Generated ids and served modes never contain escaped quotes, so the
  // value ends at the next '"'.
  auto blank_string = [&out](const char* key, bool at_start) {
    const size_t k = out.find(key);
    if (k == std::string::npos || (at_start && k != 0)) return;
    const size_t begin = k + std::strlen(key);
    const size_t end = out.find('"', begin);
    if (end != std::string::npos) out.erase(begin, end - begin);
  };
  blank_string("{\"id\":\"", true);
  blank_string(",\"served\":\"", false);
  const char* seconds = ",\"seconds\":";
  const size_t k = out.find(seconds);
  if (k != std::string::npos) {
    const size_t begin = k + std::strlen(seconds);
    const size_t end = out.find_first_of(",}", begin);
    if (end != std::string::npos) out.replace(begin, end - begin, "0");
  }
  return out;
}

double ProcStatusMiB(const char* field) {
  std::ifstream f("/proc/self/status");
  std::string line;
  const std::string key = std::string(field) + ":";
  while (std::getline(f, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::strtod(line.c_str() + key.size(), nullptr) / 1024.0;
    }
  }
  return 0.0;
}

HostRecord CaptureHost(const std::string& commit, const std::string& dirty) {
  HostRecord h;
  h.nproc = sysconf(_SC_NPROCESSORS_ONLN);
  h.hardware_concurrency = std::thread::hardware_concurrency();
#ifdef E2E_COMPILER
  h.compiler = E2E_COMPILER;
#endif
#ifdef E2E_BUILD_TYPE
  h.build_type = E2E_BUILD_TYPE;
#endif
  h.commit = commit;
  h.dirty = dirty;
  struct utsname u;
  if (uname(&u) == 0) h.kernel = std::string(u.sysname) + " " + u.release;
  double load[1] = {0.0};
  if (getloadavg(load, 1) == 1) h.loadavg_1m = load[0];
  return h;
}

void JsonWriter::Key(const std::string& key) {
  if (!body_.empty()) body_ += ',';
  body_ += saphyra::JsonQuote(key) + ":";
}

void JsonWriter::String(const std::string& key, const std::string& value) {
  Key(key);
  body_ += saphyra::JsonQuote(value);
}

void JsonWriter::Number(const std::string& key, double value) {
  Key(key);
  // JSON has no Infinity/NaN; a metric that produced one is reported 0.
  body_ += saphyra::JsonNumber(std::isfinite(value) ? value : 0.0);
}

void JsonWriter::Int(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
}

void JsonWriter::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
}

void JsonWriter::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
}

std::string HostJson(const HostRecord& host) {
  JsonWriter w;
  w.Int("nproc", static_cast<uint64_t>(host.nproc));
  w.Int("hardware_concurrency", host.hardware_concurrency);
  w.String("compiler", host.compiler);
  w.String("build_type", host.build_type);
  w.String("commit", host.commit);
  w.String("dirty", host.dirty);
  w.String("kernel", host.kernel);
  w.Number("loadavg_1m", host.loadavg_1m);
  return w.str();
}

std::vector<double> SpanDurationsUs(const std::vector<SpanLog>& logs,
                                    const std::string& name) {
  std::vector<double> out;
  for (const SpanLog& log : logs) {
    for (const Span& s : log.spans()) {
      if (name == s.name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
      }
    }
  }
  return out;
}

namespace {

/// Per span: the length of the union of its children's intervals.
std::vector<int64_t> ChildCoverage(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<int64_t> covered(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    int64_t cur_begin = 0, cur_end = 0;
    bool open = false;
    for (const auto& [b, e] : iv) {
      if (open && b <= cur_end) {
        cur_end = std::max(cur_end, e);
        continue;
      }
      if (open) covered[i] += cur_end - cur_begin;
      cur_begin = b;
      cur_end = e;
      open = true;
    }
    if (open) covered[i] += cur_end - cur_begin;
  }
  return covered;
}

}  // namespace

double RootCoverage(const std::vector<SpanLog>& logs) {
  double total = 0.0, covered = 0.0;
  for (const SpanLog& log : logs) {
    const std::vector<int64_t> cov = ChildCoverage(log.spans());
    for (size_t i = 0; i < log.spans().size(); ++i) {
      const Span& s = log.spans()[i];
      if (s.parent >= 0) continue;
      total += static_cast<double>(s.end_ns - s.start_ns);
      covered += static_cast<double>(cov[i]);
    }
  }
  return total > 0.0 ? covered / total : 0.0;
}

saphyra::Status WriteSpans(
    const std::string& path,
    const std::vector<std::pair<std::string, const std::vector<SpanLog>*>>&
        phases,
    int64_t origin_ns) {
  std::ofstream f(path);
  for (const auto& [phase, logs] : phases) {
    for (size_t l = 0; l < logs->size(); ++l) {
      const std::vector<Span>& spans = (*logs)[l].spans();
      const std::vector<int64_t> cov = ChildCoverage(spans);
      for (size_t i = 0; i < spans.size(); ++i) {
        const Span& s = spans[i];
        JsonWriter w;
        w.String("phase", phase);
        w.Int("client", l);
        w.Int("span", i);
        w.Int("request", s.request);
        w.String("name", s.name);
        w.Raw("parent", std::to_string(s.parent));
        w.Raw("start_ns", std::to_string(s.start_ns - origin_ns));
        w.Raw("end_ns", std::to_string(s.end_ns - origin_ns));
        w.Raw("self_ns", std::to_string(s.end_ns - s.start_ns - cov[i]));
        f << w.str() << '\n';
      }
    }
  }
  if (!f) return saphyra::Status::IOError("cannot write " + path);
  return saphyra::Status::OK();
}

}  // namespace e2e
