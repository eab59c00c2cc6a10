#ifndef SAPHYRA_BENCH_E2E_HOST_SPEED_H_
#define SAPHYRA_BENCH_E2E_HOST_SPEED_H_

/// \file
/// Host-speed calibration. The benchmark runs on shared virtual machines
/// whose speed drifts by 15-20% over tens of seconds as other tenants come
/// and go, and every kind of CPU work drifts together (README.md, "Host
/// calibration"). A fixed kernel that belongs to the benchmark, not to the
/// library under test, is timed between passes: Brandes' single-source
/// dependency accumulation over a fixed 4096-node graph, the same memory
/// and arithmetic pattern as the sampler's. Its time over its reference
/// time is the host's slowdown at that moment, which the calibrated
/// metrics divide out. Nothing here calls into the library.

#include <cstdint>
#include <vector>

namespace e2e {

class HostSpeed {
 public:
  /// Builds the kernel's graph (deterministic, a few milliseconds).
  HostSpeed();

  /// Times the kernel — one untimed round to bring its data back into
  /// cache, then five timed ones — and returns the median round time over
  /// kReferenceUs: 1.0 on the reference host at its usual speed, 1.2 on a
  /// host running 20% slower. Takes about two milliseconds.
  double Sample();

  /// Median round time of the kernel on the reference host: the 4-core
  /// 2.1 GHz x86-64 VM of README.md, at its usual speed.
  static constexpr double kReferenceUs = 370.0;

 private:
  /// One source's BFS with shortest-path counts, then the backward
  /// dependency sweep; returns microseconds.
  double Round(uint32_t source);

  uint32_t n_ = 0;
  std::vector<uint32_t> offsets_, neighbours_;
  std::vector<int32_t> dist_;
  std::vector<uint32_t> order_;
  std::vector<double> sigma_, delta_;
  double sink_ = 0.0;  ///< keeps the sweeps from being optimised away
};

}  // namespace e2e

#endif  // SAPHYRA_BENCH_E2E_HOST_SPEED_H_
