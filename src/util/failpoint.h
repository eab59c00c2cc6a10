#ifndef SAPHYRA_UTIL_FAILPOINT_H_
#define SAPHYRA_UTIL_FAILPOINT_H_

/// \file
/// Compile-time-gated fault injection (the tikv/rocksdb failpoint
/// pattern). Production builds compile every site down to nothing; builds
/// configured with `-DSAPHYRA_FAILPOINTS=ON` carry a small registry that
/// tests and CI can use to deterministically force estimator throws, slow
/// waves, and I/O failures at named sites.
///
/// Sites are string literals evaluated inline where robustness matters:
///   - "sampler.wave"     before every sampling wave (may throw/sleep)
///   - "session.index"    inside the lazy IspIndex build (may throw)
///   - "scheduler.admit"  at BatchScheduler admission (may return Status)
///   - "sgr.load"         at the head of LoadSgr (may return Status)
///   - "sgr.write"        mid-payload in WriteSgr (may return Status)
///   - "net.connect"      in net::Connect (may return Status)
///   - "net.send"         in net::SendFrame (may return Status)
///   - "net.recv"         in net::RecvFrame (may return Status)
///   - "worker.wave"      in the shard worker's wave handler; a throw
///                        simulates a mid-wave crash (no reply, the
///                        connection drops)
///   - "shard.coordinator_stripe"  once before the coordinator draws
///                        its own share of a sharded wave (may sleep or
///                        return Status)
///
/// Activation, in priority order:
///   1. Programmatic: `fail::Inject("sampler.wave", "1*throw")` from a
///      test (plus Clear / ClearAll between cases).
///   2. Environment: SAPHYRA_FAILPOINTS="site=action[;site=action...]"
///      parsed once, lazily — how CI injects faults into a serve smoke.
///
/// Action grammar: `[N*]kind[(arg)]` — fire at most N times, then off.
///   off          disable the site
///   throw(msg)   throw fail::InjectedFault(msg)         [MaybeFault]
///   sleep(ms)    sleep, then continue normally          [both]
///   error(msg)   return Status::Internal(msg)           [FaultStatus]
///   io-error(msg) return Status::IOError(msg)           [FaultStatus]
/// A throw/error reaching a FaultStatus/MaybeFault site that cannot carry
/// it degrades to the nearest expressible fault (error <-> throw).
///
/// Threading: the registry is mutex-guarded; sites may be evaluated from
/// any thread. Hit counters count evaluations even for unconfigured
/// sites, so tests can assert a code path was actually reached.

#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/status.h"

namespace saphyra {
namespace fail {

/// True when this build carries the failpoint registry; tests gate on it.
#if defined(SAPHYRA_FAILPOINTS)
inline constexpr bool kBuiltWithFailpoints = true;
#else
inline constexpr bool kBuiltWithFailpoints = false;
#endif

/// The exception injected by `throw` actions. Derives from
/// std::runtime_error so the scheduler's generic catch converts it into a
/// structured INTERNAL error like any other estimator failure.
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(const std::string& what)
      : std::runtime_error("injected fault: " + what) {}
};

#if defined(SAPHYRA_FAILPOINTS)

/// Configure `site` with an action spec (grammar above). Returns false on
/// a malformed spec (the site is left unchanged).
bool Inject(const std::string& site, const std::string& action);
/// Remove one site's configuration / every configuration.
void Clear(const std::string& site);
void ClearAll();
/// Evaluations of `site` so far (configured or not).
uint64_t HitCount(const std::string& site);

/// Evaluate a throw/sleep-capable site. Counts a hit; may sleep; throws
/// InjectedFault when an armed `throw` (or `error`) action fires.
void MaybeFault(const char* site);

/// Evaluate a Status-returning site. Counts a hit; may sleep; returns the
/// injected Status when an armed `error`/`io-error` (or `throw`) fires.
Status FaultStatus(const char* site);

#else  // !SAPHYRA_FAILPOINTS — every site is a no-op the optimizer erases.

inline bool Inject(const std::string&, const std::string&) { return false; }
inline void Clear(const std::string&) {}
inline void ClearAll() {}
inline uint64_t HitCount(const std::string&) { return 0; }
inline void MaybeFault(const char*) {}
inline Status FaultStatus(const char*) { return Status::OK(); }

#endif  // SAPHYRA_FAILPOINTS

}  // namespace fail
}  // namespace saphyra

#endif  // SAPHYRA_UTIL_FAILPOINT_H_
