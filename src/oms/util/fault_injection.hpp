/// \file fault_injection.hpp
/// \brief Deterministic fault injection for the streaming stack.
///
/// A FaultPlan is a seeded, reproducible schedule of named failure sites:
/// "the 3rd raw read fails transiently", "the 2nd pipeline batch's consumer
/// throws", "the process dies right after the 2nd checkpoint". The hooks are
/// compiled into the hot paths permanently (line_reader, pipeline_core,
/// BoundedQueue, the checkpoint writer) but cost exactly one relaxed atomic
/// pointer load and a predicted-not-taken branch while no plan is armed — the
/// gated BM_* benches run with the hooks in and must not move.
///
/// Arming is process-global and NOT thread-safe against concurrently running
/// pipelines: arm before the streaming run starts, disarm after it returned
/// (all pipeline threads joined). The chaos suite and the CLI (via the
/// OMS_FAULTS / OMS_FAULT_SEED environment variables) are the only intended
/// users; production runs never arm a plan.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace oms {

/// Named injection sites. Each site is hit-counted independently; a plan
/// decides per site at which hit numbers it fires.
enum class FaultSite : std::uint8_t {
  kReadTransient = 0, ///< line_reader: one raw read fails like EINTR (retryable)
  kReadError,         ///< line_reader: one raw read fails hard (not retryable)
  kReadShort,         ///< line_reader: one raw read returns a single byte
  kReadCorrupt,       ///< line_reader: one read chunk gets a byte corrupted
  kQueueDelay,        ///< BoundedQueue: one pop is delayed (slow-consumer jitter)
  kFillDelay,         ///< pipeline producer: one fill is delayed (slow-disk jitter)
  kConsumeThrow,      ///< pipeline consumer: throws before consuming one batch
  kThreadSpawn,       ///< pipeline: spawning the producer thread fails
  kCheckpointDie,     ///< checkpoint driver: crash right after a snapshot landed
  kCheckpointTorn,    ///< checkpoint driver: crash halfway through writing a snapshot
  kSvcAccept,         ///< service: one accepted connection dies before serving
  kSvcRead,           ///< service: one connection read fails hard (torn client)
  kSvcWrite,          ///< service: one reply write fails hard (client hung up)
  kSvcSlow,           ///< service: one frame read stalls (slow-loris jitter)
  kCount
};

/// Spelled names accepted by FaultPlan::parse (index == enum value).
[[nodiscard]] const char* fault_site_name(FaultSite site) noexcept;

/// A reproducible per-site firing schedule plus the per-site hit counters.
/// Copyable while unarmed; the armed instance lives in a private static slot.
class FaultPlan {
public:
  /// Parse a comma-separated spec: `site@n` fires on the n-th hit of `site`
  /// (1-based, once); `site@n+p` fires on the n-th hit and every p-th hit
  /// after it. Example: "read.transient@2,consume.throw@1+3".
  /// Throws oms::IoError on unknown sites or malformed numbers.
  [[nodiscard]] static FaultPlan parse(const std::string& spec);

  /// Derive a small pseudo-random schedule (1-3 sites, early trigger counts)
  /// deterministically from \p seed — the unit the chaos sweeps iterate over.
  /// Draws only from the streaming sites (everything before kCheckpointDie,
  /// so neither checkpoint crash site); the service sweep uses
  /// seeded_service instead.
  [[nodiscard]] static FaultPlan seeded(std::uint64_t seed);

  /// Like seeded(), but over the transport sites of the service runtime
  /// (svc.accept / svc.read / svc.write / svc.slow) — the unit the service
  /// chaos sweep iterates over.
  [[nodiscard]] static FaultPlan seeded_service(std::uint64_t seed);

  /// Install \p plan as the process-global armed plan (replacing any previous
  /// one) / remove it. See the header comment for the threading contract.
  static void arm(const FaultPlan& plan);
  static void disarm();

  /// Arm from the environment: OMS_FAULTS (spec, wins) or OMS_FAULT_SEED
  /// (decimal seed). Returns true if a plan was armed. Throws oms::IoError on
  /// a malformed OMS_FAULTS value.
  static bool arm_from_env();

  /// Count one hit of \p site and report whether the schedule fires on it.
  /// Thread-safe (sites are hit concurrently by pipeline threads).
  [[nodiscard]] bool should_fire(FaultSite site) noexcept;

  /// Human-readable one-line summary ("read.error@3, queue.delay@1+2"); used
  /// by the chaos suite to report which schedule broke.
  [[nodiscard]] std::string describe() const;

  FaultPlan() = default;
  FaultPlan(const FaultPlan& other);            // copies schedule, resets counters
  FaultPlan& operator=(const FaultPlan& other); // copies schedule, resets counters

private:
  struct Entry {
    bool active = false;
    std::uint64_t trigger = 0; ///< 1-based hit number of the first firing
    std::uint64_t period = 0;  ///< 0 = fire once; else fire every period hits after
  };

  Entry entries_[static_cast<std::size_t>(FaultSite::kCount)];
  std::atomic<std::uint64_t> hits_[static_cast<std::size_t>(FaultSite::kCount)] = {};
};

namespace detail {
/// The armed plan; null (the overwhelmingly common case) means every hook is
/// a no-op after one relaxed load.
extern std::atomic<FaultPlan*> g_armed_fault_plan;
} // namespace detail

/// The hook compiled into the hot paths: free when disarmed.
[[nodiscard]] inline bool fault_fires(FaultSite site) noexcept {
  FaultPlan* plan = detail::g_armed_fault_plan.load(std::memory_order_acquire);
  if (plan == nullptr) [[likely]] {
    return false;
  }
  return plan->should_fire(site);
}

/// Delay-site helper: sleep a few milliseconds if the site fires. Defined out
/// of line so the hot path does not pull in <thread>.
void fault_sleep(FaultSite site) noexcept;

} // namespace oms
