#include "oms/util/fault_injection.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "oms/util/io_error.hpp"
#include "oms/util/random.hpp"

namespace oms {

namespace {

constexpr std::size_t kNumSites = static_cast<std::size_t>(FaultSite::kCount);

constexpr const char* kSiteNames[kNumSites] = {
    "read.transient", "read.error",   "read.short",
    "read.corrupt",   "queue.delay",  "fill.delay",
    "consume.throw",  "thread.spawn", "checkpoint.die",
    "checkpoint.torn", "svc.accept",  "svc.read",
    "svc.write",      "svc.slow",
};

/// Backing storage for the armed plan. arm() copies into this slot so the
/// caller's FaultPlan may die while the pointer stays valid; the pointer is
/// only ever this slot or null, so there is no lifetime hand-off to manage.
FaultPlan& armed_slot() {
  static FaultPlan slot;
  return slot;
}

[[nodiscard]] std::uint64_t parse_u64(const std::string& spec, std::size_t begin,
                                      std::size_t end) {
  if (begin >= end) {
    throw IoError("fault spec: missing number in '" + spec + "'");
  }
  std::uint64_t value = 0;
  for (std::size_t i = begin; i < end; ++i) {
    const char c = spec[i];
    if (c < '0' || c > '9') {
      throw IoError("fault spec: bad number in '" + spec + "'");
    }
    value = value * 10 + static_cast<std::uint64_t>(c - '0');
  }
  return value;
}

} // namespace

const char* fault_site_name(FaultSite site) noexcept {
  return kSiteNames[static_cast<std::size_t>(site)];
}

FaultPlan::FaultPlan(const FaultPlan& other) { *this = other; }

FaultPlan& FaultPlan::operator=(const FaultPlan& other) {
  for (std::size_t i = 0; i < kNumSites; ++i) {
    entries_[i] = other.entries_[i];
    hits_[i].store(0, std::memory_order_relaxed);
  }
  return *this;
}

FaultPlan FaultPlan::parse(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) {
      comma = spec.size();
    }
    const std::size_t at = spec.find('@', pos);
    if (at == std::string::npos || at >= comma) {
      throw IoError("fault spec: expected site@trigger in '" + spec + "'");
    }
    const std::string name = spec.substr(pos, at - pos);
    std::size_t site_idx = kNumSites;
    for (std::size_t i = 0; i < kNumSites; ++i) {
      if (name == kSiteNames[i]) {
        site_idx = i;
        break;
      }
    }
    if (site_idx == kNumSites) {
      throw IoError("fault spec: unknown site '" + name + "'");
    }
    const std::size_t plus = spec.find('+', at + 1);
    Entry& entry = plan.entries_[site_idx];
    entry.active = true;
    if (plus != std::string::npos && plus < comma) {
      entry.trigger = parse_u64(spec, at + 1, plus);
      entry.period = parse_u64(spec, plus + 1, comma);
      if (entry.period == 0) {
        throw IoError("fault spec: period must be >= 1 in '" + spec + "'");
      }
    } else {
      entry.trigger = parse_u64(spec, at + 1, comma);
      entry.period = 0;
    }
    if (entry.trigger == 0) {
      throw IoError("fault spec: trigger is 1-based in '" + spec + "'");
    }
    pos = comma + 1;
  }
  return plan;
}

FaultPlan FaultPlan::seeded(std::uint64_t seed) {
  FaultPlan plan;
  Rng rng(hash_combine(seed, 0x6661756c74ULL)); // "fault"
  const std::size_t num_faults = 1 + rng.next_below(3);
  for (std::size_t f = 0; f < num_faults; ++f) {
    // kCheckpointDie and kCheckpointTorn are excluded: a seeded sweep has no
    // resume harness, so a deliberate checkpoint crash would just look like a
    // failure. The checkpoint tests schedule them explicitly instead. The
    // svc.* sites live past them and are drawn by seeded_service only.
    const auto site = static_cast<std::size_t>(
        rng.next_below(static_cast<std::uint64_t>(FaultSite::kCheckpointDie)));
    Entry& entry = plan.entries_[site];
    entry.active = true;
    entry.trigger = 1 + rng.next_below(40);
    // One site in three keeps firing periodically, to stress repeated faults.
    entry.period = rng.next_below(3) == 0 ? 1 + rng.next_below(8) : 0;
  }
  return plan;
}

FaultPlan FaultPlan::seeded_service(std::uint64_t seed) {
  FaultPlan plan;
  Rng rng(hash_combine(seed, 0x737663ULL)); // "svc"
  constexpr auto kFirst = static_cast<std::size_t>(FaultSite::kSvcAccept);
  constexpr auto kLast = static_cast<std::size_t>(FaultSite::kSvcSlow);
  const std::size_t num_faults = 1 + rng.next_below(3);
  for (std::size_t f = 0; f < num_faults; ++f) {
    const std::size_t site = kFirst + static_cast<std::size_t>(
                                          rng.next_below(kLast - kFirst + 1));
    Entry& entry = plan.entries_[site];
    entry.active = true;
    // Service sessions are short; keep triggers early so the schedule
    // actually fires within a sweep's request budget.
    entry.trigger = 1 + rng.next_below(12);
    entry.period = rng.next_below(3) == 0 ? 1 + rng.next_below(4) : 0;
  }
  return plan;
}

void FaultPlan::arm(const FaultPlan& plan) {
  detail::g_armed_fault_plan.store(nullptr, std::memory_order_release);
  armed_slot() = plan; // also resets the hit counters
  detail::g_armed_fault_plan.store(&armed_slot(), std::memory_order_release);
}

void FaultPlan::disarm() {
  detail::g_armed_fault_plan.store(nullptr, std::memory_order_release);
}

bool FaultPlan::arm_from_env() {
  if (const char* spec = std::getenv("OMS_FAULTS"); spec != nullptr && *spec != '\0') {
    arm(parse(spec));
    return true;
  }
  if (const char* env = std::getenv("OMS_FAULT_SEED"); env != nullptr && *env != '\0') {
    const std::string seed(env);
    arm(seeded(parse_u64(seed, 0, seed.size())));
    return true;
  }
  return false;
}

bool FaultPlan::should_fire(FaultSite site) noexcept {
  const auto idx = static_cast<std::size_t>(site);
  const Entry& entry = entries_[idx];
  if (!entry.active) {
    return false;
  }
  const std::uint64_t hit = hits_[idx].fetch_add(1, std::memory_order_relaxed) + 1;
  if (hit == entry.trigger) {
    return true;
  }
  return entry.period != 0 && hit > entry.trigger &&
         (hit - entry.trigger) % entry.period == 0;
}

std::string FaultPlan::describe() const {
  std::string out;
  for (std::size_t i = 0; i < kNumSites; ++i) {
    const Entry& entry = entries_[i];
    if (!entry.active) {
      continue;
    }
    if (!out.empty()) {
      out += ", ";
    }
    out += kSiteNames[i];
    out += '@';
    out += std::to_string(entry.trigger);
    if (entry.period != 0) {
      out += '+';
      out += std::to_string(entry.period);
    }
  }
  return out.empty() ? "(no faults)" : out;
}

namespace detail {
std::atomic<FaultPlan*> g_armed_fault_plan{nullptr};
} // namespace detail

void fault_sleep(FaultSite site) noexcept {
  if (fault_fires(site)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
}

} // namespace oms
