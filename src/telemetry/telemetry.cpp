#include "telemetry/telemetry.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/error.hpp"

namespace rqsim::telemetry {
namespace {

struct HistSlots {
  std::atomic<std::uint64_t> count{0};
  std::atomic<std::uint64_t> sum{0};
  std::atomic<std::uint64_t> buckets[kHistogramBuckets] = {};
};

// One per recording thread. Slots are written only by the owning thread
// (relaxed read-modify-write as two relaxed ops — single writer, so no lost
// updates) and read by snapshotters; atomics make those cross-thread reads
// race-free without ordering cost on the writer.
struct ThreadShard {
  std::atomic<std::uint64_t> scalars[kMaxScalarMetrics] = {};
  HistSlots hists[kMaxHistograms];
};

struct HistTotals {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  std::uint64_t buckets[kHistogramBuckets] = {};
};

struct Registry {
  std::mutex mu;
  // Name tables; index == slot id. Append-only under mu.
  std::vector<std::string> scalar_names;
  std::vector<MetricKind> scalar_kinds;
  std::vector<std::string> hist_names;
  // Live per-thread shards (not owned) and totals folded from exited threads.
  std::vector<ThreadShard*> live;
  std::uint64_t retired_scalars[kMaxScalarMetrics] = {};
  HistTotals retired_hists[kMaxHistograms];
};

// Leaked singleton: thread_local shard destructors run during thread (and
// process) teardown and must always find the registry alive.
Registry& registry() {
  static Registry* r = new Registry();
  return *r;
}

std::atomic<bool>& enabled_flag() {
  static std::atomic<bool> flag = [] {
    const char* env = std::getenv("RQSIM_TELEMETRY");
    if (env != nullptr &&
        (std::strcmp(env, "0") == 0 || std::strcmp(env, "off") == 0 ||
         std::strcmp(env, "false") == 0)) {
      return false;
    }
    return true;
  }();
  return flag;
}

void fold_scalar(MetricKind kind, std::uint64_t& into, std::uint64_t v) {
  if (kind == MetricKind::kMaxGauge) {
    into = std::max(into, v);
  } else {
    into += v;
  }
}

// Fold a live shard into retired totals. Caller holds registry().mu.
void fold_shard_locked(Registry& r, const ThreadShard& shard) {
  for (std::size_t i = 0; i < r.scalar_names.size(); ++i) {
    fold_scalar(r.scalar_kinds[i], r.retired_scalars[i],
                shard.scalars[i].load(std::memory_order_relaxed));
  }
  for (std::size_t i = 0; i < r.hist_names.size(); ++i) {
    const HistSlots& h = shard.hists[i];
    HistTotals& t = r.retired_hists[i];
    t.count += h.count.load(std::memory_order_relaxed);
    t.sum += h.sum.load(std::memory_order_relaxed);
    for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
      t.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
    }
  }
}

// Registers the shard on first use and folds + deregisters it when the
// owning thread exits, so short-lived worker threads never drop samples.
struct ShardOwner {
  ThreadShard* shard;

  ShardOwner() : shard(new ThreadShard()) {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.live.push_back(shard);
  }

  ~ShardOwner() {
    Registry& r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    fold_shard_locked(r, *shard);
    r.live.erase(std::remove(r.live.begin(), r.live.end(), shard),
                 r.live.end());
    delete shard;
  }
};

ThreadShard& local_shard() {
  thread_local ShardOwner owner;
  return *owner.shard;
}

std::uint32_t intern_scalar(const char* name, MetricKind kind) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.scalar_names.size(); ++i) {
    if (r.scalar_names[i] == name) {
      RQSIM_CHECK(r.scalar_kinds[i] == kind,
                  std::string("telemetry metric '") + name +
                      "' re-registered with a different kind");
      return static_cast<std::uint32_t>(i);
    }
  }
  RQSIM_CHECK(r.scalar_names.size() < kMaxScalarMetrics,
              "telemetry scalar metric table full");
  r.scalar_names.emplace_back(name);
  r.scalar_kinds.push_back(kind);
  return static_cast<std::uint32_t>(r.scalar_names.size() - 1);
}

std::uint32_t intern_hist(const char* name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.hist_names.size(); ++i) {
    if (r.hist_names[i] == name) return static_cast<std::uint32_t>(i);
  }
  RQSIM_CHECK(r.hist_names.size() < kMaxHistograms,
              "telemetry histogram table full");
  r.hist_names.emplace_back(name);
  return static_cast<std::uint32_t>(r.hist_names.size() - 1);
}

// Owner-thread add: load+store instead of fetch_add — the slot has exactly
// one writer, so this is not a lost-update race and skips the RMW bus lock.
inline void slot_add(std::atomic<std::uint64_t>& slot, std::uint64_t delta) {
  slot.store(slot.load(std::memory_order_relaxed) + delta,
             std::memory_order_relaxed);
}

inline void slot_max(std::atomic<std::uint64_t>& slot, std::uint64_t v) {
  if (v > slot.load(std::memory_order_relaxed)) {
    slot.store(v, std::memory_order_relaxed);
  }
}

std::uint64_t scalar_value_locked(Registry& r, std::uint32_t id) {
  std::uint64_t total = r.retired_scalars[id];
  for (const ThreadShard* shard : r.live) {
    fold_scalar(r.scalar_kinds[id], total,
                shard->scalars[id].load(std::memory_order_relaxed));
  }
  return total;
}

}  // namespace

bool enabled() { return enabled_flag().load(std::memory_order_relaxed); }

void set_enabled(bool on) {
  enabled_flag().store(on, std::memory_order_relaxed);
}

Counter::Counter(const char* name)
    : id_(intern_scalar(name, MetricKind::kCounter)) {}

void Counter::add(std::uint64_t delta) {
  if (!enabled()) return;
  slot_add(local_shard().scalars[id_], delta);
}

std::uint64_t Counter::value() const {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return scalar_value_locked(r, id_);
}

MaxGauge::MaxGauge(const char* name)
    : id_(intern_scalar(name, MetricKind::kMaxGauge)) {}

void MaxGauge::record(std::uint64_t value) {
  if (!enabled()) return;
  slot_max(local_shard().scalars[id_], value);
}

std::uint64_t MaxGauge::value() const {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  return scalar_value_locked(r, id_);
}

Histogram::Histogram(const char* name) : id_(intern_hist(name)) {}

void Histogram::record(std::uint64_t value) {
  if (!enabled()) return;
  HistSlots& h = local_shard().hists[id_];
  slot_add(h.count, 1);
  slot_add(h.sum, value);
  slot_add(h.buckets[std::bit_width(value)], 1);
}

MetricsSnapshot snapshot_metrics() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  MetricsSnapshot snap;
  snap.metrics.reserve(r.scalar_names.size() + r.hist_names.size());
  for (std::size_t i = 0; i < r.scalar_names.size(); ++i) {
    MetricValue m;
    m.name = r.scalar_names[i];
    m.kind = r.scalar_kinds[i];
    m.value = scalar_value_locked(r, static_cast<std::uint32_t>(i));
    snap.metrics.push_back(std::move(m));
  }
  for (std::size_t i = 0; i < r.hist_names.size(); ++i) {
    MetricValue m;
    m.name = r.hist_names[i];
    m.kind = MetricKind::kHistogram;
    HistTotals t = r.retired_hists[i];
    for (const ThreadShard* shard : r.live) {
      const HistSlots& h = shard->hists[i];
      t.count += h.count.load(std::memory_order_relaxed);
      t.sum += h.sum.load(std::memory_order_relaxed);
      for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
        t.buckets[b] += h.buckets[b].load(std::memory_order_relaxed);
      }
    }
    m.count = t.count;
    m.sum = t.sum;
    // Trim trailing empty buckets so snapshots stay compact.
    std::size_t top = kHistogramBuckets;
    while (top > 0 && t.buckets[top - 1] == 0) --top;
    m.buckets.assign(t.buckets, t.buckets + top);
    snap.metrics.push_back(std::move(m));
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

std::uint64_t counter_value(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  for (std::size_t i = 0; i < r.scalar_names.size(); ++i) {
    if (r.scalar_names[i] == name) {
      return scalar_value_locked(r, static_cast<std::uint32_t>(i));
    }
  }
  return 0;
}

void reset_metrics_for_test() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mu);
  std::fill(std::begin(r.retired_scalars), std::end(r.retired_scalars),
            std::uint64_t{0});
  for (HistTotals& t : r.retired_hists) t = HistTotals{};
  for (ThreadShard* shard : r.live) {
    for (auto& slot : shard->scalars) {
      slot.store(0, std::memory_order_relaxed);
    }
    for (HistSlots& h : shard->hists) {
      h.count.store(0, std::memory_order_relaxed);
      h.sum.store(0, std::memory_order_relaxed);
      for (auto& b : h.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

// Snapshot folding is pure data math on MetricValue records: the router
// merges snapshots that *backends* produced.

double histogram_quantile(const std::vector<std::uint64_t>& buckets,
                          std::uint64_t count, double q) {
  if (count == 0 || buckets.empty()) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  // Rank of the target sample, 1-based; q=0 → first sample, q=1 → last.
  const double rank = 1.0 + q * static_cast<double>(count - 1);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    if (buckets[i] == 0) continue;
    const double before = static_cast<double>(seen);
    seen += buckets[i];
    if (static_cast<double>(seen) < rank) continue;
    if (i == 0) return 0.0;  // bucket 0 holds exactly the zeros
    // Interpolate the rank's position within this bucket's value range.
    const double lo = static_cast<double>(std::uint64_t{1} << (i - 1));
    const double hi = i >= 64 ? lo * 2.0
                              : static_cast<double>(std::uint64_t{1} << i);
    const double frac = (rank - before) / static_cast<double>(buckets[i]);
    return lo + (hi - lo) * (frac < 0.0 ? 0.0 : frac > 1.0 ? 1.0 : frac);
  }
  return 0.0;
}

void merge_snapshot(MetricsSnapshot& dst, const MetricsSnapshot& src) {
  for (const MetricValue& incoming : src.metrics) {
    MetricValue* existing = nullptr;
    for (MetricValue& m : dst.metrics) {
      if (m.name == incoming.name) {
        existing = &m;
        break;
      }
    }
    if (existing == nullptr) {
      dst.metrics.push_back(incoming);
      continue;
    }
    if (existing->kind != incoming.kind) {
      continue;  // name collision across kinds: keep dst's view
    }
    switch (incoming.kind) {
      case MetricKind::kCounter:
        existing->value += incoming.value;
        break;
      case MetricKind::kMaxGauge:
        existing->value = existing->value > incoming.value ? existing->value
                                                           : incoming.value;
        break;
      case MetricKind::kHistogram:
        existing->count += incoming.count;
        existing->sum += incoming.sum;
        if (existing->buckets.size() < incoming.buckets.size()) {
          existing->buckets.resize(incoming.buckets.size(), 0);
        }
        for (std::size_t b = 0; b < incoming.buckets.size(); ++b) {
          existing->buckets[b] += incoming.buckets[b];
        }
        break;
    }
  }
  std::sort(dst.metrics.begin(), dst.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
}

}  // namespace rqsim::telemetry
