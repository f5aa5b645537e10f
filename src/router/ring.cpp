#include "router/ring.hpp"

namespace rqsim {

std::uint64_t stable_hash64(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  // splitmix64 finalizer: FNV alone keeps nearby inputs in nearby buckets;
  // ring placement needs avalanche.
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  h ^= h >> 31;
  return h;
}

std::uint64_t workload_affinity_key(const Json& submit_request) {
  // Canonicalize through Json::dump (sorted keys, deterministic number
  // formatting) so field order on the wire cannot split a workload class.
  // The fields are those configs_mergeable (sched/runner.hpp) compares,
  // plus the workload and analyze, which batch_compatible adds.
  Json canon = Json::object();
  if (submit_request.has("workload")) {
    canon.set("workload", submit_request.at("workload"));
  }
  canon.set("mode", Json(submit_request.get_string("mode", "cached")));
  canon.set("max_states", Json(submit_request.get_u64("max_states", 0)));
  canon.set("fuse", Json(submit_request.get_bool("fuse", false)));
  canon.set("analyze", Json(submit_request.get_bool("analyze", false)));
  canon.set("frames", Json(submit_request.get_bool("frames", false)));
  return stable_hash64(canon.dump());
}

HashRing::HashRing(std::size_t vnodes) : vnodes_(vnodes == 0 ? 1 : vnodes) {}

void HashRing::add(const std::string& backend) {
  if (!backends_.insert(backend).second) {
    return;
  }
  for (std::size_t v = 0; v < vnodes_; ++v) {
    const std::uint64_t point =
        stable_hash64(backend + "#" + std::to_string(v));
    // On the astronomically unlikely point collision, first-added wins;
    // ownership just shifts by one vnode arc.
    ring_.emplace(point, backend);
  }
}

void HashRing::remove(const std::string& backend) {
  if (backends_.erase(backend) == 0) {
    return;
  }
  for (auto it = ring_.begin(); it != ring_.end();) {
    if (it->second == backend) {
      it = ring_.erase(it);
    } else {
      ++it;
    }
  }
}

bool HashRing::contains(const std::string& backend) const {
  return backends_.count(backend) > 0;
}

std::string HashRing::owner(std::uint64_t key) const {
  if (ring_.empty()) {
    return std::string();
  }
  auto it = ring_.lower_bound(key);
  if (it == ring_.end()) {
    it = ring_.begin();  // wrap around
  }
  return it->second;
}

std::vector<std::string> HashRing::preference(std::uint64_t key,
                                              std::size_t count) const {
  std::vector<std::string> order;
  if (ring_.empty() || count == 0) {
    return order;
  }
  const std::size_t want = count < backends_.size() ? count : backends_.size();
  std::set<std::string> seen;
  auto it = ring_.lower_bound(key);
  for (std::size_t steps = 0; steps < ring_.size() && order.size() < want;
       ++steps) {
    if (it == ring_.end()) {
      it = ring_.begin();
    }
    if (seen.insert(it->second).second) {
      order.push_back(it->second);
    }
    ++it;
  }
  return order;
}

}  // namespace rqsim
