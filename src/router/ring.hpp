// Consistent-hash ring for workload-affinity sharding.
//
// The fleet router's core job is arranging that *compatible* jobs — same
// circuit, same noise model, same trial-compatible config — land on the
// same backend process, no matter which tenant submitted them, so the
// backend can merge them into one prefix tree (run_noisy_batch,
// sched/runner.hpp). A consistent-hash ring gives that affinity a
// stable, coordination-free form: each backend owns `vnodes` pseudo-random
// points on a 64-bit ring, and a workload key is served by the first
// backend point at or clockwise after the key's hash. Adding or removing
// one backend moves only the keys in the arcs it owned (~1/N of the
// keyspace), so a backend ejection re-routes the minimum amount of
// workload-affinity state.
//
// The ring is deliberately dumb about liveness: it always contains every
// *configured* backend so ownership never flaps with health. Liveness is a
// filter applied at lookup time — preference() returns backends in ring
// order from the key's owner and the router walks it until it finds one
// that is healthy and not draining (router/health.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "service/json.hpp"

namespace rqsim {

/// FNV-1a over bytes, finalized with a splitmix64-style mix so clustered
/// inputs (backend names differing in one digit) spread over the ring.
std::uint64_t stable_hash64(const std::string& bytes);

/// Canonical workload-affinity key of a submit request: hashes exactly the
/// fields that must match for two jobs to be batch-compatible on a backend
/// (the workload description plus mode / max_states / fuse / analyze /
/// frames — the wire-level mirror of batch_fingerprint and of the merge
/// rule configs_mergeable, sched/runner.hpp), and none of the fields that
/// vary freely within a merged batch (seed, trials, threads, priority,
/// tenant). Two submits with equal keys from different tenants therefore
/// route to the same backend and can merge there. The key hashes JSON, so
/// it keeps its own copy of the field list; keep it in step with
/// configs_mergeable.
std::uint64_t workload_affinity_key(const Json& submit_request);

class HashRing {
 public:
  /// `vnodes` points per backend; more points = smoother key distribution
  /// at O(vnodes · backends) ring size.
  explicit HashRing(std::size_t vnodes = 64);

  void add(const std::string& backend);
  void remove(const std::string& backend);
  bool contains(const std::string& backend) const;
  std::size_t size() const { return backends_.size(); }

  /// Owning backend of a key (first point clockwise); empty if the ring is
  /// empty.
  std::string owner(std::uint64_t key) const;

  /// Up to `count` distinct backends in ring order starting at the key's
  /// owner — the failover preference list: if the owner is unroutable, the
  /// next entry inherits the key's workload deterministically.
  std::vector<std::string> preference(std::uint64_t key, std::size_t count) const;

 private:
  std::size_t vnodes_;
  std::map<std::uint64_t, std::string> ring_;  // point -> backend
  std::set<std::string> backends_;
};

}  // namespace rqsim
