// Fleet router subsystem: consistent-hash ring, admission controller,
// backend pool, and the FleetRouter end to end against in-process
// SimServer backends.
//
// The e2e tests run backends with num_workers = 0 so queue contents and
// batch formation are fully deterministic: jobs are submitted through the
// router, then a specific backend's queue is drained on the test thread
// with service().run_pending().
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "router/admission.hpp"
#include "router/health.hpp"
#include "router/ring.hpp"
#include "router/router.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace rqsim {
namespace {

// ---------------------------------------------------------------------------
// Consistent-hash ring.
// ---------------------------------------------------------------------------

TEST(HashRing, OwnerIsDeterministicAndPreferenceIsDistinct) {
  HashRing ring(32);
  ring.add("a");
  ring.add("b");
  ring.add("c");
  for (std::uint64_t key = 0; key < 200; ++key) {
    const std::uint64_t h = stable_hash64(std::to_string(key));
    const std::string owner = ring.owner(h);
    EXPECT_FALSE(owner.empty());
    const std::vector<std::string> pref = ring.preference(h, 3);
    ASSERT_EQ(pref.size(), 3u);
    EXPECT_EQ(pref.front(), owner);
    EXPECT_EQ(std::set<std::string>(pref.begin(), pref.end()).size(), 3u);
  }
}

TEST(HashRing, RemovalOnlyMovesTheRemovedBackendsKeys) {
  HashRing ring(64);
  ring.add("a");
  ring.add("b");
  ring.add("c");
  std::map<std::uint64_t, std::string> before;
  for (std::uint64_t key = 0; key < 500; ++key) {
    std::string name = "k";
    name += std::to_string(key);
    const std::uint64_t h = stable_hash64(name);
    before[h] = ring.owner(h);
  }
  ring.remove("c");
  std::size_t moved = 0;
  for (const auto& [h, owner] : before) {
    if (owner == "c") {
      EXPECT_NE(ring.owner(h), "c");
    } else {
      // The consistency property: keys not owned by the removed backend
      // keep their owner.
      EXPECT_EQ(ring.owner(h), owner);
    }
    moved += owner == "c" ? 1 : 0;
  }
  // With 64 vnodes the three backends split the keyspace roughly evenly.
  EXPECT_GT(moved, 500u / 10);
  EXPECT_LT(moved, 500u / 2);
}

TEST(HashRing, AllBackendsOwnSomeKeys) {
  HashRing ring(64);
  ring.add("a");
  ring.add("b");
  ring.add("c");
  ring.add("d");
  std::set<std::string> seen;
  for (std::uint64_t key = 0; key < 1000; ++key) {
    std::string name = "x";
    name += std::to_string(key);
    seen.insert(ring.owner(stable_hash64(name)));
  }
  EXPECT_EQ(seen.size(), 4u);
}

// ---------------------------------------------------------------------------
// Workload-affinity key.
// ---------------------------------------------------------------------------

Json fleet_submit(std::size_t trials, std::uint64_t seed, const std::string& tenant,
                  const std::string& circuit = "ghz:4") {
  WorkloadSpec workload;
  workload.circuit_spec = circuit;
  workload.device = "ideal";
  SubmitParams params;
  params.trials = trials;
  params.seed = seed;
  params.tenant = tenant;
  return make_submit_request(workload, params);
}

TEST(AffinityKey, IgnoresTenantSeedTrialsButNotWorkload) {
  const std::uint64_t alice = workload_affinity_key(fleet_submit(400, 1, "alice"));
  const std::uint64_t bob = workload_affinity_key(fleet_submit(900, 77, "bob"));
  EXPECT_EQ(alice, bob);  // batch-compatible submits share the key

  const std::uint64_t other = workload_affinity_key(fleet_submit(400, 1, "alice", "ghz:5"));
  EXPECT_NE(alice, other);  // different circuit => different key

  Json baseline = fleet_submit(400, 1, "alice");
  baseline.set("mode", Json(std::string("baseline")));
  EXPECT_NE(alice, workload_affinity_key(baseline));  // mode is part of the class
}

TEST(AffinityKey, FollowsTheMergeRuleForThreadsAndFrames) {
  // Thread counts merge freely (the merged tree runs on the largest one);
  // frame collapse must match between merged jobs.
  Json one_thread = fleet_submit(400, 1, "alice");
  Json four_threads = fleet_submit(400, 1, "bob");
  four_threads.set("threads", Json(std::uint64_t{4}));
  EXPECT_EQ(workload_affinity_key(one_thread), workload_affinity_key(four_threads));

  Json framed = fleet_submit(400, 1, "alice");
  framed.set("frames", Json(true));
  EXPECT_NE(workload_affinity_key(one_thread), workload_affinity_key(framed));
}

// ---------------------------------------------------------------------------
// Admission controller.
// ---------------------------------------------------------------------------

TEST(Admission, TenantQuotaAndRelease) {
  AdmissionConfig config;
  config.tenant_quota = 2;
  AdmissionController admission(config);
  EXPECT_TRUE(admission.try_admit("t").admitted);
  EXPECT_TRUE(admission.try_admit("t").admitted);
  const AdmissionDecision rejected = admission.try_admit("t");
  EXPECT_FALSE(rejected.admitted);
  EXPECT_GT(rejected.retry_after_ms, 0.0);
  admission.release("t");
  EXPECT_TRUE(admission.try_admit("t").admitted);
}

TEST(Admission, WeightedFairShareUnderContention) {
  AdmissionConfig config;
  config.fleet_capacity = 4;
  AdmissionController admission(config);

  // An idle fleet: tenant a may use every slot (its active-set share is the
  // whole capacity)...
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(admission.try_admit("a").admitted) << i;
  }
  EXPECT_FALSE(admission.try_admit("a").admitted);  // fleet capacity

  // ...but as soon as b competes, shares split 50/50: b claims a freed slot,
  // and once a is down to its share of 2 it is rejected even though a fleet
  // slot is free — the idle capacity is reserved for the other active tenant.
  admission.release("a");
  EXPECT_TRUE(admission.try_admit("b").admitted);
  admission.release("a");
  EXPECT_FALSE(admission.try_admit("a").admitted);
  EXPECT_TRUE(admission.try_admit("b").admitted);
}

TEST(Admission, WeightsSkewTheShares) {
  AdmissionConfig config;
  config.fleet_capacity = 4;
  config.weights["heavy"] = 3.0;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.try_admit("light").admitted);
  // Active weights: heavy 3 + light 1 => heavy's share = ceil(4*3/4) = 3.
  EXPECT_TRUE(admission.try_admit("heavy").admitted);
  EXPECT_TRUE(admission.try_admit("heavy").admitted);
  EXPECT_TRUE(admission.try_admit("heavy").admitted);
  EXPECT_FALSE(admission.try_admit("heavy").admitted);
}

TEST(Admission, RetryAfterHintGrowsExponentiallyAndResets) {
  AdmissionConfig config;
  config.tenant_quota = 1;
  config.retry_after_base_ms = 10.0;
  config.retry_after_max_ms = 100.0;
  AdmissionController admission(config);
  ASSERT_TRUE(admission.try_admit("t").admitted);
  const double first = admission.try_admit("t").retry_after_ms;
  const double second = admission.try_admit("t").retry_after_ms;
  const double third = admission.try_admit("t").retry_after_ms;
  EXPECT_DOUBLE_EQ(first, 10.0);
  EXPECT_DOUBLE_EQ(second, 20.0);
  EXPECT_DOUBLE_EQ(third, 40.0);
  for (int i = 0; i < 10; ++i) {
    EXPECT_LE(admission.try_admit("t").retry_after_ms, 100.0);  // capped
  }
  admission.release("t");
  ASSERT_TRUE(admission.try_admit("t").admitted);
  EXPECT_DOUBLE_EQ(admission.try_admit("t").retry_after_ms, 10.0);  // reset
}

// ---------------------------------------------------------------------------
// Backend pool: ejection, re-admission, drain as routing filters.
// ---------------------------------------------------------------------------

TEST(BackendPool, FailuresEjectAndDrainingFilters) {
  HealthConfig health;
  health.eject_after = 2;
  BackendPool pool({"a", "b", "c"}, health, 16);
  const std::uint64_t key = stable_hash64("some-workload");
  const std::vector<std::string> all = pool.route_preference(key);
  ASSERT_EQ(all.size(), 3u);

  pool.report_failure(all[0]);
  EXPECT_EQ(pool.route_preference(key).size(), 3u);  // 1 < eject_after
  pool.report_failure(all[0]);
  std::vector<std::string> routable = pool.route_preference(key);
  ASSERT_EQ(routable.size(), 2u);
  EXPECT_EQ(routable.front(), all[1]);  // next in ring order inherits the key

  pool.report_success(all[0]);  // re-admission
  EXPECT_EQ(pool.route_preference(key).size(), 3u);
  EXPECT_EQ(pool.route_preference(key).front(), all[0]);  // key returns home

  ASSERT_TRUE(pool.set_draining(all[0], true));
  EXPECT_EQ(pool.route_preference(key).front(), all[1]);
  ASSERT_TRUE(pool.set_draining(all[0], false));
  EXPECT_EQ(pool.route_preference(key).front(), all[0]);

  EXPECT_FALSE(pool.set_draining("nonsense", true));
}

TEST(BackendPool, ProbeReadmitsALiveBackend) {
  ServerConfig config;
  config.tcp_port = 0;
  config.service.num_workers = 0;
  SimServer server(std::move(config));
  std::thread runner([&server] { server.run(); });
  const std::string endpoint = "127.0.0.1:" + std::to_string(server.tcp_port());

  HealthConfig health;
  health.eject_after = 1;
  health.timeout_ms = 1000;
  BackendPool pool({endpoint}, health, 8);
  pool.report_failure(endpoint);  // spuriously ejected
  EXPECT_TRUE(pool.route_preference(1).empty());

  pool.probe_once();  // ping succeeds => re-admitted
  EXPECT_EQ(pool.route_preference(1).size(), 1u);
  const auto info = pool.info(endpoint);
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->pings_ok, 1u);
  EXPECT_EQ(info->state, BackendState::kHealthy);

  server.stop();
  runner.join();
}

// ---------------------------------------------------------------------------
// FleetRouter end to end over in-process backends.
// ---------------------------------------------------------------------------

struct Fleet {
  explicit Fleet(std::size_t n, std::size_t workers = 0) {
    for (std::size_t i = 0; i < n; ++i) {
      ServerConfig config;
      config.tcp_port = 0;
      config.service.num_workers = workers;
      config.service.queue_capacity = 64;
      config.service.max_batch_jobs = 8;
      servers.push_back(std::make_unique<SimServer>(std::move(config)));
      threads.emplace_back([server = servers.back().get()] { server->run(); });
      endpoints.push_back("127.0.0.1:" + std::to_string(servers.back()->tcp_port()));
    }
  }

  ~Fleet() {
    for (std::size_t i = 0; i < servers.size(); ++i) {
      stop(i);
    }
  }

  SimServer& by_endpoint(const std::string& endpoint) {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      if (endpoints[i] == endpoint) {
        return *servers[i];
      }
    }
    throw Error("fleet test: unknown endpoint " + endpoint);
  }

  void stop(const std::string& endpoint) {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      if (endpoints[i] == endpoint) {
        stop(i);
      }
    }
  }

  void stop(std::size_t i) {
    if (servers[i]) {
      servers[i]->stop();
    }
    if (threads[i].joinable()) {
      threads[i].join();
    }
  }

  RouterConfig router_config() const {
    RouterConfig config;
    config.tcp_port = 0;
    config.backends = endpoints;
    config.health_thread = false;      // tests step probes deterministically
    config.health.eject_after = 1;     // first failure re-routes immediately
    config.backend_client.max_attempts = 1;
    config.backend_client.connect_timeout_ms = 2000;
    return config;
  }

  std::vector<std::unique_ptr<SimServer>> servers;
  std::vector<std::thread> threads;
  std::vector<std::string> endpoints;
};

Json job_op(const std::string& op, std::uint64_t job) {
  Json request = Json::object();
  request.set("op", Json(op));
  request.set("job", Json(job));
  return request;
}

// Reference run of the same submit on a standalone single-process service.
Json solo_histogram(const Json& submit) {
  SimService service(ServiceConfig{0, 8, 8});
  ProtocolHandler handler(service);
  const Json accepted = handler.handle(submit);
  EXPECT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  service.run_pending();
  const Json status = handler.handle(job_op("status", accepted.at("job").as_u64()));
  EXPECT_EQ(status.get_string("state", ""), "done") << status.dump();
  return status.at("result").at("histogram");
}

TEST(FleetRouterE2E, AffinityCoLocatesTenantsAndMergesCrossTenantBatches) {
  Fleet fleet(3);
  FleetRouter router(fleet.router_config());

  // Same Table I-style workload, two tenants, identical seed: affinity must
  // put both on one backend regardless of tenant.
  const Json accepted_a = router.handle(fleet_submit(400, 11, "alice"));
  const Json accepted_b = router.handle(fleet_submit(400, 11, "bob"));
  ASSERT_TRUE(accepted_a.at("ok").as_bool()) << accepted_a.dump();
  ASSERT_TRUE(accepted_b.at("ok").as_bool()) << accepted_b.dump();
  const std::string owner = accepted_a.at("backend").as_string();
  EXPECT_EQ(accepted_b.at("backend").as_string(), owner);

  // Drain the owner's queue: both jobs form ONE merged, cross-tenant batch.
  EXPECT_EQ(fleet.by_endpoint(owner).service().run_pending(), 2u);

  const Json done_a = router.handle(job_op("status", accepted_a.at("job").as_u64()));
  const Json done_b = router.handle(job_op("status", accepted_b.at("job").as_u64()));
  ASSERT_EQ(done_a.get_string("state", ""), "done") << done_a.dump();
  ASSERT_EQ(done_b.get_string("state", ""), "done") << done_b.dump();
  EXPECT_EQ(done_a.at("result").at("batch_size").as_u64(), 2u);

  // Bitwise-identical histograms: tenant vs tenant, and fleet vs a
  // single-process SimService running the identical submit.
  const std::string reference = solo_histogram(fleet_submit(400, 11, "alice")).dump();
  EXPECT_EQ(done_a.at("result").at("histogram").dump(), reference);
  EXPECT_EQ(done_b.at("result").at("histogram").dump(), reference);

  // Aggregated fleet stats see the cross-tenant merge.
  const Json stats = router.handle(Json::parse("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.at("ok").as_bool()) << stats.dump();
  EXPECT_EQ(stats.at("stats").at("merged_cross_tenant_batches").as_u64(), 1u);
  EXPECT_EQ(stats.at("stats").at("merged_cross_tenant_jobs").as_u64(), 2u);
  EXPECT_GT(stats.at("fleet").at("cross_tenant_merge_hit_rate").as_number(), 0.0);
  // Both tenants appear in the admission breakdown with zero in flight.
  EXPECT_EQ(stats.at("fleet").at("tenants").at("alice").at("admitted").as_u64(), 1u);
  EXPECT_EQ(stats.at("fleet").at("tenants").at("bob").at("inflight").as_u64(), 0u);
}

TEST(FleetRouterE2E, DeadBackendJobsRerouteWithNoLossOrDuplication) {
  Fleet fleet(3);
  FleetRouter router(fleet.router_config());

  // Route several compatible jobs; they all land on the affinity owner.
  std::vector<std::uint64_t> jobs;
  std::vector<std::uint64_t> seeds = {5, 6, 7};
  std::string owner;
  for (const std::uint64_t seed : seeds) {
    const Json accepted =
        router.handle(fleet_submit(300, seed, seed % 2 ? "alice" : "bob"));
    ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
    jobs.push_back(accepted.at("job").as_u64());
    owner = accepted.at("backend").as_string();
  }

  // Kill the owner before it ran anything: the queued jobs die with it.
  fleet.stop(owner);

  // The first status on each job hits the dead backend, triggers failover
  // (resubmission of the stored spec), and lands it queued elsewhere.
  std::set<std::string> new_backends;
  for (const std::uint64_t job : jobs) {
    const Json status = router.handle(job_op("status", job));
    ASSERT_TRUE(status.at("ok").as_bool()) << status.dump();
    EXPECT_EQ(status.get_string("state", ""), "queued");
  }
  const Json mid = router.handle(Json::parse("{\"op\":\"stats\"}"));
  EXPECT_EQ(mid.at("fleet").at("router").at("resubmits").as_u64(), seeds.size());

  // Drain every surviving backend and confirm each job completed exactly
  // once, with the result the original backend would have produced.
  for (const auto& endpoint : fleet.endpoints) {
    if (endpoint != owner) {
      fleet.by_endpoint(endpoint).service().run_pending();
    }
  }
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const Json done = router.handle(job_op("status", jobs[i]));
    ASSERT_EQ(done.get_string("state", ""), "done") << done.dump();
    EXPECT_EQ(done.at("result").at("histogram").dump(),
              solo_histogram(fleet_submit(300, seeds[i], "x")).dump());
  }
  const Json stats = router.handle(Json::parse("{\"op\":\"stats\"}"));
  // Completed exactly once each: the fleet-wide counter (the dead backend
  // no longer reports) equals the job count.
  EXPECT_EQ(stats.at("stats").at("completed").as_u64(), seeds.size());
}

TEST(FleetRouterE2E, DrainCompletesInflightAndReroutesNewJobs) {
  Fleet fleet(2);
  FleetRouter router(fleet.router_config());

  const Json accepted = router.handle(fleet_submit(200, 3, "alice"));
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const std::string owner = accepted.at("backend").as_string();

  // Drain the owner: the in-flight job stays put and reachable...
  Json drain = Json::object();
  drain.set("op", Json(std::string("drain")));
  drain.set("backend", Json(owner));
  const Json draining = router.handle(drain);
  ASSERT_TRUE(draining.at("ok").as_bool()) << draining.dump();
  EXPECT_EQ(draining.at("inflight").as_u64(), 1u);

  // ...while new compatible jobs route to the other backend.
  const Json rerouted = router.handle(fleet_submit(200, 4, "alice"));
  ASSERT_TRUE(rerouted.at("ok").as_bool()) << rerouted.dump();
  EXPECT_NE(rerouted.at("backend").as_string(), owner);

  // The drain completes: the draining backend finishes its queue and the
  // job is observed done through the router.
  fleet.by_endpoint(owner).service().run_pending();
  const Json done = router.handle(job_op("status", accepted.at("job").as_u64()));
  EXPECT_EQ(done.get_string("state", ""), "done") << done.dump();

  // Undrain brings the backend's keyspace arcs back.
  Json undrain = Json::object();
  undrain.set("op", Json(std::string("undrain")));
  undrain.set("backend", Json(owner));
  ASSERT_TRUE(router.handle(undrain).at("ok").as_bool());
  const Json back = router.handle(fleet_submit(200, 5, "alice"));
  EXPECT_EQ(back.at("backend").as_string(), owner);
}

TEST(FleetRouterE2E, QuotaRejectionCarriesRetryAfterAndClearsOnCompletion) {
  Fleet fleet(1);
  RouterConfig config = fleet.router_config();
  config.admission.tenant_quota = 1;
  FleetRouter router(std::move(config));

  const Json accepted = router.handle(fleet_submit(200, 1, "alice"));
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();

  const Json rejected = router.handle(fleet_submit(200, 2, "alice"));
  EXPECT_FALSE(rejected.at("ok").as_bool());
  EXPECT_EQ(rejected.at("error").as_string(), "quota_exceeded");
  EXPECT_GT(rejected.at("retry_after_ms").as_number(), 0.0);

  // Another tenant has its own quota.
  const Json other = router.handle(fleet_submit(200, 3, "bob"));
  EXPECT_TRUE(other.at("ok").as_bool()) << other.dump();

  // Completion observed through the router releases the slot.
  fleet.servers[0]->service().run_pending();
  ASSERT_EQ(router.handle(job_op("status", accepted.at("job").as_u64()))
                .get_string("state", ""),
            "done");
  EXPECT_TRUE(router.handle(fleet_submit(200, 4, "alice")).at("ok").as_bool());
}

TEST(FleetRouterE2E, NoRoutableBackendIsAStructuredError) {
  Fleet fleet(1);
  FleetRouter router(fleet.router_config());
  fleet.stop(std::size_t{0});

  const Json response = router.handle(fleet_submit(100, 1, "alice"));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("error").as_string(), "no_backend");
  EXPECT_GT(response.at("retry_after_ms").as_number(), 0.0);
  // The failed admission slot was returned.
  EXPECT_EQ(router.admission().total_inflight(), 0u);
}

TEST(FleetRouterE2E, FullSocketTransportAndFleetStats) {
  Fleet fleet(2, /*workers=*/1);
  RouterConfig config = fleet.router_config();
  config.backend_client.max_attempts = 3;
  FleetRouter router(std::move(config));
  std::thread runner([&router] { router.run(); });

  ServiceClient client =
      ServiceClient::connect_tcp("127.0.0.1", router.tcp_port());
  const Json pong = client.request(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_TRUE(pong.get_bool("router", false));

  const Json accepted = client.request(fleet_submit(500, 21, "alice"));
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const Json done = client.request(job_op("wait", accepted.at("job").as_u64()));
  ASSERT_EQ(done.get_string("state", ""), "done") << done.dump();
  std::uint64_t total = 0;
  for (const auto& [bits, count] : done.at("result").at("histogram").as_object()) {
    (void)bits;
    total += count.as_u64();
  }
  EXPECT_EQ(total, 500u);

  const Json stats = client.request(Json::parse("{\"op\":\"stats\"}"));
  ASSERT_TRUE(stats.at("ok").as_bool()) << stats.dump();
  EXPECT_EQ(stats.at("stats").at("completed").as_u64(), 1u);
  ASSERT_TRUE(stats.has("fleet"));
  EXPECT_EQ(stats.at("fleet").at("backends").as_array().size(), 2u);
  // The merged telemetry block aggregates the backends' registries.
  ASSERT_TRUE(stats.has("telemetry"));

  const Json stopping = client.request(Json::parse("{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(stopping.at("ok").as_bool());
  runner.join();
}

}  // namespace
}  // namespace rqsim
