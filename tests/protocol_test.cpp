#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"
#include "service/service.hpp"
#include "service/socket_util.hpp"

namespace rqsim {
namespace {

// ---------------------------------------------------------------------------
// JSON value type.
// ---------------------------------------------------------------------------

TEST(Json, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_EQ(Json::parse("true").as_bool(), true);
  EXPECT_EQ(Json::parse("false").as_bool(), false);
  EXPECT_DOUBLE_EQ(Json::parse("3.5").as_number(), 3.5);
  EXPECT_DOUBLE_EQ(Json::parse("-17").as_number(), -17.0);
  EXPECT_DOUBLE_EQ(Json::parse("1e3").as_number(), 1000.0);
  EXPECT_EQ(Json::parse("\"hi\"").as_string(), "hi");
  EXPECT_EQ(Json::parse("\"a\\n\\\"b\\\\\"").as_string(), "a\n\"b\\");
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
}

TEST(Json, ParsesContainers) {
  const Json arr = Json::parse("[1, 2, [3], {\"k\": false}]");
  ASSERT_TRUE(arr.is_array());
  ASSERT_EQ(arr.as_array().size(), 4u);
  EXPECT_DOUBLE_EQ(arr.as_array()[0].as_number(), 1.0);
  EXPECT_EQ(arr.as_array()[3].at("k").as_bool(), false);

  const Json obj = Json::parse("{\"a\": {\"b\": [true]}, \"c\": null}");
  ASSERT_TRUE(obj.is_object());
  EXPECT_TRUE(obj.has("c"));
  EXPECT_TRUE(obj.at("c").is_null());
  EXPECT_EQ(obj.at("a").at("b").as_array()[0].as_bool(), true);
}

TEST(Json, RejectsMalformedInput) {
  for (const char* bad : {"", "{", "[1,", "{\"a\":}", "tru", "\"unterminated",
                          "1 2", "{\"a\":1,}", "[1,]", "nul", "{'a':1}"}) {
    EXPECT_THROW(Json::parse(bad), Error) << "input: " << bad;
  }
}

TEST(Json, DumpRoundTripsAndSortsKeys) {
  const std::string text =
      "{\"b\":2,\"a\":[1,true,null,\"x\\\"y\"],\"c\":{\"n\":-4.5}}";
  const Json parsed = Json::parse(text);
  // Keys come out sorted, integral numbers without decimals.
  EXPECT_EQ(parsed.dump(),
            "{\"a\":[1,true,null,\"x\\\"y\"],\"b\":2,\"c\":{\"n\":-4.5}}");
  // dump -> parse -> dump is a fixed point.
  EXPECT_EQ(Json::parse(parsed.dump()).dump(), parsed.dump());
}

TEST(Json, IntegralU64RoundTrip) {
  const std::uint64_t big = (1ULL << 53);  // largest exactly-representable
  Json json(big);
  EXPECT_EQ(json.as_u64(), big);
  EXPECT_EQ(Json::parse(json.dump()).as_u64(), big);
  EXPECT_THROW(Json(2.5).as_u64(), Error);
  EXPECT_THROW(Json(-1).as_u64(), Error);
}

TEST(Json, AccessorsTypeCheckAndDefault) {
  Json obj = Json::object();
  obj.set("s", Json("text"));
  obj.set("n", Json(42));
  EXPECT_THROW(obj.at("s").as_number(), Error);
  EXPECT_THROW(obj.at("missing"), Error);
  EXPECT_EQ(obj.get_string("s", "d"), "text");
  EXPECT_EQ(obj.get_string("missing", "d"), "d");
  EXPECT_EQ(obj.get_u64("n", 0), 42u);
  EXPECT_EQ(obj.get_u64("missing", 9), 9u);
  EXPECT_EQ(obj.get_bool("missing", true), true);
}

// ---------------------------------------------------------------------------
// Transport-free protocol handler.
// ---------------------------------------------------------------------------

Json submit_request(std::size_t trials, std::uint64_t seed,
                    const std::string& priority = "normal") {
  WorkloadSpec workload;
  workload.circuit_spec = "ghz:4";
  workload.device = "ideal";
  SubmitParams params;
  params.trials = trials;
  params.seed = seed;
  params.priority = priority;
  return make_submit_request(workload, params);
}

TEST(Protocol, PingAndUnknownOp) {
  SimService service(ServiceConfig{0, 8, 8});
  ProtocolHandler handler(service);
  const Json pong = handler.handle(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_TRUE(pong.at("pong").as_bool());

  const Json bad = handler.handle(Json::parse("{\"op\":\"frobnicate\"}"));
  EXPECT_FALSE(bad.at("ok").as_bool());
  EXPECT_EQ(bad.at("error").as_string(), "bad_request");
}

TEST(Protocol, MalformedLineIsBadRequestNotException) {
  SimService service(ServiceConfig{0, 8, 8});
  ProtocolHandler handler(service);
  const Json response = Json::parse(handler.handle_line("this is not json"));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("error").as_string(), "bad_request");
}

TEST(Protocol, SubmitStatusCancelLifecycle) {
  SimService service(ServiceConfig{0, 8, 8});  // manual drain
  ProtocolHandler handler(service);

  const Json accepted = handler.handle(submit_request(500, 3));
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const std::uint64_t job = accepted.at("job").as_u64();
  EXPECT_EQ(accepted.at("state").as_string(), "queued");

  Json status_req = Json::object();
  status_req.set("op", Json("status"));
  status_req.set("job", Json(job));
  Json status = handler.handle(status_req);
  EXPECT_EQ(status.at("state").as_string(), "queued");
  EXPECT_FALSE(status.has("result"));

  Json cancel_req = Json::object();
  cancel_req.set("op", Json("cancel"));
  cancel_req.set("job", Json(job));
  const Json cancelled = handler.handle(cancel_req);
  EXPECT_TRUE(cancelled.at("ok").as_bool());
  EXPECT_TRUE(cancelled.at("cancelled").as_bool());

  status = handler.handle(status_req);
  EXPECT_EQ(status.at("state").as_string(), "cancelled");

  // Cancelling again reports false (already terminal).
  EXPECT_FALSE(handler.handle(cancel_req).at("cancelled").as_bool());

  Json unknown = Json::object();
  unknown.set("op", Json("status"));
  unknown.set("job", Json(std::uint64_t{777}));
  EXPECT_EQ(handler.handle(unknown).at("error").as_string(), "unknown_job");
}

TEST(Protocol, CompletedJobCarriesResultWithBitstringHistogram) {
  SimService service(ServiceConfig{0, 8, 8});
  ProtocolHandler handler(service);
  const Json accepted = handler.handle(submit_request(800, 5));
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const std::uint64_t job = accepted.at("job").as_u64();
  service.run_pending();

  Json status_req = Json::object();
  status_req.set("op", Json("status"));
  status_req.set("job", Json(job));
  const Json status = handler.handle(status_req);
  EXPECT_EQ(status.at("state").as_string(), "done");
  ASSERT_TRUE(status.has("result"));
  const Json& result = status.at("result");
  EXPECT_GT(result.at("ops").as_u64(), 0u);
  EXPECT_EQ(result.at("batch_size").as_u64(), 1u);
  ASSERT_TRUE(result.has("histogram"));
  std::uint64_t total = 0;
  for (const auto& [bits, count] : result.at("histogram").as_object()) {
    EXPECT_EQ(bits.size(), 4u);  // ghz:4 measures four bits
    total += count.as_u64();
  }
  EXPECT_EQ(total, 800u);
}

TEST(Protocol, InvalidWorkloadIsRejectedWithInvalidCode) {
  SimService service(ServiceConfig{0, 8, 8});
  ProtocolHandler handler(service);
  WorkloadSpec workload;
  workload.circuit_spec = "no-such-circuit";
  const Json response = handler.handle(make_submit_request(workload, SubmitParams{}));
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("error").as_string(), "invalid");
}

TEST(Protocol, WorkloadSpecJsonRoundTrip) {
  WorkloadSpec spec;
  spec.qasm = "OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n";
  spec.device = "artificial";
  spec.device_qubits = 3;
  spec.device_rate = 2e-3;
  spec.noise_scale = 0.5;
  spec.no_transpile = true;
  const WorkloadSpec back = workload_from_json(workload_to_json(spec));
  EXPECT_EQ(back.qasm, spec.qasm);
  EXPECT_EQ(back.device, spec.device);
  EXPECT_EQ(back.device_qubits, spec.device_qubits);
  EXPECT_DOUBLE_EQ(back.device_rate, spec.device_rate);
  EXPECT_DOUBLE_EQ(back.noise_scale, spec.noise_scale);
  EXPECT_TRUE(back.no_transpile);
}

// ---------------------------------------------------------------------------
// JSONL protocol end to end over a real socket.
// ---------------------------------------------------------------------------

struct RunningServer {
  explicit RunningServer(ServiceConfig service_config) {
    ServerConfig config;
    config.tcp_port = 0;  // ephemeral
    config.service = service_config;
    server = std::make_unique<SimServer>(std::move(config));
    thread = std::thread([this] { server->run(); });
  }

  ~RunningServer() {
    server->stop();
    if (thread.joinable()) {
      thread.join();
    }
  }

  ServiceClient client() {
    return ServiceClient::connect_tcp("127.0.0.1", server->tcp_port());
  }

  std::unique_ptr<SimServer> server;
  std::thread thread;
};

TEST(ProtocolE2E, SubmitWaitResultOverTcp) {
  ServiceConfig service_config;
  service_config.num_workers = 2;
  RunningServer running(service_config);
  ServiceClient client = running.client();

  const Json pong = client.request(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());

  const Json accepted = client.request(submit_request(1000, 7));
  ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
  const std::uint64_t job = accepted.at("job").as_u64();

  Json wait_req = Json::object();
  wait_req.set("op", Json("wait"));
  wait_req.set("job", Json(job));
  const Json finished = client.request(wait_req);
  ASSERT_TRUE(finished.at("ok").as_bool()) << finished.dump();
  EXPECT_EQ(finished.at("state").as_string(), "done");
  ASSERT_TRUE(finished.has("result"));
  std::uint64_t total = 0;
  for (const auto& [bits, count] : finished.at("result").at("histogram").as_object()) {
    (void)bits;
    total += count.as_u64();
  }
  EXPECT_EQ(total, 1000u);

  const Json stats = client.request(Json::parse("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.at("stats").at("completed").as_u64(), 1u);
}

TEST(ProtocolE2E, SubmitPollCancelAndQueueFullBackpressure) {
  // num_workers = 0: jobs stay queued, so cancel always races nothing and
  // the bounded queue fills deterministically.
  ServiceConfig service_config;
  service_config.num_workers = 0;
  service_config.queue_capacity = 2;
  RunningServer running(service_config);
  ServiceClient client = running.client();

  // submit -> poll: the job sits in the queue.
  const Json first = client.request(submit_request(300, 1));
  ASSERT_TRUE(first.at("ok").as_bool()) << first.dump();
  const std::uint64_t job = first.at("job").as_u64();
  Json status_req = Json::object();
  status_req.set("op", Json("status"));
  status_req.set("job", Json(job));
  EXPECT_EQ(client.request(status_req).at("state").as_string(), "queued");

  // Fill the queue, then hit backpressure.
  ASSERT_TRUE(client.request(submit_request(300, 2)).at("ok").as_bool());
  const Json full = client.request(submit_request(300, 3));
  EXPECT_FALSE(full.at("ok").as_bool());
  EXPECT_EQ(full.at("error").as_string(), "queue_full");

  // cancel frees a slot; the retried submit is accepted.
  Json cancel_req = Json::object();
  cancel_req.set("op", Json("cancel"));
  cancel_req.set("job", Json(job));
  EXPECT_TRUE(client.request(cancel_req).at("cancelled").as_bool());
  EXPECT_EQ(client.request(status_req).at("state").as_string(), "cancelled");
  EXPECT_TRUE(client.request(submit_request(300, 3)).at("ok").as_bool());

  const Json stats = client.request(Json::parse("{\"op\":\"stats\"}"));
  EXPECT_EQ(stats.at("stats").at("cancelled").as_u64(), 1u);
  EXPECT_EQ(stats.at("stats").at("rejected").as_u64(), 1u);
  EXPECT_EQ(stats.at("stats").at("queued_now").as_u64(), 2u);
}

TEST(ProtocolE2E, MultipleClientsShareOneService) {
  ServiceConfig service_config;
  service_config.num_workers = 2;
  RunningServer running(service_config);

  ServiceClient a = running.client();
  ServiceClient b = running.client();
  const Json from_a = a.request(submit_request(400, 1));
  ASSERT_TRUE(from_a.at("ok").as_bool());
  const std::uint64_t job = from_a.at("job").as_u64();

  // Client b can wait on a job submitted by client a.
  Json wait_req = Json::object();
  wait_req.set("op", Json("wait"));
  wait_req.set("job", Json(job));
  EXPECT_EQ(b.request(wait_req).at("state").as_string(), "done");
}

TEST(ProtocolE2E, ShutdownStopsTheServer) {
  ServiceConfig service_config;
  service_config.num_workers = 1;
  ServerConfig config;
  config.tcp_port = 0;
  config.service = service_config;
  SimServer server(std::move(config));
  std::thread runner([&server] { server.run(); });

  ServiceClient client = ServiceClient::connect_tcp("127.0.0.1", server.tcp_port());
  const Json stopping = client.request(Json::parse("{\"op\":\"shutdown\"}"));
  EXPECT_TRUE(stopping.at("ok").as_bool());
  EXPECT_TRUE(stopping.at("stopping").as_bool());
  runner.join();  // run() returns after the shutdown request
}

// ---------------------------------------------------------------------------
// Protocol error paths over the socket: malformed frames, oversized lines,
// mid-frame disconnects, unreachable endpoints. The framing invariant under
// test: a bad frame produces one structured error response and the
// connection stays usable for the next request.
// ---------------------------------------------------------------------------

// Raw-fd helper: send one already-framed blob, read one response line.
Json raw_round_trip(int fd, const std::string& frame) {
  write_all(fd, frame);
  std::string buffer;
  std::string line;
  const ReadLineStatus status = read_line_bounded(fd, buffer, line, kMaxLineBytes);
  EXPECT_EQ(status, ReadLineStatus::kLine);
  return Json::parse(line);
}

TEST(ProtocolErrors, MalformedJsonLineGetsBadRequestAndConnectionSurvives) {
  RunningServer running(ServiceConfig{0, 8, 8});
  const int fd = connect_tcp_fd("127.0.0.1", running.server->tcp_port(), 1000);
  ASSERT_GE(fd, 0);

  const Json error = raw_round_trip(fd, "{\"op\": \"ping\"  oops}\n");
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("error").as_string(), "bad_request");

  // Same connection, next frame parses and is served normally.
  const Json pong = raw_round_trip(fd, "{\"op\":\"ping\"}\n");
  EXPECT_TRUE(pong.at("ok").as_bool());
  ::close(fd);
}

TEST(ProtocolErrors, OversizedLineIsRejectedAndStreamResynchronizes) {
  RunningServer running(ServiceConfig{0, 8, 8});
  const int fd = connect_tcp_fd("127.0.0.1", running.server->tcp_port(), 1000);
  ASSERT_GE(fd, 0);

  // One frame just past the bound: discarded, answered with a structured
  // error, and the reader re-synchronizes on its trailing newline.
  std::string huge(kMaxLineBytes + 64, 'x');
  huge.push_back('\n');
  const Json error = raw_round_trip(fd, huge);
  EXPECT_FALSE(error.at("ok").as_bool());
  EXPECT_EQ(error.at("error").as_string(), "oversized_line");

  const Json pong = raw_round_trip(fd, "{\"op\":\"ping\"}\n");
  EXPECT_TRUE(pong.at("ok").as_bool());
  EXPECT_TRUE(pong.at("pong").as_bool());
  ::close(fd);
}

TEST(ProtocolErrors, MidFrameDisconnectLeavesServerServingOthers) {
  RunningServer running(ServiceConfig{0, 8, 8});
  const int fd = connect_tcp_fd("127.0.0.1", running.server->tcp_port(), 1000);
  ASSERT_GE(fd, 0);
  // Half a frame, no newline, then gone: the server must drop the
  // connection without producing a response or disturbing other clients.
  write_all(fd, "{\"op\":\"pi");
  ::close(fd);

  ServiceClient client = running.client();
  const Json pong = client.request(Json::parse("{\"op\":\"ping\"}"));
  EXPECT_TRUE(pong.at("ok").as_bool());
}

TEST(ProtocolErrors, ClientConnectRetriesAreBoundedOnDeadEndpoint) {
  // Grab an ephemeral port, then close the listener so connecting to it is
  // refused deterministically.
  int dead_port = 0;
  const int listener = listen_tcp(0, dead_port);
  ::close(listener);

  ClientOptions options;
  options.max_attempts = 3;
  options.connect_timeout_ms = 200;
  options.backoff_initial_ms = 1;
  options.backoff_max_ms = 4;
  EXPECT_THROW(ServiceClient::connect_tcp("127.0.0.1", dead_port, options), Error);
}

/// VmSize of this process in KiB, read from /proc/self/status (0 when
/// the file is unavailable).
std::uint64_t vm_size_kib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmSize:", 0) == 0) {
      return std::stoull(line.substr(7));
    }
  }
  return 0;
}

TEST(ProtocolE2E, FinishedConnectionsReleaseTheirThreads) {
  // Each connection runs on its own thread. Unless the listener joins a
  // finished connection's thread, its stack stays mapped for the life of
  // the server, and a backend behind the router (which opens a connection
  // per forwarded op and per health probe) eventually cannot start one.
  RunningServer running(ServiceConfig{0, 8, 8});
  const Json ping_request = Json::parse("{\"op\":\"ping\"}");
  const auto ping = [&](ServiceClient& client) {
    EXPECT_TRUE(client.request(ping_request).at("pong").as_bool());
  };
  // Warm up with four connections open at once, so the allocator's
  // per-thread arenas (64 MiB of address space each) and the thread stack
  // cache already cover the few connection threads that can overlap below
  // before the baseline is read.
  {
    std::vector<ServiceClient> clients;
    for (int i = 0; i < 4; ++i) {
      clients.push_back(running.client());
    }
    for (ServiceClient& client : clients) {
      ping(client);
    }
  }
  const std::uint64_t before = vm_size_kib();
  ASSERT_GT(before, 0u);
  for (int i = 0; i < 200; ++i) {
    ServiceClient client = running.client();
    ping(client);
  }
  const std::uint64_t after = vm_size_kib();
  EXPECT_LT(after, before + 64 * 1024)
      << "VmSize grew from " << before << " KiB to " << after
      << " KiB over 200 sequential connections";
}

TEST(ProtocolE2E, UnixSocketTransport) {
  std::string path = "/tmp/rqsim_protocol_test_XXXXXX";
  // mkstemp-style unique path without creating the file (bind() creates it).
  path += std::to_string(::getpid());

  ServiceConfig service_config;
  service_config.num_workers = 1;
  ServerConfig config;
  config.unix_path = path;
  config.service = service_config;
  {
    SimServer server(std::move(config));
    std::thread runner([&server] { server.run(); });
    ServiceClient client = ServiceClient::connect("unix:" + path);
    const Json accepted = client.request(submit_request(200, 9));
    ASSERT_TRUE(accepted.at("ok").as_bool()) << accepted.dump();
    Json wait_req = Json::object();
    wait_req.set("op", Json("wait"));
    wait_req.set("job", accepted.at("job"));
    EXPECT_EQ(client.request(wait_req).at("state").as_string(), "done");
    server.stop();
    runner.join();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rqsim
