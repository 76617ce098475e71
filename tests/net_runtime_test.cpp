// NetRuntime end-to-end: protocols running unmodified across runtime
// instances connected by real loopback TCP.  Each "process" of the fleet is
// a NetRuntime in this test binary (identical node numbering, disjoint
// ownership) — the same topology `snowkit_server` + `bench_harness
// --scenario net_loopback` deploys as actual OS processes.
#include "runtime/net_runtime.hpp"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <optional>
#include <thread>

#include "checker/tag_order.hpp"
#include "core/run_workload.hpp"
#include "core/system.hpp"
#include "runtime/fleet.hpp"

namespace snowkit {
namespace {

#define SKIP_WITHOUT_TRANSPORT()                                      \
  do {                                                                \
    if (!net::transport_supported())                                  \
      GTEST_SKIP() << "TCP transport requires Linux";                 \
  } while (0)

/// An in-test fleet "process": one NetRuntime + the protocol built on it.
struct FleetProc {
  std::unique_ptr<NetRuntime> rt;
  std::unique_ptr<HistoryRecorder> rec;
  std::unique_ptr<ProtocolSystem> sys;

  void build(const FleetConfig& fleet, std::size_t index) {
    rt = std::make_unique<NetRuntime>(fleet.net_options(index));
    rec = std::make_unique<HistoryRecorder>(fleet.system.num_objects);
    sys = build_protocol(fleet.protocol, *rt, *rec, fleet.system, fleet.options);
  }
};

FleetConfig make_fleet(const std::string& protocol, std::size_t objects, std::size_t readers,
                       std::size_t writers, std::size_t shards, std::size_t server_procs) {
  FleetConfig fleet;
  fleet.protocol = protocol;
  fleet.system.num_objects = objects;
  fleet.system.num_readers = readers;
  fleet.system.num_writers = writers;
  fleet.system.num_servers = shards;
  for (const std::uint16_t port : net::pick_free_ports(server_procs + 1)) {
    fleet.processes.push_back({"127.0.0.1", port});
  }
  return fleet;
}

/// Runs a split closed loop from the client process and returns its history.
History run_fleet_once(const FleetConfig& fleet, std::size_t ops_per_reader,
                       std::size_t ops_per_writer) {
  std::vector<FleetProc> procs(fleet.processes.size());
  for (std::size_t i = 0; i < procs.size(); ++i) procs[i].build(fleet, i);
  // Server processes first, client last — though start order must not matter
  // (reconnect-with-backoff covers the races; a dedicated test flips it).
  for (std::size_t i = 0; i < procs.size(); ++i) procs[i].rt->start();
  FleetProc& client = procs.back();
  client.rt->wait_connected();

  WorkloadSpec spec;
  spec.ops_per_reader = ops_per_reader;
  spec.ops_per_writer = ops_per_writer;
  spec.read_span = std::min<std::size_t>(2, fleet.system.num_objects);
  spec.write_span = std::min<std::size_t>(2, fleet.system.num_objects);
  spec.seed = 11;
  WorkloadDriver driver(*client.rt, *client.sys, spec);
  driver.start();
  driver.wait();

  client.rt->broadcast_shutdown();
  client.rt->stop();  // drains the SHUTDOWN frames before the sockets close
  for (std::size_t i = 0; i + 1 < procs.size(); ++i) procs[i].rt->stop();
  return client.rec->snapshot();
}

/// run_fleet_once with one retry on fresh ports: another process (parallel
/// ctest) can grab a probed port between pick_free_ports and listen.
History run_fleet_workload(FleetConfig fleet, std::size_t ops_per_reader,
                           std::size_t ops_per_writer) {
  try {
    return run_fleet_once(fleet, ops_per_reader, ops_per_writer);
  } catch (const std::runtime_error&) {
    const auto ports = net::pick_free_ports(fleet.processes.size());
    if (ports.size() != fleet.processes.size()) throw;  // probing itself failed
    for (std::size_t i = 0; i < fleet.processes.size(); ++i) fleet.processes[i].port = ports[i];
    return run_fleet_once(fleet, ops_per_reader, ops_per_writer);
  }
}

TEST(NetRuntime, AlgoBAcrossTwoProcesses) {
  SKIP_WITHOUT_TRANSPORT();
  const FleetConfig fleet = make_fleet("algo-b", 2, 2, 2, 2, 1);
  const History h = run_fleet_workload(fleet, 20, 10);
  EXPECT_EQ(h.completed_reads(), 2u * 20u);
  EXPECT_EQ(h.completed_writes(), 2u * 10u);
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(NetRuntime, AlgoCAcrossThreeServerProcesses) {
  SKIP_WITHOUT_TRANSPORT();
  const FleetConfig fleet = make_fleet("algo-c", 4, 2, 2, 3, 3);
  const History h = run_fleet_workload(fleet, 15, 8);
  EXPECT_EQ(h.completed_reads(), 2u * 15u);
  EXPECT_EQ(h.completed_writes(), 2u * 8u);
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(NetRuntime, EveryProtocolRunsUnmodifiedOverTcp) {
  SKIP_WITHOUT_TRANSPORT();
  // The registry's whole deployable surface: one quick fleet each.  (The
  // broken-stale fault stub is included on purpose — faulty protocols must
  // transport as faithfully as correct ones.)
  for (const std::string& name : registered_protocols()) {
    const std::size_t readers = name == "algo-a" ? 1 : 2;  // Algorithm A is MWSR
    const FleetConfig fleet = make_fleet(name, 2, readers, 2, 2, 2);
    const History h = run_fleet_workload(fleet, 6, 4);
    EXPECT_EQ(h.completed_reads(), readers * 6u) << name;
    EXPECT_EQ(h.completed_writes(), 2u * 4u) << name;
  }
}

TEST(NetRuntime, ClientBeforeServersReconnectsWithBackoff) {
  SKIP_WITHOUT_TRANSPORT();
  const FleetConfig fleet = make_fleet("algo-b", 2, 1, 1, 2, 1);
  FleetProc client;
  client.build(fleet, fleet.client_index());
  client.rt->start();  // server is NOT up: connects fail, backoff kicks in
  std::this_thread::sleep_for(std::chrono::milliseconds(120));
  EXPECT_EQ(client.rt->transport_stats().frames_received, 0u);

  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();
  client.rt->wait_connected();  // resolves only via a successful retry

  WorkloadSpec spec;
  spec.ops_per_reader = 5;
  spec.ops_per_writer = 5;
  spec.read_span = 2;
  spec.write_span = 2;
  WorkloadDriver driver(*client.rt, *client.sys, spec);
  driver.start();
  driver.wait();
  EXPECT_EQ(client.rec->snapshot().completed_reads(), 5u);

  client.rt->broadcast_shutdown();
  server.rt->run_until_shutdown();  // the broadcast must reach the daemon path
  EXPECT_TRUE(server.rt->shutdown_requested());
  client.rt->stop();
  server.rt->stop();
}

TEST(NetRuntime, PostAfterPacesOpenLoopOverTcp) {
  SKIP_WITHOUT_TRANSPORT();
  const FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  std::vector<FleetProc> procs(2);
  procs[0].build(fleet, 0);
  procs[1].build(fleet, 1);
  procs[0].rt->start();
  procs[1].rt->start();
  procs[1].rt->wait_connected();

  WorkloadSpec spec;
  spec.read_span = 1;
  spec.write_span = 1;
  DriverOptions dopts;
  dopts.mode = ArrivalMode::kOpenLoop;
  dopts.total_ops = 40;
  dopts.arrival_interval_ns = 500'000;  // 0.5ms timerfd ticks
  dopts.read_fraction = 0.5;
  WorkloadDriver driver(*procs[1].rt, *procs[1].sys, spec, dopts);
  const auto t0 = std::chrono::steady_clock::now();
  driver.start();
  driver.wait();
  const auto wall = std::chrono::steady_clock::now() - t0;
  EXPECT_EQ(driver.completed_reads() + driver.completed_writes(), 40u);
  // 40 arrivals at 0.5ms spacing cannot complete faster than ~20ms of wall
  // clock: open-loop pacing really came from timers, not a burst.
  EXPECT_GE(std::chrono::duration_cast<std::chrono::milliseconds>(wall).count(), 15);
  const auto sojourn = driver.sojourn_latency();
  EXPECT_GT(sojourn.p50_ns, 0u);

  procs[1].rt->broadcast_shutdown();
  procs[0].rt->stop();
  procs[1].rt->stop();
}

TEST(NetRuntime, StatsCountFramesAndBytes) {
  SKIP_WITHOUT_TRANSPORT();
  const FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  std::vector<FleetProc> procs(2);
  procs[0].build(fleet, 0);
  procs[1].build(fleet, 1);
  procs[0].rt->start();
  procs[1].rt->start();
  procs[1].rt->wait_connected();
  WorkloadSpec spec;
  spec.ops_per_reader = 10;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  spec.write_span = 2;
  WorkloadDriver driver(*procs[1].rt, *procs[1].sys, spec);
  driver.start();
  driver.wait();
  const TransportStats client = procs[1].rt->transport_stats();
  const TransportStats server = procs[0].rt->transport_stats();
  // simple: every op fans out one request per object and gets one response.
  EXPECT_GT(server.frames_received, 0u);
  EXPECT_GT(client.frames_received, 0u);
  EXPECT_GE(client.frames_sent, server.frames_received);
  EXPECT_GT(client.bytes_sent, 0u);
  EXPECT_GT(client.bytes_received, 0u);
  EXPECT_EQ(client.reconnects, 0u);
  // Syscall-level accounting must reconcile with itself: every queued frame
  // either hit the wire or is still queued, sendmsg calls were counted, and
  // the per-thread wakeup vector matches the configured io_threads (1 here).
  EXPECT_GT(client.send_syscalls, 0u);
  EXPECT_GT(client.recv_syscalls, 0u);
  // frames_written counts every frame whose last byte hit the wire —
  // including the one HELLO per connection — while frames_sent counts only
  // queued MSG frames.  Quiesced (every response arrived), they reconcile
  // exactly: all sent frames were written, plus one HELLO per connection.
  EXPECT_GE(client.frames_written, client.frames_sent);
  EXPECT_LE(client.frames_written, client.frames_sent + 1 + client.reconnects);
  EXPECT_GT(client.mailbox_bursts, 0u);
  EXPECT_LE(client.mailbox_bursts, client.frames_received);
  ASSERT_EQ(client.epoll_wakeups.size(), 1u);
  EXPECT_GT(client.total_epoll_wakeups(), 0u);
  procs[1].rt->broadcast_shutdown();
  procs[0].rt->stop();
  procs[1].rt->stop();
}

TEST(NetRuntime, InboundFlowControlPausesAndResumes) {
  SKIP_WITHOUT_TRANSPORT();
  // A 1-byte inbound budget makes EVERY received frame trip the pause and
  // every drain resume it: the workload completing at all proves the
  // pause/resume cycle cannot livelock, and the counter proves it engaged.
  const FleetConfig fleet = make_fleet("algo-b", 2, 2, 2, 2, 1);
  std::vector<FleetProc> procs(2);
  for (std::size_t i = 0; i < procs.size(); ++i) {
    NetOptions opts = fleet.net_options(i);
    opts.transport.inbound_budget_bytes = 1;
    procs[i].rt = std::make_unique<NetRuntime>(opts);
    procs[i].rec = std::make_unique<HistoryRecorder>(fleet.system.num_objects);
    procs[i].sys = build_protocol(fleet.protocol, *procs[i].rt, *procs[i].rec, fleet.system,
                                  fleet.options);
  }
  procs[0].rt->start();
  procs[1].rt->start();
  procs[1].rt->wait_connected();
  WorkloadSpec spec;
  spec.ops_per_reader = 15;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  spec.write_span = 2;
  WorkloadDriver driver(*procs[1].rt, *procs[1].sys, spec);
  driver.start();
  driver.wait();
  EXPECT_EQ(driver.completed_reads(), 2u * 15u);
  EXPECT_GT(procs[0].rt->transport_stats().inbound_pauses, 0u);  // servers saw bursts
  procs[1].rt->broadcast_shutdown();
  procs[1].rt->stop();
  procs[0].rt->stop();
}

int raw_connect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool wait_closed(int fd, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
  std::uint8_t buf[16];
  return ::read(fd, buf, sizeof buf) <= 0;
}

/// Runs `ops` READs and `ops` WRITEs from a genuine client process against
/// the fleet's (already started) servers, then shuts the client down.
History run_client_workload(const FleetConfig& fleet, std::size_t ops) {
  FleetProc client;
  client.build(fleet, fleet.client_index());
  client.rt->start();
  client.rt->wait_connected();
  WorkloadSpec spec;
  spec.ops_per_reader = ops;
  spec.ops_per_writer = ops;
  spec.read_span = 2;
  spec.write_span = 2;
  WorkloadDriver driver(*client.rt, *client.sys, spec);
  driver.start();
  driver.wait();
  client.rt->broadcast_shutdown();
  client.rt->stop();
  return client.rec->snapshot();
}

/// The daemon survived whatever a test sent it: 5 READs and 5 WRITEs
/// complete and pass the tag-order check.
void expect_checked_workload(const FleetConfig& fleet) {
  const History h = run_client_workload(fleet, 5);
  EXPECT_EQ(h.completed_reads(), 5u);
  EXPECT_EQ(h.completed_writes(), 5u);
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(NetRuntime, MisroutedFrameDropsConnectionNotProcess) {
  SKIP_WITHOUT_TRANSPORT();
  // HELLO is unauthenticated (magic/version/index are public), so anything a
  // greeted socket sends is still untrusted input: a MSG frame addressed to
  // a node this process does not own must drop the CONNECTION, never abort
  // the process — otherwise one well-formed frame is a remote crash vector.
  const FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();

  // A node owned by the client process, as seen by the shared owner map.
  NodeId foreign = kInvalidNode;
  for (NodeId id = 0; id < 8; ++id) {
    if (!server.rt->owns(id)) {
      foreign = id;
      break;
    }
  }
  ASSERT_NE(foreign, kInvalidNode);

  // One connection per hostile variant; each must cost the attacker the
  // connection (FIN/RST) and nothing else.
  const auto attack = [&](const std::vector<std::uint8_t>& frames, const char* what) {
    const int fd = raw_connect(fleet.processes[0].port);
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> bytes;
    net::append_hello(bytes, 1);  // claims to be the client process — accepted
    bytes.insert(bytes.end(), frames.begin(), frames.end());
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
    EXPECT_TRUE(wait_closed(fd, 5000)) << what;
    ::close(fd);
  };

  // `to` not owned by this process.
  std::vector<std::uint8_t> misrouted;
  net::append_msg(misrouted, foreign, foreign,
                  Message{1, Payload{WriteValReq{WriteKey{0, 1}, {{0, 7}}}}});
  attack(misrouted, "server accepted a misrouted destination node");

  // `to` fine, but `from` names a node the claimed peer does not own:
  // replying to it would abort in send().  Node 0 is owned by the server
  // itself, never by the client the HELLO claims.
  std::vector<std::uint8_t> foreign_from;
  net::append_msg(foreign_from, 0, 0, Message{2, Payload{WriteValReq{WriteKey{0, 1}, {{0, 7}}}}});
  attack(foreign_from, "server accepted a foreign sender node");

  // Routing header fine, payload bytes garbage: the worker's
  // try_decode_message must reject it and request the link drop, not abort
  // in decode.  Hand-build the compact MSG frame: len uv, from uv, to uv
  // (all valid single-byte varints), then junk payload.
  NodeId from_node = kInvalidNode;
  for (NodeId id = 0; id < 8; ++id) {
    if (server.rt->owner_of(id) == 1) {
      from_node = id;
      break;
    }
  }
  ASSERT_NE(from_node, kInvalidNode);
  ASSERT_LT(from_node, 128u);  // single-byte varint below
  NodeId to_node = 0;
  ASSERT_TRUE(server.rt->owns(to_node));
  std::vector<std::uint8_t> junk = {0, static_cast<std::uint8_t>(from_node),
                                    static_cast<std::uint8_t>(to_node), 0x00, 0xFF};
  // payload = txn varint 0x00, payload index 0xFF (out of range)
  junk[0] = static_cast<std::uint8_t>(junk.size() - 1);
  attack(junk, "server survived but should also have dropped the junk-payload link");

  // And keep serving: a legitimate client fleet process still completes a
  // workload against the same server instance.
  EXPECT_EQ(run_client_workload(fleet, 5).completed_reads(), 5u);
  server.rt->stop();
}

TEST(NetRuntime, MalformedCoordinatorRequestsDoNotAbortTheDaemon) {
  SKIP_WITHOUT_TRANSPORT();
  // Frames that decode fine but carry hostile CONTENT for the coordinator:
  // update-coor write sets naming ids >= k (CoorList::push would abort on
  // them) and a get-tag-arr naming ids >= k (latest() would throw).  The
  // algo-b coordinator must drop the first without listing or acking them
  // and answer the second for its valid ids only.  Coordinator-only requests
  // sent to the OTHER server (update-coor, get-tag-arr, finalize-coor,
  // read-done) must be dropped with a warning, not abort it, and so must the
  // coordinator part of a finalize whose `coor` flag reaches it.  Both
  // servers must then still serve a real workload.
  const FleetConfig fleet = make_fleet("algo-b", 2, 1, 1, 2, 1);
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();
  // Servers 0-1 (coordinator 0) in process 0; reader 2 and writer 3 in the
  // client process whose HELLO the attacker presents.
  const NodeId coordinator = 0, other = 1, reader = 2, writer = 3;
  ASSERT_TRUE(server.rt->owns(coordinator));
  ASSERT_EQ(server.rt->owner_of(reader), fleet.client_index());
  ASSERT_EQ(server.rt->owner_of(writer), fleet.client_index());

  const int fd = raw_connect(fleet.processes[0].port);
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> bytes;
  net::append_hello(bytes, fleet.client_index());
  for (const std::vector<ObjectId>& objs :
       {std::vector<ObjectId>{2}, std::vector<ObjectId>{0, 70'000},
        std::vector<ObjectId>{4'000'000'000u}}) {
    net::append_msg(bytes, writer, coordinator,
                    Message{1, UpdateCoorReq{WriteKey{1, writer}, objs}});
  }
  net::append_msg(bytes, writer, other, Message{1, UpdateCoorReq{WriteKey{1, writer}, {0, 1}}});
  net::append_msg(bytes, reader, other, Message{1, GetTagArrReq{{0, 1}}});
  net::append_msg(bytes, writer, other, Message{1, FinalizeCoorReq{1}});
  net::append_msg(bytes, reader, other, Message{kInvalidTxn, ReadDoneReq{1}});
  // A valid write-val, then its finalize with the coordinator flag set: the
  // object part applies, the coordinator part is dropped.
  net::append_msg(bytes, writer, other, Message{1, WriteValReq{WriteKey{1, writer}, {{1, 5}}}});
  net::append_msg(bytes, writer, other,
                  Message{1, FinalizeReq{WriteKey{1, writer}, 1, 0, {1}, /*coor=*/true}});
  // A read-val-batch behind them: its answer proves the other server
  // consumed all of them (one link's frames are handled in order) and is
  // still alive.
  net::append_msg(bytes, reader, other, Message{1, ReadValBatchReq{0, {{1, kInitialKey}}}});
  net::append_msg(bytes, reader, coordinator, Message{1, GetTagArrReq{{1, 2, 70'000}}});
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));

  // The coordinator handles one link's frames in order, so the tag array
  // arriving proves every update-coor before it was consumed — and none of
  // them may have been acked.
  std::optional<GetTagArrResp> tag_arr;
  std::optional<ReadValBatchResp> read_val;
  net::FrameDecoder dec;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!(tag_arr && read_val) && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    std::uint8_t buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    ASSERT_GT(n, 0) << "the coordinator dropped a well-formed link";
    dec.feed(buf, static_cast<std::size_t>(n));
    net::Frame f;
    while (dec.next(f) == net::FrameDecoder::Status::kFrame) {
      if (f.type != net::FrameType::kMsg) continue;
      net::MsgHeader hdr;
      std::string err;
      ASSERT_TRUE(net::parse_msg_header(f.body, hdr, err)) << err;
      const Message m = net::decode_msg_payload(f.body, hdr.payload_offset);
      EXPECT_FALSE(std::holds_alternative<UpdateCoorAck>(m.payload))
          << "a malformed or misrouted update-coor was listed";
      if (const auto* ta = std::get_if<GetTagArrResp>(&m.payload)) {
        EXPECT_EQ(hdr.from, coordinator) << "a non-coordinator answered get-tag-arr";
        tag_arr = *ta;
      }
      if (const auto* rv = std::get_if<ReadValBatchResp>(&m.payload)) read_val = *rv;
    }
  }
  ::close(fd);
  ASSERT_TRUE(tag_arr.has_value()) << "no tag array from the coordinator";
  ASSERT_TRUE(read_val.has_value()) << "no read-val-batch answer from the other server";
  ASSERT_EQ(read_val->entries.size(), 1u);
  EXPECT_EQ(read_val->entries[0].key, kInitialKey);
  EXPECT_EQ(tag_arr->tag, 0u);  // nothing was listed
  ASSERT_EQ(tag_arr->entries.size(), 1u);
  EXPECT_EQ(tag_arr->entries[0].obj, 1u);
  EXPECT_EQ(tag_arr->entries[0].latest, kInitialKey);

  expect_checked_workload(fleet);
  server.rt->stop();
}

TEST(NetRuntime, ForeignPayloadsDoNotAbortTheDaemon) {
  SKIP_WITHOUT_TRANSPORT();
  // Frames that decode fine but that no algo-b reader sends: a
  // read-val-batch for a key the server never stored, simple's read and
  // 2PL's lock request, a read-vals-batch (algo-c's request) plain and with
  // a get-tag-arr folded in (which only the coordinator serves), a tag array
  // and a read-vals-batch-resp carrying one (replies), an eiger read, and a
  // read-val-batch and a write-val naming an object id >= k.  The server
  // must answer the first with found == false, serves both read-vals-batches
  // without a tag array, must drop the rest, and must then still serve a
  // real workload.
  const FleetConfig fleet = make_fleet("algo-b", 2, 1, 1, 2, 1);
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();
  const NodeId other = 1, reader = 2, writer = 3;  // server 1 is not the coordinator
  ASSERT_TRUE(server.rt->owns(other));
  ASSERT_EQ(server.rt->owner_of(reader), fleet.client_index());
  ASSERT_EQ(server.rt->owner_of(writer), fleet.client_index());

  const int fd = raw_connect(fleet.processes[0].port);
  ASSERT_GE(fd, 0);
  const WriteKey absent{42, 7};
  std::vector<std::uint8_t> bytes;
  net::append_hello(bytes, fleet.client_index());
  net::append_msg(bytes, reader, other, Message{1, ReadValBatchReq{0, {{1, absent}}}});
  net::append_msg(bytes, reader, other, Message{1, SimpleReadReq{1}});
  net::append_msg(bytes, reader, other, Message{1, LockReq{1, true}});
  net::append_msg(bytes, reader, other, Message{1, ReadValsBatchReq{0, {1}}});
  net::append_msg(bytes, reader, other,
                  Message{1, ReadValsBatchReq{0, {1}, GetTagArrReq{{0, 1}, 0}}});
  net::append_msg(bytes, reader, other, Message{1, GetTagArrResp{}});
  net::append_msg(bytes, reader, other,
                  Message{1, ReadValsBatchResp{{}, GetTagArrResp{3, 0, {}}}});
  net::append_msg(bytes, reader, other, Message{1, EigerReadReq{1, 3}});
  net::append_msg(bytes, reader, other,
                  Message{1, ReadValBatchReq{0, {{1, kInitialKey}, {2, kInitialKey}}}});
  net::append_msg(bytes, writer, other, Message{1, WriteValReq{absent, {{70'000, 5}}}});
  // A read-val-batch behind them: its answer proves the server consumed them
  // all (one link's frames are handled in order) and is still alive.
  net::append_msg(bytes, reader, other, Message{2, ReadValBatchReq{0, {{1, kInitialKey}}}});
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));

  std::vector<BatchReadResult> read_vals;
  int lists = 0;
  int others = 0;
  net::FrameDecoder dec;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (read_vals.size() < 2 && std::chrono::steady_clock::now() < deadline) {
    pollfd pfd{fd, POLLIN, 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    std::uint8_t buf[4096];
    const ssize_t n = ::read(fd, buf, sizeof buf);
    ASSERT_GT(n, 0) << "the server dropped a well-formed link";
    dec.feed(buf, static_cast<std::size_t>(n));
    net::Frame f;
    while (dec.next(f) == net::FrameDecoder::Status::kFrame) {
      if (f.type != net::FrameType::kMsg) continue;
      net::MsgHeader hdr;
      std::string err;
      ASSERT_TRUE(net::parse_msg_header(f.body, hdr, err)) << err;
      const Message m = net::decode_msg_payload(f.body, hdr.payload_offset);
      if (const auto* rv = std::get_if<ReadValBatchResp>(&m.payload)) {
        ASSERT_EQ(rv->entries.size(), 1u);
        read_vals.push_back(rv->entries[0]);
      } else if (const auto* lb = std::get_if<ReadValsBatchResp>(&m.payload)) {
        ++lists;
        EXPECT_FALSE(lb->tag_arr.has_value()) << "a non-coordinator answered get-tag-arr";
      } else {
        ++others;
      }
    }
  }
  ::close(fd);
  ASSERT_EQ(read_vals.size(), 2u) << "the server stopped answering";
  EXPECT_EQ(read_vals[0].key, absent);
  EXPECT_FALSE(read_vals[0].found);
  EXPECT_EQ(read_vals[1].key, kInitialKey);
  EXPECT_TRUE(read_vals[1].found);
  EXPECT_EQ(lists, 2);
  EXPECT_EQ(others, 0) << "the server answered a payload it does not serve";

  expect_checked_workload(fleet);
  server.rt->stop();
}

TEST(NetRuntime, OversizedHandshakeIsDropped) {
  SKIP_WITHOUT_TRANSPORT();
  // A pre-HELLO peer is untrusted: a valid-looking length prefix trickling
  // a large body must be cut off after a few hundred bytes, not allowed to
  // buffer up to the 16 MiB frame cap per squatting connection.
  const FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();

  const int fd = raw_connect(fleet.processes[0].port);
  ASSERT_GE(fd, 0);
  // The frozen HELLO layout: u32le len = 1000, the HELLO type byte, then an
  // incomplete body.
  std::vector<std::uint8_t> bytes = {0xE8, 0x03, 0x00, 0x00, 0x01};
  bytes.resize(bytes.size() + 600, 0x5A);
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  EXPECT_TRUE(wait_closed(fd, 5000)) << "server kept buffering an oversized handshake";
  ::close(fd);
  server.rt->stop();
}

TEST(NetRuntime, OlderWireVersionHelloLosesItsLink) {
  SKIP_WITHOUT_TRANSPORT();
  // A v7 peer greets in the same frozen HELLO layout, so the daemon reads
  // its version and refuses it by name instead of decoding its unshifted
  // envelope txns as other transactions.  The refusal costs that connection
  // only.
  const FleetConfig fleet = make_fleet("algo-b", 2, 1, 1, 2, 1);
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();

  const int fd = raw_connect(fleet.processes[0].port);
  ASSERT_GE(fd, 0);
  std::vector<std::uint8_t> bytes;
  net::append_hello(bytes, fleet.client_index());
  ASSERT_EQ(bytes[9], net::kWireVersion);  // after u32le len, type and magic
  bytes[9] = 7;
  // What a v7 client sends next: a compact MSG frame (len 14, from 2, to 0)
  // holding a read-done whose envelope is kInvalidTxn as a 10-byte varint,
  // which v8 would read as txn 2^64 - 2.
  bytes.insert(bytes.end(), {0x0E, 0x02, 0x00});
  bytes.insert(bytes.end(), 9, 0xFF);
  bytes.insert(bytes.end(), {0x01, 0x1D, 0x01});
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
  EXPECT_TRUE(wait_closed(fd, 5000)) << "server kept a link whose HELLO names wire v7";
  ::close(fd);
  EXPECT_FALSE(server.rt->shutdown_requested());

  expect_checked_workload(fleet);
  server.rt->stop();
}

TEST(NetRuntime, ZeroByteBeforeHelloDoesNotStopTheDaemon) {
  SKIP_WITHOUT_TRANSPORT();
  // After the HELLO a zero byte is a whole SHUTDOWN frame; before it, it is
  // the first byte of the HELLO's u32le length.  An unauthenticated
  // connection that sends one and hangs up must not stop the daemon, nor
  // may one that completes a zero length.
  const FleetConfig fleet = make_fleet("algo-b", 2, 1, 1, 2, 1);
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();

  for (const std::size_t zeros : {1u, 4u}) {
    const int fd = raw_connect(fleet.processes[0].port);
    ASSERT_GE(fd, 0);
    const std::vector<std::uint8_t> bytes(zeros, 0x00);
    ASSERT_EQ(::write(fd, bytes.data(), bytes.size()), static_cast<ssize_t>(bytes.size()));
    if (zeros == 4) EXPECT_TRUE(wait_closed(fd, 5000)) << "zero-length hello kept its link";
    ::close(fd);
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(server.rt->shutdown_requested()) << "a pre-HELLO zero byte stopped the daemon";

  expect_checked_workload(fleet);
  server.rt->stop();
}

TEST(NetRuntime, PendingHandshakeCapRefusesFloods) {
  SKIP_WITHOUT_TRANSPORT();
  // 72 silent connections: the first 64 squat in pre-HELLO slots (reaped by
  // the handshake deadline, too slow for this test), the last 8 must be
  // refused immediately instead of pinning more fds.
  const FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();

  std::vector<int> fds;
  for (int i = 0; i < 72; ++i) {
    const int fd = raw_connect(fleet.processes[0].port);
    ASSERT_GE(fd, 0) << "connect " << i;
    fds.push_back(fd);
  }
  // Refused connections close quickly; squatters stay open until the (5s)
  // handshake deadline, far past this poll.  Zero-timeout checks keep the
  // squatters free.
  int closed = 0;
  for (int spins = 0; spins < 100 && closed < 8; ++spins) {
    closed = 0;
    for (const int fd : fds) {
      if (wait_closed(fd, 0)) ++closed;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  // >= rather than ==: on a very slow/sanitized host the loop's wall time
  // can cross the 5s handshake-deadline reap, which closes the 64 squatters
  // too.  At least the 8 over-cap connections must have been refused.
  EXPECT_GE(closed, 8);
  for (const int fd : fds) ::close(fd);
  server.rt->stop();
}

TEST(NetRuntime, ShutdownReachesSlowStartingServer) {
  SKIP_WITHOUT_TRANSPORT();
  // broadcast_shutdown() + stop() against a server that only comes up a few
  // tens of ms later: the drain's never-connected sub-window (plus the
  // kick_connects_ redial and fast backoff) must still deliver the SHUTDOWN
  // instead of skipping the link as dead.
  const FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  FleetProc client;
  NetOptions copts = fleet.net_options(fleet.client_index());
  copts.transport.reconnect_initial_ns = 5'000'000;  // retry every 5-10ms
  copts.transport.reconnect_max_ns = 10'000'000;
  client.rt = std::make_unique<NetRuntime>(copts);
  client.rec = std::make_unique<HistoryRecorder>(fleet.system.num_objects);
  client.sys = build_protocol(fleet.protocol, *client.rt, *client.rec, fleet.system,
                              fleet.options);
  client.rt->start();  // server not up: the link never connects
  client.rt->broadcast_shutdown();
  std::thread stopper([&] { client.rt->stop(); });

  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();
  bool got = false;
  for (int i = 0; i < 200 && !got; ++i) {
    got = server.rt->shutdown_requested();
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  stopper.join();
  EXPECT_TRUE(got) << "slow-starting server never received the SHUTDOWN broadcast";
  server.rt->stop();
}

TEST(NetRuntime, StopDoesNotWaitOnNeverConnectedLinks) {
  SKIP_WITHOUT_TRANSPORT();
  // broadcast_shutdown queues SHUTDOWN frames on every link, including ones
  // whose peer daemon never came up; stop()'s bounded drain must not burn
  // its full window waiting on frames that can never flush.
  const FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  FleetProc client;
  client.build(fleet, fleet.client_index());
  client.rt->start();  // server process intentionally never started
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  client.rt->broadcast_shutdown();
  const auto t0 = std::chrono::steady_clock::now();
  client.rt->stop();
  const auto wall =
      std::chrono::duration_cast<std::chrono::milliseconds>(std::chrono::steady_clock::now() - t0);
  EXPECT_LT(wall.count(), 500) << "stop() drained against a never-connected link";
}

TEST(NetRuntime, MultiThreadIoRunsProtocolsAndSplitsLinks) {
  SKIP_WITHOUT_TRANSPORT();
  // io_threads=2 on every fleet process: with 3 server processes the client
  // homes its links on BOTH threads (0,2 -> thread 0; 1 -> thread 1), so
  // cross-thread handoff, per-thread timers and per-thread flushing all run
  // under a real protocol workload.  TSan runs this test too.
  FleetConfig fleet = make_fleet("algo-c", 4, 2, 2, 3, 3);
  fleet.transport.io_threads = 2;
  const History h = run_fleet_workload(fleet, 15, 8);
  EXPECT_EQ(h.completed_reads(), 2u * 15u);
  EXPECT_EQ(h.completed_writes(), 2u * 8u);
  const auto verdict = check_tag_order(h);
  EXPECT_TRUE(verdict.ok) << verdict.explanation;
}

TEST(NetRuntime, MultiThreadStatsReportPerThreadWakeups) {
  SKIP_WITHOUT_TRANSPORT();
  FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  fleet.transport.io_threads = 3;
  std::vector<FleetProc> procs(2);
  procs[0].build(fleet, 0);
  procs[1].build(fleet, 1);
  procs[0].rt->start();
  procs[1].rt->start();
  procs[1].rt->wait_connected();
  WorkloadSpec spec;
  spec.ops_per_reader = 10;
  spec.ops_per_writer = 10;
  spec.read_span = 2;
  spec.write_span = 2;
  WorkloadDriver driver(*procs[1].rt, *procs[1].sys, spec);
  driver.start();
  driver.wait();
  const TransportStats stats = procs[1].rt->transport_stats();
  ASSERT_EQ(stats.epoll_wakeups.size(), 3u);
  // The client's single link to the server homes on thread 0 % 3; that
  // thread must have seen traffic wakeups.
  EXPECT_GT(stats.total_epoll_wakeups(), 0u);
  EXPECT_GT(stats.frames_received, 0u);
  procs[1].rt->broadcast_shutdown();
  procs[0].rt->stop();
  procs[1].rt->stop();
}

TEST(NetRuntime, ReconnectStormUnderMultiThreadEpoll) {
  SKIP_WITHOUT_TRANSPORT();
  // Hostile displacement storm against a MULTI-THREAD server: every raw
  // connection claims (via the public HELLO) to be the client process and
  // displaces the previous impostor, hammering the thread0 -> home-thread
  // handoff path while the home thread is also adopting, closing and
  // re-registering fds.  The real client then connects LAST and must win the
  // link and complete a full workload.  Under TSan this is the data-race
  // probe for the handoff design.
  FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  fleet.transport.io_threads = 2;
  FleetProc server;
  server.build(fleet, 0);
  server.rt->start();

  std::vector<int> fds;
  for (int round = 0; round < 40; ++round) {
    const int fd = raw_connect(fleet.processes[0].port);
    ASSERT_GE(fd, 0);
    std::vector<std::uint8_t> hello;
    net::append_hello(hello, 1);  // impostor: claims to be fleet process 1
    ASSERT_EQ(::write(fd, hello.data(), hello.size()), static_cast<ssize_t>(hello.size()));
    fds.push_back(fd);
    if (fds.size() > 8) {  // keep a rolling window of live impostors
      ::close(fds.front());
      fds.erase(fds.begin());
    }
  }
  for (const int fd : fds) ::close(fd);

  // The genuine client dials after the storm; its connection displaces the
  // last impostor and the workload must complete.
  EXPECT_EQ(run_client_workload(fleet, 10).completed_reads(), 10u);
  EXPECT_GT(server.rt->transport_stats().reconnects, 0u);  // displacements counted
  server.rt->stop();
}

TEST(NetRuntime, TransportOptionsValidateFailFast) {
  // Pure validation (no sockets): every invalid field must throw a named
  // std::invalid_argument from every construction surface.
  TransportOptions t;
  t.io_threads = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = {};
  t.io_threads = 65;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = {};
  t.coalesce_max_frames = 0;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = {};
  t.coalesce_max_frames = 2048;  // above the IOV_MAX bound
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = {};
  t.read_chunk_bytes = 1024;  // below the 4096 floor
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = {};
  t.reconnect_max_ns = t.reconnect_initial_ns - 1;
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = {};
  t.max_pending_handshake_bytes = 16;  // too small to ever hold a HELLO
  EXPECT_THROW(t.validate(), std::invalid_argument);
  t = {};
  EXPECT_NO_THROW(t.validate());

  // The csv surface parses, applies and validates in one step...
  t.parse_csv("io_threads=4,coalesce_max_frames=128,reconnect_initial_ms=5");
  EXPECT_EQ(t.io_threads, 4u);
  EXPECT_EQ(t.coalesce_max_frames, 128u);
  EXPECT_EQ(t.reconnect_initial_ns, TimeNs{5'000'000});
  // ...and rejects unknown keys, bad grammar and invalid values by name.
  EXPECT_THROW(t.parse_csv("iothreads=2"), std::invalid_argument);
  EXPECT_THROW(t.parse_csv("io_threads"), std::invalid_argument);
  EXPECT_THROW(t.parse_csv("io_threads=-1"), std::invalid_argument);
  EXPECT_THROW(t.parse_csv("io_threads=0"), std::invalid_argument);

  // The NetRuntime constructor is a validation surface too: a bad transport
  // config must fail before any socket exists.
  if (net::transport_supported()) {
    FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
    NetOptions opts = fleet.net_options(0);
    opts.transport.io_threads = 0;
    EXPECT_THROW(NetRuntime{opts}, std::invalid_argument);
  }
}

TEST(NetRuntime, RefusesRemotePostAndForeignConfigs) {
  SKIP_WITHOUT_TRANSPORT();
  FleetConfig fleet = make_fleet("simple", 2, 1, 1, 2, 1);
  NetOptions opts = fleet.net_options(0);
  NetRuntime rt(opts);
  EXPECT_TRUE(rt.owns(0));
  EXPECT_FALSE(rt.owns(3));
  EXPECT_EQ(rt.owner_of(3), fleet.client_index());
  // Construction-time validation.
  NetOptions bad = fleet.net_options(0);
  bad.owner = nullptr;
  EXPECT_THROW(NetRuntime{bad}, std::runtime_error);
  NetOptions oob = fleet.net_options(0);
  oob.index = 99;
  EXPECT_THROW(NetRuntime{oob}, std::runtime_error);
}

}  // namespace
}  // namespace snowkit
