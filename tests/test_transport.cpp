/// Transport-seam tests: the TCP loopback backend against the in-process
/// reference.  Every endpoint of a "multi-process" team here is a thread of
/// THIS process running its own CaseRun over a real socket fabric — full
/// rendezvous, framing, heartbeats and collectives are exercised, while the
/// sanitizers can still see both sides of every exchange (fork would hide
/// the children from ASan/TSan).  True process isolation — SIGKILL and all —
/// is tests/test_net.cpp's job.
///
/// The acceptance bar is bitwise: for every covered case and precision,
/// the TCP team must reproduce the in-process team's state fingerprint AND
/// its per-step dt trajectory hash exactly.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "cases/runner.hpp"
#include "sim/comm.hpp"
#include "sim/transport.hpp"

namespace {

namespace fs = std::filesystem;
using namespace igr;

/// Fresh rendezvous directory per team (port files land here).
fs::path scratch_dir(const std::string& name) {
  const fs::path d = fs::temp_directory_path() / ("igr_transport_" + name);
  fs::remove_all(d);
  fs::create_directories(d);
  return d;
}

/// What one TCP team run produced: rank 0's full result plus every rank's
/// dt hash (the dt allreduce makes them identical by contract — asserting
/// that catches a rank silently diverging from the collective schedule).
struct TeamResult {
  cases::RunResult root{};
  std::vector<std::uint64_t> dt_fnv;
  std::vector<std::string> errors;  ///< One slot per rank; empty = clean.
};

template <class Policy>
TeamResult run_tcp_team(const cases::CaseSpec& spec,
                        const cases::RunOptions& base, int world,
                        const fs::path& dir) {
  TeamResult tr;
  tr.dt_fnv.assign(static_cast<std::size_t>(world), 0);
  tr.errors.assign(static_cast<std::size_t>(world), "");
  std::mutex mu;
  std::vector<std::thread> team;
  team.reserve(static_cast<std::size_t>(world));
  for (int r = 0; r < world; ++r) {
    team.emplace_back([&, r] {
      try {
        cases::RunOptions opts = base;
        opts.transport.kind = sim::TransportSpec::Kind::kTcp;
        opts.transport.world = world;
        opts.transport.rank = r;
        opts.transport.dir = dir.string();
        cases::CaseRun<Policy> run(spec, opts);
        const auto res = run.run();
        std::lock_guard<std::mutex> lock(mu);
        tr.dt_fnv[static_cast<std::size_t>(r)] = res.dt_fnv;
        if (r == 0) tr.root = res;
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(mu);
        tr.errors[static_cast<std::size_t>(r)] = e.what();
      }
    });
  }
  for (auto& t : team) t.join();
  return tr;
}

/// Run `opts` once in-process and once as a TCP team, assert bitwise
/// equality of the state fingerprint and the dt trajectory.
template <class Policy>
void expect_tcp_bitwise(const char* case_name, cases::RunOptions opts,
                        int world, const std::string& tag) {
  const auto* spec = cases::find(case_name);
  ASSERT_NE(spec, nullptr);
  opts.threads = 1;  // world x ranks threads already; don't oversubscribe
  opts.comm_timeout_s = 60.0;

  const auto ref = cases::run_case<Policy>(*spec, opts);
  const auto dir = scratch_dir(tag);
  const auto tcp = run_tcp_team<Policy>(*spec, opts, world, dir);
  for (int r = 0; r < world; ++r)
    EXPECT_EQ(tcp.errors[static_cast<std::size_t>(r)], "") << "rank " << r;

  EXPECT_EQ(tcp.root.steps, ref.steps);
  EXPECT_EQ(tcp.root.state_fnv, ref.state_fnv)
      << "tcp state diverged from inproc";
  EXPECT_EQ(tcp.root.dt_fnv, ref.dt_fnv) << "tcp dt trajectory diverged";
  // Every process of the team hashed the same dt sequence (allreduce).
  for (int r = 1; r < world; ++r)
    EXPECT_EQ(tcp.dt_fnv[static_cast<std::size_t>(r)], tcp.dt_fnv[0])
        << "rank " << r;
  fs::remove_all(dir);
}

// --- TransportSpec ---------------------------------------------------------

TEST(TransportSpec, KindParsesAndRejects) {
  EXPECT_EQ(sim::TransportSpec::parse_kind("inproc"),
            sim::TransportSpec::Kind::kInProc);
  EXPECT_EQ(sim::TransportSpec::parse_kind("tcp"),
            sim::TransportSpec::Kind::kTcp);
  EXPECT_THROW((void)sim::TransportSpec::parse_kind("rdma"),
               std::invalid_argument);
  sim::TransportSpec s;
  EXPECT_STREQ(s.kind_name(), "inproc");
  s.kind = sim::TransportSpec::Kind::kTcp;
  EXPECT_STREQ(s.kind_name(), "tcp");
}

// --- Raw fabric: publish/acquire, collectives, blobs, liveness -------------

sim::TransportSpec pair_spec(int rank, const fs::path& dir) {
  sim::TransportSpec s;
  s.kind = sim::TransportSpec::Kind::kTcp;
  s.world = 2;
  s.rank = rank;
  s.dir = dir.string();
  s.connect_timeout_s = 30.0;
  return s;
}

constexpr std::size_t kPairSlots = 3 * 3 * 2;  // channels x axes x world
constexpr sim::FrameCaps kPairCaps{1u << 20, 1u << 20};

TEST(TcpFabric, PublishAcquireCollectivesAndBlobs) {
  const auto dir = scratch_dir("fabric");
  // Rank 1's axis-0 slabs are read by rank 0; nothing else moves.
  std::array<std::vector<int>, 3> readers_of_1{{{0}, {}, {}}};
  std::array<std::vector<int>, 3> readers_of_0{{{}, {}, {}}};
  std::vector<std::string> errors(2);

  auto rank0 = [&] {
    try {
      auto t = sim::make_tcp_transport(pair_spec(0, dir), kPairSlots,
                                       readers_of_0, kPairCaps);
      t->set_wait_timeout(30.0);
      // slot(channel 0, axis 0, src 1) = (0*3+0)*2 + 1
      const unsigned char* p = t->acquire(1, 1, /*src_rank=*/1);
      ASSERT_NE(p, nullptr) << t->abort_reason();
      EXPECT_EQ(p[0], 0xABu);
      EXPECT_EQ(p[3], 0x04u);

      EXPECT_DOUBLE_EQ(t->allreduce_min(2.5), -1.0);
      EXPECT_DOUBLE_EQ(t->allreduce_sum(2.5), 1.5);
      t->barrier();
      const auto blob = t->recv_blob(1, /*tag=*/7);
      ASSERT_EQ(blob.size(), 3u);
      EXPECT_EQ(blob[2], 0x33u);
      t->barrier();
    } catch (const std::exception& e) {
      errors[0] = e.what();
    }
  };
  auto rank1 = [&] {
    try {
      auto t = sim::make_tcp_transport(pair_spec(1, dir), kPairSlots,
                                       readers_of_1, kPairCaps);
      t->set_wait_timeout(30.0);
      auto& buf = t->send_buffer(1);
      buf = {0xAB, 0x00, 0x00, 0x04};
      t->publish(1);

      EXPECT_DOUBLE_EQ(t->allreduce_min(-1.0), -1.0);
      EXPECT_DOUBLE_EQ(t->allreduce_sum(-1.0), 1.5);
      t->barrier();
      const unsigned char payload[3] = {0x11, 0x22, 0x33};
      t->send_blob(0, /*tag=*/7, payload, sizeof payload);
      t->barrier();
    } catch (const std::exception& e) {
      errors[1] = e.what();
    }
  };
  std::thread t1(rank1), t0(rank0);
  t0.join();
  t1.join();
  EXPECT_EQ(errors[0], "");
  EXPECT_EQ(errors[1], "");
  fs::remove_all(dir);
}

TEST(TcpFabric, WaitTimeoutLatchesAPreciseReason) {
  const auto dir = scratch_dir("timeout");
  std::array<std::vector<int>, 3> no_readers{{{}, {}, {}}};
  std::string reason;
  bool got_null = false;

  auto rank0 = [&] {
    auto t = sim::make_tcp_transport(pair_spec(0, dir), kPairSlots,
                                     no_readers, kPairCaps);
    t->set_wait_timeout(0.4);
    // Rank 1 is alive (heartbeating) but never publishes: the bounded wait
    // must expire with a reason naming the peer, not hang.
    const unsigned char* p = t->acquire(1, 1, /*src_rank=*/1);
    got_null = (p == nullptr);
    reason = t->abort_reason();
  };
  auto rank1 = [&] {
    auto t = sim::make_tcp_transport(pair_spec(1, dir), kPairSlots,
                                     no_readers, kPairCaps);
    // Stay alive until rank 0 has timed out (its abort poisons us too, via
    // the broadcast kAbort frame; destruction is then orderly).
    for (int i = 0; i < 100 && !t->aborted(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  std::thread t1(rank1), t0(rank0);
  t0.join();
  t1.join();
  EXPECT_TRUE(got_null);
  EXPECT_NE(reason.find("from rank 1 exceeded"), std::string::npos) << reason;
  fs::remove_all(dir);
}

TEST(TcpFabric, PeerGoodbyeDuringAWaitIsASchedulingError) {
  const auto dir = scratch_dir("goodbye");
  std::array<std::vector<int>, 3> no_readers{{{}, {}, {}}};
  std::string reason;

  auto rank0 = [&] {
    auto t = sim::make_tcp_transport(pair_spec(0, dir), kPairSlots,
                                     no_readers, kPairCaps);
    t->set_wait_timeout(30.0);
    t->barrier();
    // Rank 1 exits cleanly after the barrier; a wait on it must classify
    // the loss as an orderly-exit schedule mismatch, not a process death.
    (void)t->acquire(1, 1, /*src_rank=*/1);
    reason = t->abort_reason();
  };
  auto rank1 = [&] {
    auto t = sim::make_tcp_transport(pair_spec(1, dir), kPairSlots,
                                     no_readers, kPairCaps);
    t->set_wait_timeout(30.0);
    t->barrier();
    // Destructor sends the goodbye.
  };
  std::thread t1(rank1), t0(rank0);
  t0.join();
  t1.join();
  EXPECT_NE(reason.find("rank 1 exited before"), std::string::npos) << reason;
  fs::remove_all(dir);
}

TEST(TcpFabric, MissedHeartbeatsDeclareAWedgedPeerDead) {
  const auto dir = scratch_dir("liveness");
  std::array<std::vector<int>, 3> no_readers{{{}, {}, {}}};
  std::string reason;

  auto rank0 = [&] {
    auto spec = pair_spec(0, dir);
    spec.liveness_timeout_s = 0.4;  // declare silence fatal quickly
    auto t =
        sim::make_tcp_transport(spec, kPairSlots, no_readers, kPairCaps);
    t->set_wait_timeout(0.0);  // no wall bound: liveness must trigger alone
    (void)t->acquire(1, 1, /*src_rank=*/1);
    reason = t->abort_reason();
  };
  auto rank1 = [&] {
    auto spec = pair_spec(1, dir);
    spec.heartbeat_period_s = 3600.0;  // a wedged rank: alive but silent
    auto t =
        sim::make_tcp_transport(spec, kPairSlots, no_readers, kPairCaps);
    for (int i = 0; i < 200 && !t->aborted(); ++i)
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  std::thread t1(rank1), t0(rank0);
  t0.join();
  t1.join();
  EXPECT_NE(reason.find("missed heartbeats"), std::string::npos) << reason;
  fs::remove_all(dir);
}

TEST(TcpFabric, LastBlobSurvivesTeardownWithoutABarrier) {
  // Rank 1 sends one blob to the root and destroys its transport at once,
  // while the root's 1 ms heartbeats keep arriving.  Teardown must drain
  // them instead of resetting the connection, which would discard the
  // part of the blob still queued in rank 1's socket.
  std::array<std::vector<int>, 3> no_readers{{{}, {}, {}}};
  // Larger than the socket buffers, so that part of it is still queued at
  // rank 1 when its destructor runs.
  constexpr sim::FrameCaps kCaps{1u << 20, 16u << 20};
  std::vector<unsigned char> payload(kCaps.blob);
  for (std::size_t i = 0; i < payload.size(); ++i)
    payload[i] = static_cast<unsigned char>(i * 131 + 7);
  constexpr int kReps = 50;
  int delivered = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto dir = scratch_dir("teardown");
    std::string error;
    bool intact = false;
    std::thread t0([&] {
      try {
        auto spec = pair_spec(0, dir);
        spec.heartbeat_period_s = 0.001;
        auto t =
            sim::make_tcp_transport(spec, kPairSlots, no_readers, kCaps);
        t->set_wait_timeout(30.0);
        intact = t->recv_blob(1, /*tag=*/7) == payload;
      } catch (const std::exception& e) {
        error = e.what();
      }
    });
    std::thread t1([&] {
      try {
        auto spec = pair_spec(1, dir);
        spec.heartbeat_period_s = 0.001;
        auto t =
            sim::make_tcp_transport(spec, kPairSlots, no_readers, kCaps);
        // Compute for a while, so that heartbeats are in flight when this
        // endpoint tears down.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        t->send_blob(0, /*tag=*/7, payload.data(), payload.size());
      } catch (const std::exception&) {
        // Rank 0's error names what rank 1's sends lost.
      }
    });
    t0.join();
    t1.join();
    if (intact) ++delivered;
    EXPECT_EQ(error, "") << "repetition " << rep;
    fs::remove_all(dir);
  }
  EXPECT_EQ(delivered, kReps);
}

/// The 32-byte frame header of the tcp wire protocol (transport_tcp.cpp),
/// replicated so a test can speak the protocol as a misbehaving peer.
struct WireHeader {
  std::uint32_t magic;
  std::uint16_t kind;
  std::uint16_t a;
  std::uint16_t b;
  std::uint16_t src;
  std::uint32_t reserved;
  std::uint64_t seq;
  std::uint64_t len;
};
static_assert(sizeof(WireHeader) == 32, "wire header is 32 B");
constexpr std::uint32_t kWireMagic = 0x49475254u;
constexpr std::uint16_t kWireHello = 1;
constexpr std::uint16_t kWireHalo = 2;

/// Dial rank 0 of a 2-rank team in `dir` as rank 1 and send the hello;
/// returns the connected socket, or -1.
int dial_as_rank1(const fs::path& dir) {
  int port = -1;
  for (int i = 0; i < 3000 && port < 0; ++i) {
    std::ifstream in(dir / "port.0");
    if (!(in >> port)) {
      port = -1;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  if (port < 0) return -1;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  const WireHeader hello{kWireMagic, kWireHello, 1, 0, 1, 0, /*world=*/2, 0};
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::send(fd, &hello, sizeof hello, MSG_NOSIGNAL) != sizeof hello) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(TcpFabric, OversizedFrameLengthLatchesAReasonBeforeAllocating) {
  // A header with a valid magic but a 1 TiB length: the receive thread
  // must reject it against the halo cap instead of allocating.  Were a
  // bad_alloc to escape that thread, std::terminate would end this test.
  const auto dir = scratch_dir("oversize");
  std::array<std::vector<int>, 3> no_readers{{{}, {}, {}}};
  std::unique_ptr<sim::Transport> t;
  std::string error;
  std::thread rank0([&] {
    try {
      t = sim::make_tcp_transport(pair_spec(0, dir), kPairSlots, no_readers,
                                  kPairCaps);
    } catch (const std::exception& e) {
      error = e.what();
    }
  });
  const int fd = dial_as_rank1(dir);
  rank0.join();
  ASSERT_GE(fd, 0) << "could not dial rank 0";
  ASSERT_EQ(error, "");

  const std::uint64_t len = std::uint64_t{1} << 40;
  const WireHeader bad{kWireMagic, kWireHalo, 0, 0, 1, 0, 1, len};
  ASSERT_EQ(::send(fd, &bad, sizeof bad, MSG_NOSIGNAL),
            static_cast<ssize_t>(sizeof bad));
  for (int i = 0; i < 500 && !t->aborted(); ++i)
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  EXPECT_TRUE(t->aborted());
  const std::string why = t->abort_reason();
  EXPECT_NE(why.find("rank 1"), std::string::npos) << why;
  EXPECT_NE(why.find("kind 2"), std::string::npos) << why;
  EXPECT_NE(why.find(std::to_string(len) + " bytes"), std::string::npos)
      << why;

  // The send side refuses what the receive side would reject.
  const std::vector<unsigned char> big(kPairCaps.blob + 1);
  EXPECT_THROW(t->send_blob(1, /*tag=*/7, big.data(), big.size()),
               std::length_error);
  t.reset();
  ::close(fd);
  fs::remove_all(dir);
}

// --- Bitwise equivalence: TCP team vs in-process team ----------------------

TEST(TcpBitwise, SodXFp64) {
  cases::RunOptions opts;
  opts.n = 16;
  opts.steps = 10;
  opts.ranks = {2, 1, 1};
  expect_tcp_bitwise<common::Fp64>("sod-x", opts, 2, "sod");
}

TEST(TcpBitwise, TaylorGreenFp16x32) {
  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 8;
  opts.ranks = {2, 1, 1};
  expect_tcp_bitwise<common::Fp16x32>("taylor-green", opts, 2, "tg_fp16");
}

TEST(TcpBitwise, TaylorGreenBf16x32) {
  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 8;
  opts.ranks = {2, 1, 1};
  expect_tcp_bitwise<common::Bf16x32>("taylor-green", opts, 2, "tg_bf16");
}

TEST(TcpBitwise, TaylorGreenFourProcessPlane) {
  // A 2x2 plane: interior corners give every rank two exchange partners,
  // exercising multi-peer reader sets and the four-way collectives.
  cases::RunOptions opts;
  opts.n = 12;
  opts.steps = 6;
  opts.ranks = {2, 2, 1};
  opts.jacobi_sweeps = true;
  expect_tcp_bitwise<common::Fp64>("taylor-green", opts, 4, "tg_2x2");
}

}  // namespace
