/// \file transport_tcp.cpp
/// Loopback-socket transport: one OS process per rank.
///
/// Wire protocol: every message is a fixed 32-byte header followed by
/// `len` payload bytes (length-prefixed framing).  Loopback-only and both
/// ends are the same binary, so fields travel in native endianness.
///
/// Frame-length caps: `len` comes off the wire, so the receive thread
/// checks it against a per-kind cap *before* allocating the payload.  Each
/// cap is the longest frame a legitimate team member sends:
///   halo       FrameCaps::halo — the largest published slab of the
///              decomposition, every state component at 8 B (Comm derives
///              it);
///   blob       FrameCaps::blob — a whole rank block at the same width, at
///              least 1 GiB for trace fragments (send_blob refuses more);
///   control    8 B (one double of a reduction; barriers carry none);
///   abort      kMaxAbortReason bytes (longer reasons are truncated);
///   heartbeat, goodbye   0 B.
/// Any other kind (a hello after rendezvous included), or a longer frame,
/// latches an abort reason naming the peer, the kind and the length, and
/// ends that peer's receive thread.
///
/// Topology: a full mesh of TCP connections.  Rank r listens on an
/// ephemeral 127.0.0.1 port published as `<dir>/port.r` (atomic
/// temp+rename), dials every lower rank, and accepts every higher one; a
/// hello frame carries the dialer's identity.  One receive thread per peer
/// feeds per-slot halo inboxes and per-(peer,kind,tag) control queues; a
/// heartbeat thread beacons liveness so waits can tell a wedged peer from
/// a dead one.  Collectives run as a star through rank 0 over control
/// frames — exact for the dt min-reduction, since min is associative.
///
/// Failure semantics: a peer's socket closing without a goodbye frame, or
/// falling heartbeat-silent while awaited, latches a precise abort reason
/// and poisons the fabric (Transport::abort_exchanges), which also
/// broadcasts the reason to surviving peers so every process reports the
/// same root cause.  All waits are abort-aware and deadline-bounded:
/// process loss never deadlocks the survivors.

#include "sim/transport.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define IGR_HAVE_TCP_TRANSPORT 1
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <thread>

namespace igr::sim {

#ifdef IGR_HAVE_TCP_TRANSPORT

namespace {

using Clock = std::chrono::steady_clock;

double secs_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::string fmt_secs(double s) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f", s);
  return buf;
}

constexpr std::uint32_t kMagic = 0x49475254u;  // "IGRT"

enum FrameKind : std::uint16_t {
  kHello = 1,      ///< a = dialer rank redundantly; seq = world (validated)
  kHalo = 2,       ///< a = channel, b = axis, seq = slot epoch
  kBlob = 3,       ///< a = user tag (gather payloads)
  kCtl = 4,        ///< a = control tag (collectives)
  kHeartbeat = 5,  ///< liveness beacon, no payload
  kGoodbye = 6,    ///< orderly shutdown — EOF after this is benign
  kAbort = 7,      ///< payload = latched abort reason of the sender
};

/// Longest abort reason put on the wire (see the frame-length caps above).
constexpr std::size_t kMaxAbortReason = 4096;

enum CtlTag : std::uint16_t {
  kTagBarrier = 1,
  kTagBarrierAck = 2,
  kTagMin = 3,
  kTagMinAck = 4,
  kTagSum = 5,
  kTagSumAck = 6,
};

struct FrameHeader {
  std::uint32_t magic;
  std::uint16_t kind;
  std::uint16_t a;  // halo: channel; blob/ctl: tag
  std::uint16_t b;  // halo: axis
  std::uint16_t src;
  std::uint32_t reserved;
  std::uint64_t seq;
  std::uint64_t len;
};
static_assert(sizeof(FrameHeader) == 32, "frame header must pack to 32 B");

bool send_all(int fd, const void* p, std::size_t n) {
  const char* c = static_cast<const char*>(p);
  while (n > 0) {
    // MSG_NOSIGNAL: a dead peer must surface as EPIPE, not kill the
    // process with SIGPIPE.
    const ssize_t w = ::send(fd, c, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    c += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

bool recv_all(int fd, void* p, std::size_t n) {
  char* c = static_cast<char*>(p);
  while (n > 0) {
    const ssize_t r = ::recv(fd, c, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;  // EOF
    c += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

class TcpTransport final : public Transport {
 public:
  TcpTransport(const TransportSpec& spec, std::size_t nslots,
               const std::array<std::vector<int>, 3>& readers,
               const FrameCaps& caps)
      : Transport(nslots),
        world_(spec.world),
        rank_(spec.rank),
        readers_(readers),
        caps_(caps),
        hb_period_s_(spec.heartbeat_period_s),
        liveness_s_(spec.liveness_timeout_s) {
    if (world_ < 1 || rank_ < 0 || rank_ >= world_)
      throw TransportError("tcp transport: rank " + std::to_string(rank_) +
                           " outside world of " + std::to_string(world_));
    buffers_.resize(nslots);
    inbox_.resize(nslots);
    counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(nslots);
    for (std::size_t s = 0; s < nslots; ++s) counts_[s].store(0);
    fds_.assign(static_cast<std::size_t>(world_), -1);
    state_.assign(static_cast<std::size_t>(world_), kAlive);
    last_heard_.assign(static_cast<std::size_t>(world_), Clock::now());
    send_mu_ = std::make_unique<std::mutex[]>(
        static_cast<std::size_t>(world_));
    try {
      rendezvous(spec);
    } catch (...) {
      close_sockets();
      throw;
    }
    const auto now = Clock::now();
    for (auto& t : last_heard_) t = now;
    recv_live_ = world_ - 1;
    for (int p = 0; p < world_; ++p) {
      if (p == rank_) continue;
      recv_threads_.emplace_back([this, p] {
        recv_main(p);
        std::lock_guard<std::mutex> lock(mu_);
        --recv_live_;
        cv_.notify_all();
      });
    }
    if (world_ > 1 && hb_period_s_ > 0.0)
      hb_thread_ = std::thread([this] { hb_main(); });
  }

  ~TcpTransport() override {
    shutting_down_.store(true, std::memory_order_relaxed);
    if (hb_thread_.joinable()) {
      {
        std::lock_guard<std::mutex> lock(hb_mu_);
        hb_stop_ = true;
      }
      hb_cv_.notify_all();
      hb_thread_.join();
    }
    // Goodbye, then close only our write side: TCP delivers the goodbye
    // and everything queued before it (a last gather blob included) ahead
    // of the FIN.  Closing the read side too would make a frame the peer
    // still sends (a heartbeat) reset the connection, and the reset
    // discards whatever this end had not transmitted yet.  So the receive
    // threads keep draining until each peer's own goodbye and EOF, bounded
    // by the liveness timeout; a peer that stays silent past it gets its
    // read side shut, which wakes the blocked receive.
    for (int p = 0; p < world_; ++p) {
      if (p == rank_ || fds_[static_cast<std::size_t>(p)] < 0) continue;
      send_frame(p, kGoodbye, 0, 0, 0, nullptr, 0);
      ::shutdown(fds_[static_cast<std::size_t>(p)], SHUT_WR);
    }
    if (liveness_s_ > 0.0) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, std::chrono::duration<double>(liveness_s_),
                   [&] { return recv_live_ == 0; });
    }
    for (int p = 0; p < world_; ++p) {
      if (p != rank_ && fds_[static_cast<std::size_t>(p)] >= 0)
        ::shutdown(fds_[static_cast<std::size_t>(p)], SHUT_RD);
    }
    for (auto& t : recv_threads_) t.join();
    close_sockets();
  }

  [[nodiscard]] const char* name() const override { return "tcp"; }
  [[nodiscard]] int local_rank() const override { return rank_; }

  [[nodiscard]] std::vector<unsigned char>& send_buffer(
      std::size_t slot) override {
    return buffers_[slot];
  }

  void publish(std::size_t slot) override {
    // slot = (channel*3 + axis)*world + rank — Comm's encoding.
    const int src = static_cast<int>(slot % static_cast<std::size_t>(world_));
    const auto ca = slot / static_cast<std::size_t>(world_);
    const int axis = static_cast<int>(ca % 3);
    const int channel = static_cast<int>(ca / 3);
    if (src != rank_)
      throw std::logic_error(
          "TcpTransport: a process may only publish its own rank's slots");
    const std::uint64_t seq =
        counts_[slot].fetch_add(1, std::memory_order_relaxed) + 1;
    const auto& buf = buffers_[slot];
    for (const int peer : readers_[static_cast<std::size_t>(axis)]) {
      if (peer == rank_) continue;  // self-reads use the local buffer
      if (!send_frame(peer, kHalo, static_cast<std::uint16_t>(channel),
                      static_cast<std::uint16_t>(axis), seq, buf.data(),
                      buf.size()) &&
          !shutting_down_.load(std::memory_order_relaxed)) {
        abort_exchanges("halo send to rank " + std::to_string(peer) +
                        " failed (connection lost)");
      }
    }
  }

  [[nodiscard]] std::uint64_t posted_epoch(std::size_t slot) const override {
    return counts_[slot].load(std::memory_order_relaxed);
  }

  [[nodiscard]] const unsigned char* acquire(std::size_t slot,
                                             std::uint64_t target,
                                             int src_rank) override {
    if (src_rank == rank_) return buffers_[slot].data();
    std::unique_lock<std::mutex> lk(mu_);
    auto& box = inbox_[slot];
    const std::string why = wait_locked(
        lk, src_rank, "halo data", [&] {
          // Targets are monotone per slot, so entries below the target are
          // dead epochs from already-unpacked exchanges; dropping them here
          // keeps the matched entry alive (and its pointer stable) until a
          // later acquire advances past it.
          while (!box.empty() && box.front().seq < target) box.pop_front();
          return !box.empty();
        });
    if (!why.empty()) {
      lk.unlock();
      abort_exchanges(why);
      return nullptr;
    }
    if (box.front().seq != target) {
      lk.unlock();
      abort_exchanges("halo stream from rank " + std::to_string(src_rank) +
                      " desynchronized (got epoch " +
                      std::to_string(box.front().seq) + ", wanted " +
                      std::to_string(target) + ")");
      return nullptr;
    }
    return box.front().data.data();
  }

  [[nodiscard]] double allreduce_min(double local) override {
    return reduce(local, kTagMin, kTagMinAck,
                  [](double a, double b) { return a < b ? a : b; });
  }
  [[nodiscard]] double allreduce_sum(double local) override {
    return reduce(local, kTagSum, kTagSumAck,
                  [](double a, double b) { return a + b; });
  }

  void barrier() override {
    if (world_ == 1) return;
    if (rank_ != 0) {
      ctl_send(0, kTagBarrier, nullptr, 0);
      (void)ctl_wait(0, kCtl, kTagBarrierAck, "barrier release");
      return;
    }
    for (int p = 1; p < world_; ++p)
      (void)ctl_wait(p, kCtl, kTagBarrier, "barrier arrival");
    for (int p = 1; p < world_; ++p) ctl_send(p, kTagBarrierAck, nullptr, 0);
  }

  void send_blob(int peer, int tag, const unsigned char* data,
                 std::size_t n) override {
    if (n > caps_.blob) {
      // The receiver would reject the frame; fail here, and poison the
      // fabric so the receiver does not wait for it.
      const std::string why = "blob of " + std::to_string(n) +
                              " bytes to rank " + std::to_string(peer) +
                              " exceeds the team's frame cap of " +
                              std::to_string(caps_.blob);
      abort_exchanges(why);
      throw std::length_error("TcpTransport: " + why);
    }
    if (!send_frame(peer, kBlob, static_cast<std::uint16_t>(tag), 0, 0, data,
                    n)) {
      const std::string why = "blob send to rank " + std::to_string(peer) +
                              " failed (connection lost)";
      abort_exchanges(why);
      throw TransportError(why);
    }
  }

  [[nodiscard]] std::vector<unsigned char> recv_blob(int peer,
                                                     int tag) override {
    return ctl_wait(peer, kBlob, static_cast<std::uint16_t>(tag), "blob");
  }

  [[nodiscard]] TransportStats stats() const override {
    TransportStats s;
    s.frames_sent = frames_sent_.load(std::memory_order_relaxed);
    s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
    s.frames_received = frames_recv_.load(std::memory_order_relaxed);
    s.bytes_received = bytes_recv_.load(std::memory_order_relaxed);
    s.heartbeats_sent = heartbeats_sent_.load(std::memory_order_relaxed);
    return s;
  }

 protected:
  void on_abort() override {
    cv_.notify_all();
    // Tell the survivors *why* (best effort): without this, a rank that
    // aborted on an injected fault just disappears and its peers can only
    // report the socket close.  First abort wins; re-entry from a failing
    // notification send is cut off by the flag.
    if (abort_notified_.exchange(true)) return;
    const std::string reason = abort_reason().substr(0, kMaxAbortReason);
    for (int p = 0; p < world_; ++p) {
      if (p == rank_ || fds_[static_cast<std::size_t>(p)] < 0) continue;
      send_frame(p, kAbort, 0, 0, 0,
                 reinterpret_cast<const unsigned char*>(reason.data()),
                 reason.size());
    }
  }

 private:
  enum PeerState : unsigned char { kAlive, kDone, kDead };

  struct Entry {
    std::uint64_t seq;
    std::vector<unsigned char> data;
  };

  static std::uint64_t ctl_key(int src, std::uint16_t kind,
                               std::uint16_t tag) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(src))
            << 32) |
           (static_cast<std::uint64_t>(kind) << 16) | tag;
  }

  // --- rendezvous -------------------------------------------------------

  void rendezvous(const TransportSpec& spec) {
    if (spec.dir.empty())
      throw TransportError("tcp transport: rendezvous directory not set");
    ::mkdir(spec.dir.c_str(), 0777);  // fine if it already exists
    const auto deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               spec.connect_timeout_s > 0.0
                                   ? spec.connect_timeout_s
                                   : 30.0));

    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ < 0)
      throw TransportError("tcp transport: socket() failed: " +
                           std::string(std::strerror(errno)));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;  // ephemeral
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof addr) != 0 ||
        ::listen(listen_fd_, world_) != 0)
      throw TransportError("tcp transport: bind/listen failed: " +
                           std::string(std::strerror(errno)));
    socklen_t alen = sizeof addr;
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                      &alen) != 0)
      throw TransportError("tcp transport: getsockname failed");
    write_port_file(spec.dir, ntohs(addr.sin_port));

    // Dial every lower rank; accept every higher one (one connection per
    // unordered pair).
    for (int p = 0; p < rank_; ++p) dial(spec.dir, p, deadline);
    for (int n = rank_ + 1; n < world_; ++n) accept_one(deadline);
    for (int p = 0; p < world_; ++p) {
      if (p != rank_ && fds_[static_cast<std::size_t>(p)] < 0)
        throw TransportError("tcp transport: rendezvous incomplete (rank " +
                             std::to_string(p) + " never connected)");
    }
  }

  void write_port_file(const std::string& dir, int port) const {
    const std::string path = dir + "/port." + std::to_string(rank_);
    const std::string tmp = path + ".tmp";
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (!f)
      throw TransportError("tcp transport: cannot write " + tmp + ": " +
                           std::strerror(errno));
    std::fprintf(f, "%d\n", port);
    std::fclose(f);
    if (std::rename(tmp.c_str(), path.c_str()) != 0)
      throw TransportError("tcp transport: cannot publish " + path);
  }

  void dial(const std::string& dir, int peer, Clock::time_point deadline) {
    const std::string path = dir + "/port." + std::to_string(peer);
    int port = -1;
    while (port < 0) {
      if (std::FILE* f = std::fopen(path.c_str(), "rb")) {
        if (std::fscanf(f, "%d", &port) != 1) port = -1;
        std::fclose(f);
      }
      if (port < 0) {
        if (Clock::now() >= deadline)
          throw TransportError("tcp transport: rank " + std::to_string(peer) +
                               " never published its port (rendezvous "
                               "timeout — did its process start?)");
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    }
    for (;;) {
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0)
        throw TransportError("tcp transport: socket() failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(port));
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) ==
          0) {
        setup_socket(fd);
        FrameHeader hello{kMagic,
                          kHello,
                          static_cast<std::uint16_t>(rank_),
                          0,
                          static_cast<std::uint16_t>(rank_),
                          0,
                          static_cast<std::uint64_t>(world_),
                          0};
        if (!send_all(fd, &hello, sizeof hello)) {
          ::close(fd);
          throw TransportError("tcp transport: hello to rank " +
                               std::to_string(peer) + " failed");
        }
        fds_[static_cast<std::size_t>(peer)] = fd;
        return;
      }
      ::close(fd);
      if (Clock::now() >= deadline)
        throw TransportError("tcp transport: cannot connect to rank " +
                             std::to_string(peer) + " on port " +
                             std::to_string(port) + " (rendezvous timeout)");
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  void accept_one(Clock::time_point deadline) {
    for (;;) {
      pollfd pfd{listen_fd_, POLLIN, 0};
      const int rc = ::poll(&pfd, 1, 100);
      if (rc > 0) break;
      if (Clock::now() >= deadline)
        throw TransportError(
            "tcp transport: rendezvous timeout waiting for a higher rank "
            "to dial in");
    }
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0)
      throw TransportError("tcp transport: accept failed: " +
                           std::string(std::strerror(errno)));
    setup_socket(fd);
    FrameHeader hello{};
    if (!recv_all(fd, &hello, sizeof hello) || hello.magic != kMagic ||
        hello.kind != kHello ||
        hello.seq != static_cast<std::uint64_t>(world_)) {
      ::close(fd);
      throw TransportError(
          "tcp transport: malformed hello (world-size mismatch or foreign "
          "dialer)");
    }
    const int peer = hello.src;
    if (peer <= rank_ || peer >= world_ ||
        fds_[static_cast<std::size_t>(peer)] >= 0) {
      ::close(fd);
      throw TransportError("tcp transport: unexpected hello from rank " +
                           std::to_string(peer));
    }
    fds_[static_cast<std::size_t>(peer)] = fd;
  }

  static void setup_socket(int fd) {
    // Halo frames are small and latency-bound; never wait on Nagle.
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }

  void close_sockets() {
    for (auto& fd : fds_) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
  }

  // --- data plane -------------------------------------------------------

  bool send_frame(int peer, std::uint16_t kind, std::uint16_t a,
                  std::uint16_t b, std::uint64_t seq,
                  const unsigned char* data, std::size_t len) {
    const int fd = fds_[static_cast<std::size_t>(peer)];
    if (fd < 0) return false;
    FrameHeader h{kMagic,
                  kind,
                  a,
                  b,
                  static_cast<std::uint16_t>(rank_),
                  0,
                  seq,
                  static_cast<std::uint64_t>(len)};
    // One mutex per peer: frames from different threads (worker, heartbeat,
    // collectives) must not interleave on the stream.
    std::lock_guard<std::mutex> lock(send_mu_[static_cast<std::size_t>(peer)]);
    const bool ok =
        send_all(fd, &h, sizeof h) && (len == 0 || send_all(fd, data, len));
    if (ok) {
      frames_sent_.fetch_add(1, std::memory_order_relaxed);
      bytes_sent_.fetch_add(sizeof h + len, std::memory_order_relaxed);
    }
    return ok;
  }

  void ctl_send(int peer, std::uint16_t tag, const unsigned char* data,
                std::size_t len) {
    if (!send_frame(peer, kCtl, tag, 0, 0, data, len)) {
      const std::string why = "control send to rank " + std::to_string(peer) +
                              " failed (connection lost)";
      abort_exchanges(why);
      throw TransportError(why);
    }
  }

  /// Star reduction through rank 0 — every rank contributes one double and
  /// receives the combined value.
  template <class Op>
  double reduce(double local, std::uint16_t tag, std::uint16_t ack, Op op) {
    if (world_ == 1) return local;
    unsigned char bits[sizeof(double)];
    if (rank_ != 0) {
      std::memcpy(bits, &local, sizeof local);
      ctl_send(0, tag, bits, sizeof bits);
      const auto v = ctl_wait(0, kCtl, ack, "reduction result");
      double out;
      std::memcpy(&out, v.data(), sizeof out);
      return out;
    }
    double acc = local;
    for (int p = 1; p < world_; ++p) {
      const auto v = ctl_wait(p, kCtl, tag, "reduction contribution");
      double x;
      std::memcpy(&x, v.data(), sizeof x);
      acc = op(acc, x);
    }
    std::memcpy(bits, &acc, sizeof acc);
    for (int p = 1; p < world_; ++p) ctl_send(p, ack, bits, sizeof bits);
    return acc;
  }

  /// Pop the next queued (src, kind, tag) payload, waiting abort-aware;
  /// throws TransportError (reason latched) on abort, peer loss, or
  /// timeout.
  std::vector<unsigned char> ctl_wait(int src, std::uint16_t kind,
                                      std::uint16_t tag, const char* what) {
    std::unique_lock<std::mutex> lk(mu_);
    const auto key = ctl_key(src, kind, tag);
    const std::string why = wait_locked(lk, src, what, [&] {
      const auto it = ctl_.find(key);
      return it != ctl_.end() && !it->second.empty();
    });
    if (!why.empty()) {
      lk.unlock();
      abort_exchanges(why);
      throw TransportError(why);
    }
    auto& q = ctl_.find(key)->second;
    std::vector<unsigned char> out = std::move(q.front());
    q.pop_front();
    return out;
  }

  /// Wait under mu_ until `ready()`; empty string on success, else the
  /// failure reason (abort / dead peer / heartbeat silence / timeout).
  template <class Ready>
  std::string wait_locked(std::unique_lock<std::mutex>& lk, int src,
                          const char* what, Ready ready) {
    const double bound = wait_timeout_s_.load(std::memory_order_relaxed);
    const auto start = Clock::now();
    for (;;) {
      if (ready()) return {};
      if (abort_.load(std::memory_order_relaxed)) {
        std::string r = abort_reason();
        return r.empty() ? std::string("fabric aborted while ") + what +
                               " from rank " + std::to_string(src) +
                               " was awaited"
                         : r;
      }
      const auto now = Clock::now();
      const double heard =
          secs_between(last_heard_[static_cast<std::size_t>(src)], now);
      const PeerState st = state_[static_cast<std::size_t>(src)];
      if (st == kDead)
        return "rank " + std::to_string(src) + " connection lost while " +
               what + " was awaited (process died)";
      if (st == kDone)
        return "rank " + std::to_string(src) + " exited before " + what +
               " was satisfied (schedule mismatch or early shutdown)";
      if (liveness_s_ > 0.0 && heard > liveness_s_)
        return "rank " + std::to_string(src) + " missed heartbeats for " +
               fmt_secs(heard) + "s while " + what +
               " was awaited — declared dead (wedged or stopped)";
      if (bound > 0.0 && secs_between(start, now) > bound)
        return std::string("wait for ") + what + " from rank " +
               std::to_string(src) + " exceeded " + fmt_secs(bound) +
               "s (peer last heard " + fmt_secs(heard) + "s ago)";
      cv_.wait_for(lk, std::chrono::milliseconds(50));
    }
  }

  void recv_main(int peer) {
    const int fd = fds_[static_cast<std::size_t>(peer)];
    for (;;) {
      FrameHeader h;
      if (!recv_all(fd, &h, sizeof h)) {
        on_disconnect(peer);
        return;
      }
      if (h.magic != kMagic || h.src != static_cast<std::uint16_t>(peer)) {
        abort_exchanges("tcp transport: corrupt frame from rank " +
                        std::to_string(peer));
        return;
      }
      const std::uint64_t cap = frame_cap(h.kind);
      if (cap == kUnknownKind || h.len > cap) {
        abort_exchanges(
            "tcp transport: rank " + std::to_string(peer) +
            " sent a frame of kind " + std::to_string(h.kind) + " and " +
            std::to_string(h.len) + " bytes (" +
            (cap == kUnknownKind ? std::string("unknown kind")
                                 : "cap " + std::to_string(cap)) +
            ")");
        return;
      }
      std::vector<unsigned char> payload(static_cast<std::size_t>(h.len));
      if (h.len != 0 && !recv_all(fd, payload.data(), payload.size())) {
        on_disconnect(peer);
        return;
      }
      frames_recv_.fetch_add(1, std::memory_order_relaxed);
      bytes_recv_.fetch_add(sizeof h + static_cast<std::size_t>(h.len),
                            std::memory_order_relaxed);
      if (h.kind == kAbort) {
        abort_exchanges("rank " + std::to_string(peer) + " aborted: " +
                        std::string(payload.begin(), payload.end()));
        continue;  // keep draining so the peer's unwind is not blocked
      }
      std::unique_lock<std::mutex> lk(mu_);
      last_heard_[static_cast<std::size_t>(peer)] = Clock::now();
      switch (h.kind) {
        case kHalo: {
          const std::size_t slot =
              (static_cast<std::size_t>(h.a) * 3 + h.b) *
                  static_cast<std::size_t>(world_) +
              static_cast<std::size_t>(peer);
          if (slot >= nslots_) {
            lk.unlock();
            abort_exchanges("tcp transport: halo frame for slot out of "
                            "range from rank " +
                            std::to_string(peer));
            return;
          }
          inbox_[slot].push_back(Entry{h.seq, std::move(payload)});
          break;
        }
        case kBlob:
        case kCtl:
          ctl_[ctl_key(peer, h.kind, h.a)].push_back(std::move(payload));
          break;
        case kHeartbeat:
          break;  // last_heard_ refresh is the whole message
        case kGoodbye:
          state_[static_cast<std::size_t>(peer)] = kDone;
          break;
        default:
          break;  // unreachable: frame_cap() rejected every other kind
      }
      lk.unlock();
      cv_.notify_all();
    }
  }

  static constexpr std::uint64_t kUnknownKind = ~std::uint64_t{0};

  /// Longest legitimate payload of a frame kind the receive loop accepts,
  /// or kUnknownKind (see the frame-length caps in the file comment).
  [[nodiscard]] std::uint64_t frame_cap(std::uint16_t kind) const {
    switch (kind) {
      case kHalo:
        return caps_.halo;
      case kBlob:
        return caps_.blob;
      case kCtl:
        return sizeof(double);
      case kAbort:
        return kMaxAbortReason;
      case kHeartbeat:
      case kGoodbye:
        return 0;
      default:
        return kUnknownKind;
    }
  }

  void on_disconnect(int peer) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (shutting_down_.load(std::memory_order_relaxed) ||
          state_[static_cast<std::size_t>(peer)] != kAlive) {
        // Orderly: goodbye already seen, or we are tearing down ourselves.
        cv_.notify_all();
        return;
      }
      state_[static_cast<std::size_t>(peer)] = kDead;
    }
    abort_exchanges("rank " + std::to_string(peer) +
                    " connection lost without a goodbye (process killed or "
                    "crashed)");
    cv_.notify_all();
  }

  void hb_main() {
    std::unique_lock<std::mutex> lk(hb_mu_);
    while (!hb_stop_) {
      hb_cv_.wait_for(lk, std::chrono::duration<double>(hb_period_s_));
      if (hb_stop_) break;
      lk.unlock();
      for (int p = 0; p < world_; ++p) {
        if (p != rank_ && send_frame(p, kHeartbeat, 0, 0, 0, nullptr, 0))
          heartbeats_sent_.fetch_add(1, std::memory_order_relaxed);
      }
      lk.lock();
    }
  }

  const int world_;
  const int rank_;
  const std::array<std::vector<int>, 3> readers_;
  const FrameCaps caps_;
  const double hb_period_s_;
  const double liveness_s_;

  int listen_fd_ = -1;
  std::vector<int> fds_;  // per-rank connection (self = -1)
  std::unique_ptr<std::mutex[]> send_mu_;
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> abort_notified_{false};

  // Local send buffers + per-slot post counts (the posted-epoch view).
  std::vector<std::vector<unsigned char>> buffers_;
  std::unique_ptr<std::atomic<std::uint64_t>[]> counts_;

  // Wire statistics (see Transport::stats); counters ride the frame paths
  // every message already funnels through.
  std::atomic<std::uint64_t> frames_sent_{0};
  std::atomic<std::uint64_t> bytes_sent_{0};
  std::atomic<std::uint64_t> frames_recv_{0};
  std::atomic<std::uint64_t> bytes_recv_{0};
  std::atomic<std::uint64_t> heartbeats_sent_{0};

  // Receive side (all under mu_).
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::deque<Entry>> inbox_;  // per-slot halo entries, seq-sorted
  std::map<std::uint64_t, std::deque<std::vector<unsigned char>>> ctl_;
  std::vector<PeerState> state_;
  std::vector<Clock::time_point> last_heard_;
  int recv_live_ = 0;  ///< receive threads still running

  std::vector<std::thread> recv_threads_;
  std::thread hb_thread_;
  std::mutex hb_mu_;
  std::condition_variable hb_cv_;
  bool hb_stop_ = false;
};

}  // namespace

std::unique_ptr<Transport> make_tcp_transport(
    const TransportSpec& spec, std::size_t nslots,
    const std::array<std::vector<int>, 3>& readers, const FrameCaps& caps) {
  return std::make_unique<TcpTransport>(spec, nslots, readers, caps);
}

#else  // !IGR_HAVE_TCP_TRANSPORT

std::unique_ptr<Transport> make_tcp_transport(
    const TransportSpec&, std::size_t,
    const std::array<std::vector<int>, 3>&, const FrameCaps&) {
  throw TransportError(
      "tcp transport is unavailable on this platform (no BSD sockets)");
}

#endif

}  // namespace igr::sim
