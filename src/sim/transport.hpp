#pragma once
/// \file transport.hpp
/// Pluggable rank-to-rank transport behind sim::Comm's posted-epoch seam.
///
/// Comm owns the *protocol* of a halo exchange — slab layout, plane
/// ownership, wire narrowing, byte metering — and delegates the *movement*
/// to a Transport: publish a packed slot, acquire a peer's published slot at
/// a target epoch, reduce a scalar, move a blob.  Two backends implement the
/// seam:
///
///   InProcTransport  every rank lives in this process; publishing is a
///                    release-increment of a shared epoch counter and
///                    acquiring is a yield-spin on it (the PR 3 pipeline,
///                    bit-for-bit).
///   TcpTransport     every rank is its own OS process; publishing frames
///                    the slot over loopback sockets to the ranks that read
///                    it, acquiring waits on a per-slot inbox fed by
///                    per-peer receive threads.  Built by make_tcp_transport
///                    (transport_tcp.cpp) so socket headers stay out of this
///                    header.
///
/// The abort/timeout machinery lives in the base class: a failed or dead
/// peer latches a first-reason `abort_reason` and every wait observes the
/// flag, so a poisoned fabric unwinds instead of deadlocking — the same
/// contract Comm exposed before the seam existed.

#include <atomic>
#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace igr::sim {

/// Transport-layer failures (rendezvous timeout, peer death mid-collective).
/// Distinct from logic errors so callers can classify the loss as transient:
/// the launcher treats it as retryable and respawns the team.
struct TransportError : std::runtime_error {
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

/// How a Comm moves bytes between ranks.
struct TransportSpec {
  enum class Kind {
    kInProc,  ///< All ranks share this process (the default).
    kTcp,     ///< One rank per process over loopback sockets.
  };
  Kind kind = Kind::kInProc;
  /// kTcp: total ranks in the team (must equal the decomposition's rank
  /// count) and this process's rank within it.
  int world = 0;
  int rank = -1;
  /// kTcp: rendezvous directory shared by the team.  Each rank binds an
  /// ephemeral loopback port and publishes it as `<dir>/port.<rank>`
  /// (atomic temp+rename); peers poll for the files and dial.  The
  /// launcher hands every respawn attempt a fresh directory so stale port
  /// files from a killed team are never dialed.
  std::string dir;
  /// kTcp: ghost depth the halo reader sets are derived for.  A publish is
  /// pushed to the fixed set of ranks whose ghost planes source from it at
  /// this depth; exchanges at any other depth would desynchronize the
  /// per-slot sequence numbers, so Comm enforces the match.
  int ghost_depth = 3;
  /// kTcp: bound on the whole rendezvous (port-file wait + dial + accept).
  double connect_timeout_s = 30.0;
  /// kTcp: liveness beacon period.  A dedicated thread heartbeats every
  /// peer so a wedged-but-alive rank is distinguishable from a dead one.
  double heartbeat_period_s = 0.25;
  /// kTcp: a peer silent for this long while we wait on it is declared
  /// dead even if its socket has not closed (missed-heartbeat detection).
  double liveness_timeout_s = 10.0;

  [[nodiscard]] static Kind parse_kind(const std::string& s) {
    if (s == "inproc") return Kind::kInProc;
    if (s == "tcp") return Kind::kTcp;
    throw std::invalid_argument("unknown transport '" + s +
                                "' (expected inproc|tcp)");
  }
  [[nodiscard]] const char* kind_name() const {
    return kind == Kind::kTcp ? "tcp" : "inproc";
  }
};

/// Always-on wire statistics a backend exposes for telemetry (zeros where a
/// concept does not apply — the in-process backend moves no frames).
struct TransportStats {
  std::uint64_t frames_sent = 0;
  std::uint64_t bytes_sent = 0;  ///< Headers + payloads, every frame kind.
  std::uint64_t frames_received = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t heartbeats_sent = 0;
};

class Transport {
 public:
  explicit Transport(std::size_t nslots) : nslots_(nslots) {}
  virtual ~Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  [[nodiscard]] virtual const char* name() const = 0;
  /// Rank this process owns, or -1 when every rank is in-process.
  [[nodiscard]] virtual int local_rank() const { return -1; }
  [[nodiscard]] bool multi_process() const { return local_rank() >= 0; }
  /// Exactly one process per team is the IO root (rank 0, or the sole
  /// process of an in-process team).
  [[nodiscard]] bool is_root() const { return local_rank() <= 0; }

  // --- Posted-epoch halo seam -------------------------------------------

  /// Pack target for `slot` — the caller resizes and fills it, then
  /// publishes.  Only the slot-owning rank's thread may touch it.
  [[nodiscard]] virtual std::vector<unsigned char>& send_buffer(
      std::size_t slot) = 0;
  /// Make `slot`'s packed bytes visible to its readers and advance its
  /// epoch; everything written to the buffer happens-before any acquire
  /// that observes the new epoch.
  virtual void publish(std::size_t slot) = 0;
  /// Epochs published to `slot` so far (the caller's own schedule position).
  [[nodiscard]] virtual std::uint64_t posted_epoch(std::size_t slot)
      const = 0;
  /// Bytes of `src_rank`'s `slot` at epoch `target`, valid until the next
  /// acquire of the same slot with a higher target.  nullptr when the
  /// exchange aborted or timed out (reason latched) — the caller unwinds.
  [[nodiscard]] virtual const unsigned char* acquire(std::size_t slot,
                                                     std::uint64_t target,
                                                     int src_rank) = 0;

  // --- Control plane (collectives and bulk point-to-point) --------------

  /// Exact global minimum of one double per rank (the dt allreduce; min is
  /// associative, so the result is bitwise the single-domain value).
  [[nodiscard]] virtual double allreduce_min(double local) = 0;
  /// Global sum of one double per rank (health tallies; not bitwise-
  /// reproducible across rank counts — use for verdicts, not state).
  [[nodiscard]] virtual double allreduce_sum(double local) = 0;
  /// All ranks reach this call before any returns.
  virtual void barrier() = 0;
  /// Ordered point-to-point byte blobs (gather-to-root checkpointing).
  /// Matching is (sender, tag, call order); throws TransportError when the
  /// peer dies first.
  virtual void send_blob(int peer, int tag, const unsigned char* data,
                         std::size_t n) = 0;
  [[nodiscard]] virtual std::vector<unsigned char> recv_blob(int peer,
                                                             int tag) = 0;

  // --- Abort / timeout (shared by every backend) ------------------------

  /// Poison the fabric: every in-flight and future wait observes the flag
  /// and gives up.  The first non-empty reason is latched.
  void abort_exchanges(const std::string& reason) {
    if (!reason.empty()) {
      std::lock_guard<std::mutex> lock(reason_mu_);
      if (reason_.empty()) reason_ = reason;  // first reason wins
    }
    abort_.store(true, std::memory_order_relaxed);
    on_abort();
  }
  [[nodiscard]] bool aborted() const {
    return abort_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::string abort_reason() const {
    std::lock_guard<std::mutex> lock(reason_mu_);
    return reason_;
  }

  /// Bound every wait; <= 0 disables (the driver installs its own bound).
  void set_wait_timeout(double seconds) { wait_timeout_s_ = seconds; }
  [[nodiscard]] double wait_timeout() const { return wait_timeout_s_; }

  /// Snapshot of the backend's wire counters (relaxed reads; always
  /// maintained — the TCP backend's counters ride sends/receives it makes
  /// anyway, and the in-process backend has nothing to count).
  [[nodiscard]] virtual TransportStats stats() const { return {}; }

 protected:
  /// Backend hook invoked after an abort latches (wake blocked waiters,
  /// tell peers).  May run on any thread; must not lock around
  /// abort_exchanges re-entrantly.
  virtual void on_abort() {}

  std::size_t nslots_;
  std::atomic<bool> abort_{false};
  mutable std::mutex reason_mu_;
  std::string reason_;
  std::atomic<double> wait_timeout_s_{0.0};
};

/// The PR 3 shared-memory pipeline: one instance shared by every rank's
/// thread; epochs are plain atomics and acquires yield-spin.
class InProcTransport final : public Transport {
 public:
  explicit InProcTransport(std::size_t nslots);

  [[nodiscard]] const char* name() const override { return "inproc"; }
  [[nodiscard]] std::vector<unsigned char>& send_buffer(
      std::size_t slot) override {
    return buffers_[slot];
  }
  void publish(std::size_t slot) override {
    epochs_[slot].fetch_add(1, std::memory_order_release);
  }
  [[nodiscard]] std::uint64_t posted_epoch(std::size_t slot) const override {
    return epochs_[slot].load(std::memory_order_relaxed);
  }
  [[nodiscard]] const unsigned char* acquire(std::size_t slot,
                                             std::uint64_t target,
                                             int src_rank) override;

  // In-process collectives are identities: the caller's own reduction over
  // its ranks *is* the global one.
  [[nodiscard]] double allreduce_min(double local) override { return local; }
  [[nodiscard]] double allreduce_sum(double local) override { return local; }
  void barrier() override {}
  void send_blob(int, int, const unsigned char*, std::size_t) override {
    throw std::logic_error("InProcTransport: blobs need a remote peer");
  }
  [[nodiscard]] std::vector<unsigned char> recv_blob(int, int) override {
    throw std::logic_error("InProcTransport: blobs need a remote peer");
  }

 private:
  std::unique_ptr<std::atomic<std::uint64_t>[]> epochs_;
  std::vector<std::vector<unsigned char>> buffers_;
};

/// Longest payloads a legitimate member of a tcp team sends, per frame
/// family.  The receive path rejects a longer frame before allocating for
/// it; send_blob refuses a longer blob (trace fragments are unbounded).
/// Comm derives both from the decomposition (Comm::frame_caps).
struct FrameCaps {
  /// Widest halo slab: every state component of the largest published
  /// slab of any rank block, at 8-byte storage.
  std::uint64_t halo = 0;
  /// Largest blob: a whole rank block of every state component at 8-byte
  /// storage (the gather-to-root payloads), and at least kMinBlobCap so
  /// trace fragments of small-grid runs fit.
  std::uint64_t blob = 0;
  static constexpr std::uint64_t kMinBlobCap = std::uint64_t{1} << 30;
};

/// Build the loopback-socket backend for `spec` (defined in
/// transport_tcp.cpp).  `readers[axis]` is the fixed set of peer ranks that
/// read this rank's published slabs along that axis — the inverse of the
/// ghost-plane source resolution, supplied by Comm so both sides of the
/// relation come from one encoding.  `caps` bounds every frame length (see
/// FrameCaps).  Throws TransportError when the team fails to rendezvous
/// within the spec's connect timeout.
[[nodiscard]] std::unique_ptr<Transport> make_tcp_transport(
    const TransportSpec& spec, std::size_t nslots,
    const std::array<std::vector<int>, 3>& readers, const FrameCaps& caps);

}  // namespace igr::sim
