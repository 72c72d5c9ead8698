#pragma once
/// \file comm.hpp
/// In-process simulated communicator.
///
/// The paper runs MPI across up to 11k nodes (§6).  Locally we reproduce the
/// *semantics* of that layer: R ranks own disjoint blocks of the global grid
/// and exchange real halo buffers, so a decomposed run is verifiable against
/// a single-domain run (bitwise, when the elliptic sweeps use Jacobi — see
/// sim::DistributedIgr).  Performance at scale is the province of
/// perf::ScalingModel; this class also meters exchanged bytes so the model's
/// traffic terms can be cross-checked against an executed exchange.
///
/// Exchange structure mirrors a nonblocking MPI halo pipeline:
///
///   post_axis(rank, ...)      pack the rank's boundary slabs into per-rank
///                             face buffers and publish them (release-store
///                             an epoch counter) — the MPI_Isend analogue;
///   complete_axis(rank, ...)  wait until every source rank of this rank's
///                             ghost planes has published the current epoch,
///                             then unpack into the ghost layers — the
///                             MPI_Waitall + unpack analogue.
///
/// Between a rank's post and complete it may do work that reads none of the
/// ghosts in flight.  sim::DistributedIgr completes each axis right after
/// posting it and computes between its ghost fills instead (see its phase
/// plan).  Both calls touch only the calling rank's fields and buffers plus other
/// ranks' *published* buffers, so different ranks may call them concurrently
/// from different threads.
///
/// Ghost planes are resolved by *global plane ownership*, not neighbor
/// adjacency: a block thinner than the ghost depth publishes its whole
/// interior and its neighbors' neighbors pull the planes they need
/// (multi-hop halos), so 1-cell-thick rank blocks exchange correctly.

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/field3.hpp"
#include "mesh/decomp.hpp"
#include "mesh/grid.hpp"
#include "sim/transport.hpp"

namespace igr::sim {

class FaultInjector;

class Comm {
 public:
  /// Independent buffer channels so concurrently scheduled exchanges of
  /// different field families never alias (reposting a channel's buffers is
  /// only safe after a schedule barrier: DistributedIgr's phases post each
  /// channel at most once per axis).
  enum Channel : int { kChanState = 0, kChanSigma = 1 };
  static constexpr int kNumChannels = 2;
  /// Largest supported ghost depth (sizes the fixed per-face plane tables).
  static constexpr int kMaxGhostDepth = 8;

  /// Decompose `global` over an rx*ry*rz rank layout, wrapping across the
  /// domain boundary on the axes `periodic` marks (the bool form marks all
  /// three or none).  `spec` selects the transport that moves the halo
  /// bytes: the default in-process backend (every rank in this process,
  /// shared-memory epochs) or TCP (this process owns exactly `spec.rank`,
  /// peers are separate processes).  Halo payloads are the fields' storage
  /// bytes, so an exchange copies ghost values bit for bit.
  Comm(const mesh::Grid& global, int rx, int ry, int rz,
       std::array<bool, 3> periodic, TransportSpec spec = {});
  Comm(const mesh::Grid& global, int rx, int ry, int rz, bool periodic,
       TransportSpec spec = {})
      : Comm(global, rx, ry, rz, {periodic, periodic, periodic}, spec) {}

  [[nodiscard]] int ranks() const { return decomp_.ranks(); }
  [[nodiscard]] const mesh::Decomp& decomp() const { return decomp_; }
  [[nodiscard]] const mesh::Grid& global_grid() const { return global_; }

  /// The byte-moving backend behind the posted-epoch seam.
  [[nodiscard]] Transport& transport() const { return *transport_; }
  /// True when peers live in other OS processes (then only
  /// `transport().local_rank()` may post/complete here).
  [[nodiscard]] bool multi_process() const {
    return transport_->multi_process();
  }
  /// Is this process the team's IO root (rank 0, or the sole in-process
  /// team)?
  [[nodiscard]] bool is_root() const { return transport_->is_root(); }

  /// Scalar collectives over the transport.  In-process they are
  /// identities (the caller's own reduction over its ranks is global);
  /// over TCP they run as an exact star reduction through rank 0.
  [[nodiscard]] double allreduce_min_global(double local) const {
    return transport_->allreduce_min(local);
  }
  [[nodiscard]] double allreduce_sum_global(double local) const {
    return transport_->allreduce_sum(local);
  }
  void barrier() const { transport_->barrier(); }

  /// Local physical grid of `rank` (extents match its block).
  [[nodiscard]] mesh::Grid local_grid(int rank) const;

  /// Throws unless every block is compatible with the per-axis boundary
  /// masking distributed drivers use: along a non-periodic axis a block must
  /// either touch the physical boundary or sit at least `ng` cells away from
  /// it (otherwise some ghost planes would be neither exchanged nor
  /// BC-filled).  Periodic axes support any block thickness, down to one
  /// cell, via multi-hop halos.
  void validate_driver_decomp(int ng) const;

  // --- Nonblocking-style per-rank halo pipeline -------------------------

  /// Pack `rank`'s published boundary slabs of `nfields` fields along
  /// `axis` into this (channel, axis, rank) buffer and publish the epoch.
  /// Tangential extents widen by the ghost depth on axes already exchanged
  /// (x before y before z), matching the single-domain ghost-fill ordering.
  template <class T>
  void post_axis(int channel, int rank,
                 const common::Field3<T>* const* fields, int nfields,
                 int axis) const;

  /// Wait for the source ranks of `rank`'s ghost planes along `axis` to
  /// reach this rank's published epoch, then unpack their buffers into the
  /// ghost layers.  Ghost planes beyond the domain boundary of a
  /// non-periodic axis are left untouched (the BC fill owns them).  Returns
  /// false when the exchange was aborted (a peer failed) — the caller
  /// should unwind.
  template <class T>
  bool complete_axis(int channel, int rank, common::Field3<T>* const* fields,
                     int nfields, int axis) const;

  /// Mark the exchange aborted (error unwind path: a rank that threw
  /// cannot post, so its peers' epoch waits check this flag and give up
  /// instead of spinning forever).  The first non-empty `reason` is latched
  /// and surfaces in later poisoned-communicator errors.
  void abort_exchanges(const std::string& reason = {}) const {
    transport_->abort_exchanges(reason);
  }
  [[nodiscard]] bool aborted() const { return transport_->aborted(); }
  /// Why the communicator was poisoned (empty if not aborted or no reason
  /// was recorded).
  [[nodiscard]] std::string abort_reason() const {
    return transport_->abort_reason();
  }

  // --- Fault tolerance hooks --------------------------------------------

  /// Install a fault injector (nullptr disarms): post_axis / complete_axis
  /// then consult it and propagate its InjectedFault.  The injector must
  /// outlive the communicator.
  void set_fault_injector(FaultInjector* f) const { fault_ = f; }

  /// Bound every epoch wait: a peer that never posts (dead rank without a
  /// reaching abort) trips the timeout, which aborts the exchange with a
  /// reason instead of deadlocking.  <= 0 disables (the default driver
  /// installs its own bound — see DistOptions::comm_timeout_s).
  void set_wait_timeout(double seconds) const {
    transport_->set_wait_timeout(seconds);
  }
  [[nodiscard]] double wait_timeout() const {
    return transport_->wait_timeout();
  }

  /// Minimum across per-rank values (the dt allreduce).
  [[nodiscard]] static double allreduce_min(const std::vector<double>& v);

  /// Total bytes moved by exchanges since construction (bytes of packed
  /// payload unpacked into ghost layers, at storage width; thread-safe).
  [[nodiscard]] std::size_t bytes_exchanged() const {
    return bytes_.load(std::memory_order_relaxed);
  }

  /// Halo **wait** meters: ns spent in complete_axis blocked on peers'
  /// posted epochs (the `transport_->acquire` loop only — pack and unpack
  /// are excluded), per axis, plus the number of completed epochs.  This is
  /// the signal for whether an exchange is worth hiding behind compute
  /// between its post and complete.  Always on
  /// (two steady_clock samples per complete_axis — noise next to one
  /// plane unpack); surfaced in bench_scaling rows and the telemetry
  /// JSONL stream.
  [[nodiscard]] std::uint64_t halo_wait_ns(int axis) const {
    return wait_ns_[check_axis(axis)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t halo_wait_epochs(int axis) const {
    return wait_epochs_[check_axis(axis)].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t halo_wait_ns_total() const {
    return halo_wait_ns(0) + halo_wait_ns(1) + halo_wait_ns(2);
  }
  [[nodiscard]] std::uint64_t halo_wait_epochs_total() const {
    return halo_wait_epochs(0) + halo_wait_epochs(1) + halo_wait_epochs(2);
  }

 private:
  [[nodiscard]] static std::size_t check_axis(int axis) {
    if (axis < 0 || axis > 2)
      throw std::invalid_argument("Comm: axis out of range");
    return static_cast<std::size_t>(axis);
  }

  /// Planes a block of thickness `n` publishes per axis: `ng` per side, or
  /// the whole interior when it is that thin (multi-hop sourcing).
  [[nodiscard]] static int published_planes(int n, int ng) {
    return (n <= 2 * ng) ? n : 2 * ng;
  }
  /// Local plane index published at buffer slot `pos` — THE definition of
  /// the slab layout (pack iterates it; published_pos inverts it).
  [[nodiscard]] static int published_plane(int pos, int n, int ng) {
    return (n <= 2 * ng) ? pos : (pos < ng ? pos : n - 2 * ng + pos);
  }
  /// Buffer slot of local plane `li` within a published slab, or -1 for an
  /// unpublished interior plane.  Derived from published_plane so the
  /// layout has a single encoding (nplanes <= 2*kMaxGhostDepth, so the
  /// scan is trivial).
  [[nodiscard]] static int published_pos(int li, int n, int ng) {
    const int np = published_planes(n, ng);
    for (int pos = 0; pos < np; ++pos) {
      if (published_plane(pos, n, ng) == li) return pos;
    }
    return -1;
  }

  [[nodiscard]] std::size_t slot(int channel, int axis, int rank) const {
    if (channel < 0 || channel >= kNumChannels || axis < 0 || axis > 2)
      throw std::invalid_argument("Comm: channel/axis out of range");
    return (static_cast<std::size_t>(channel) * 3 +
            static_cast<std::size_t>(axis)) *
               static_cast<std::size_t>(ranks()) +
           static_cast<std::size_t>(rank);
  }

  /// Non-template fault taps (keep the FaultInjector type out of the
  /// template bodies; defined in comm.cpp).
  void fault_on_post() const;
  void fault_on_complete() const;

  /// Multi-process guard for the posted-epoch entry points: this process
  /// may only drive its own rank, and only at the ghost depth the
  /// transport's reader sets were derived for (any other depth would
  /// desynchronize the per-slot sequence numbers).
  void check_mp_call(int rank, int ng, const char* what) const;

  /// Where `rank`'s exchanged ghost planes along `axis` at depth `ng` come
  /// from, low side first (physical ghosts belong to the BC fill and are
  /// skipped), plus the distinct source ranks in first-seen order.
  /// complete_axis unpacks by this resolution, and its source-rank relation,
  /// inverted, is the transport's per-axis reader set.
  struct GhostSources {
    struct Plane {
      int dst_plane;  ///< ghost-plane coordinate in this block
      int src_rank;
      int src_plane;  ///< interior plane in the source block
    };
    std::array<Plane, 2 * kMaxGhostDepth> plane{};
    int nplanes = 0;
    std::array<int, 2 * kMaxGhostDepth> rank{};
    int nranks = 0;
  };
  [[nodiscard]] GhostSources resolve_ghosts(int rank, int axis,
                                            int ng) const;

  /// Frame-length caps of a tcp team on this decomposition at ghost depth
  /// `ng` (see FrameCaps): the largest slab and block any rank publishes.
  [[nodiscard]] FrameCaps frame_caps(int ng) const;

  mesh::Grid global_;
  mesh::Decomp decomp_;
  TransportSpec spec_;
  int mp_ng_ = 0;  ///< Enforced ghost depth in multi-process mode.
  mutable std::unique_ptr<Transport> transport_;
  mutable std::atomic<std::size_t> bytes_{0};
  /// Per-axis wait metering (see halo_wait_ns); atomics because different
  /// ranks complete concurrently from different threads, like bytes_.
  mutable std::array<std::atomic<std::uint64_t>, 3> wait_ns_{};
  mutable std::array<std::atomic<std::uint64_t>, 3> wait_epochs_{};
  mutable FaultInjector* fault_ = nullptr;
};

// ---- template implementations ----

namespace detail {

/// The two tangential axes of `axis`, lower-numbered first (the unit-stride
/// x axis stays innermost whenever it is tangential).
inline void tangential_axes(int axis, int& ta, int& tb) {
  ta = (axis == 0) ? 1 : 0;
  tb = (axis == 2) ? 1 : 2;
}

/// Tangential extent of a halo plane: widened into the ghost region for
/// axes exchanged before `axis` (x,y,z order — the corner-consistency rule).
inline void tangential_range(int t, int axis, int ng, const int nd[3],
                             int& lo, int& hi) {
  lo = (t < axis) ? -ng : 0;
  hi = nd[t] + ((t < axis) ? ng : 0);
}

}  // namespace detail

template <class T>
void Comm::post_axis(int channel, int rank,
                     const common::Field3<T>* const* fields, int nfields,
                     int axis) const {
  fault_on_post();
  const common::Field3<T>& f0 = *fields[0];
  const int ng = f0.ng();
  check_mp_call(rank, ng, "post_axis");
  const int nd[3] = {f0.nx(), f0.ny(), f0.nz()};
  const int n = nd[axis];
  int ta, tb;
  detail::tangential_axes(axis, ta, tb);
  int lo_a, hi_a, lo_b, hi_b;
  detail::tangential_range(ta, axis, ng, nd, lo_a, hi_a);
  detail::tangential_range(tb, axis, ng, nd, lo_b, hi_b);
  const std::size_t plane_area = static_cast<std::size_t>(hi_a - lo_a) *
                                 static_cast<std::size_t>(hi_b - lo_b);
  const int nplanes = published_planes(n, ng);

  auto& buf = transport_->send_buffer(slot(channel, axis, rank));
  buf.resize(static_cast<std::size_t>(nfields) * nplanes * plane_area *
             sizeof(T));
  T* const out = reinterpret_cast<T*>(buf.data());

  // Published plane list: the ng-deep slab on each side, or the whole
  // interior for thin blocks (then each plane appears once).
  for (int pos = 0; pos < nplanes; ++pos) {
    const int li = published_plane(pos, n, ng);
    for (int c = 0; c < nfields; ++c) {
      const common::Field3<T>& f = *fields[c];
      T* dst =
          out + (static_cast<std::size_t>(c) * nplanes + pos) * plane_area;
      for (int b = lo_b; b < hi_b; ++b) {
        for (int a = lo_a; a < hi_a; ++a) {
          int cidx[3];
          cidx[axis] = li;
          cidx[ta] = a;
          cidx[tb] = b;
          *dst++ = f(cidx[0], cidx[1], cidx[2]);
        }
      }
    }
  }

  // Publish: everything packed above happens-before any acquire that
  // observes the advanced epoch (the transport's ordering contract).
  transport_->publish(slot(channel, axis, rank));
}

template <class T>
bool Comm::complete_axis(int channel, int rank,
                         common::Field3<T>* const* fields, int nfields,
                         int axis) const {
  fault_on_complete();
  common::Field3<T>& f0 = *fields[0];
  const int ng = f0.ng();
  check_mp_call(rank, ng, "complete_axis");
  const int nd[3] = {f0.nx(), f0.ny(), f0.nz()};
  int ta, tb;
  detail::tangential_axes(axis, ta, tb);
  int lo_a, hi_a, lo_b, hi_b;
  detail::tangential_range(ta, axis, ng, nd, lo_a, hi_a);
  detail::tangential_range(tb, axis, ng, nd, lo_b, hi_b);
  const std::size_t plane_area = static_cast<std::size_t>(hi_a - lo_a) *
                                 static_cast<std::size_t>(hi_b - lo_b);

  const GhostSources srcs = resolve_ghosts(rank, axis, ng);

  // Wait for every source to publish this rank's current epoch (each rank
  // posts exactly once per scheduled exchange, so its own counter is the
  // schedule position).  The acquired pointers stay valid through the
  // unpack loop below — until the next acquire of the same slot at a
  // higher target (the transport's lifetime contract).
  const std::uint64_t target =
      transport_->posted_epoch(slot(channel, axis, rank));
  const unsigned char* src_data[2 * kMaxGhostDepth] = {};
  // The wait meter brackets exactly the epoch-acquire loop: the time this
  // rank is blocked on peers, separate from the pack above and the unpack
  // below (which are local compute).
  const auto wait_t0 = std::chrono::steady_clock::now();
  bool acquired = true;
  for (int s = 0; s < srcs.nranks; ++s) {
    const int sr = srcs.rank[static_cast<std::size_t>(s)];
    src_data[s] = transport_->acquire(slot(channel, axis, sr), target, sr);
    if (src_data[s] == nullptr) {
      acquired = false;
      break;
    }
  }
  const auto waited = std::chrono::duration_cast<std::chrono::nanoseconds>(
                          std::chrono::steady_clock::now() - wait_t0)
                          .count();
  const auto ax = static_cast<std::size_t>(axis);
  wait_ns_[ax].fetch_add(static_cast<std::uint64_t>(waited),
                         std::memory_order_relaxed);
  wait_epochs_[ax].fetch_add(1, std::memory_order_relaxed);
  if (!acquired) return false;

  std::size_t unpacked = 0;
  for (int p = 0; p < srcs.nplanes; ++p) {
    const auto& ps = srcs.plane[static_cast<std::size_t>(p)];
    const auto sblk = decomp_.block(ps.src_rank);
    const int sn = sblk.n[axis];
    const int pos = published_pos(ps.src_plane, sn, ng);
    if (pos < 0)
      throw std::logic_error("Comm: ghost plane maps to an unpublished "
                             "interior plane (decomposition bug)");
    const int snplanes = published_planes(sn, ng);
    int si = 0;
    while (srcs.rank[static_cast<std::size_t>(si)] != ps.src_rank) ++si;
    const T* in = reinterpret_cast<const T*>(src_data[si]);
    for (int c = 0; c < nfields; ++c) {
      common::Field3<T>& f = *fields[c];
      const T* src =
          in + (static_cast<std::size_t>(c) * snplanes + pos) * plane_area;
      for (int b = lo_b; b < hi_b; ++b) {
        for (int a = lo_a; a < hi_a; ++a) {
          int cidx[3];
          cidx[axis] = ps.dst_plane;
          cidx[ta] = a;
          cidx[tb] = b;
          f(cidx[0], cidx[1], cidx[2]) = *src++;
        }
      }
    }
    unpacked += static_cast<std::size_t>(nfields) * plane_area * sizeof(T);
  }
  bytes_.fetch_add(unpacked, std::memory_order_relaxed);
  return true;
}

}  // namespace igr::sim
