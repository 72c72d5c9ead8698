#include "sim/comm.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/fault.hpp"

namespace igr::sim {

Comm::Comm(const mesh::Grid& global, int rx, int ry, int rz,
           std::array<bool, 3> periodic, TransportSpec spec)
    : global_(global),
      decomp_(global_, rx, ry, rz, periodic),
      spec_(spec) {
  const std::size_t slots =
      static_cast<std::size_t>(kNumChannels) * 3 *
      static_cast<std::size_t>(decomp_.ranks());
  if (spec_.kind == TransportSpec::Kind::kTcp) {
    if (spec_.world != decomp_.ranks())
      throw TransportError(
          "Comm: tcp transport world of " + std::to_string(spec_.world) +
          " does not match the " + std::to_string(decomp_.ranks()) +
          "-rank decomposition");
    mp_ng_ = spec_.ghost_depth;
    if (mp_ng_ < 1 || mp_ng_ > kMaxGhostDepth)
      throw TransportError("Comm: tcp ghost_depth out of range");
    // Invert the ghost-plane source resolution into per-axis reader sets:
    // the fixed set of peers every publish along an axis is pushed to.
    // Both sides of the relation come from resolve_ghosts(), so a published
    // slot reaches exactly the ranks whose complete_axis will await it —
    // which keeps the per-slot sequence numbers in lockstep with the
    // senders' post counts.
    std::array<std::vector<int>, 3> readers;
    for (int axis = 0; axis < 3; ++axis) {
      for (int r = 0; r < decomp_.ranks(); ++r) {
        if (r == spec_.rank) continue;  // self-reads use the local buffer
        const auto srcs = resolve_ghosts(r, axis, mp_ng_);
        const int* end = srcs.rank.data() + srcs.nranks;
        if (std::find(srcs.rank.data(), end, spec_.rank) != end)
          readers[static_cast<std::size_t>(axis)].push_back(r);
      }
    }
    transport_ = make_tcp_transport(spec_, slots, readers, frame_caps(mp_ng_));
  } else {
    transport_ = std::make_unique<InProcTransport>(slots);
  }
}

FrameCaps Comm::frame_caps(int ng) const {
  // Payloads at 8-byte storage with every state component: no channel
  // posts more fields, and no storage type is wider.
  constexpr std::uint64_t kMaxBytesPerCell = common::kNumVars * 8;
  FrameCaps caps;
  caps.blob = FrameCaps::kMinBlobCap;
  for (int r = 0; r < decomp_.ranks(); ++r) {
    const auto b = decomp_.block(r);
    const std::uint64_t cells = static_cast<std::uint64_t>(b.n[0]) *
                                static_cast<std::uint64_t>(b.n[1]) *
                                static_cast<std::uint64_t>(b.n[2]);
    caps.blob = std::max(caps.blob, kMaxBytesPerCell * cells);
    for (int axis = 0; axis < 3; ++axis) {
      // Same slab shape as post_axis: published planes times the
      // tangential extent, widened by the ghosts of earlier axes.
      int ta, tb;
      detail::tangential_axes(axis, ta, tb);
      int lo_a, hi_a, lo_b, hi_b;
      detail::tangential_range(ta, axis, ng, b.n.data(), lo_a, hi_a);
      detail::tangential_range(tb, axis, ng, b.n.data(), lo_b, hi_b);
      const std::uint64_t slab =
          static_cast<std::uint64_t>(published_planes(b.n[axis], ng)) *
          static_cast<std::uint64_t>(hi_a - lo_a) *
          static_cast<std::uint64_t>(hi_b - lo_b);
      caps.halo = std::max(caps.halo, kMaxBytesPerCell * slab);
    }
  }
  return caps;
}

mesh::Grid Comm::local_grid(int rank) const {
  // A window shares the global spacing bitwise and evaluates cell centers
  // at the global positions — recomputing local extents would round the
  // spacing whenever dx is not exactly representable, silently breaking
  // decomposed-vs-single-domain bitwise equivalence on non-power-of-two
  // grids.
  const auto b = decomp_.block(rank);
  return mesh::Grid::window(global_, b.lo, b.n);
}

void Comm::validate_driver_decomp(int ng) const {
  if (ng > kMaxGhostDepth)
    throw std::invalid_argument("Comm: ghost depth above kMaxGhostDepth "
                                "unsupported");
  const int cells[3] = {global_.nx(), global_.ny(), global_.nz()};
  const auto layout = decomp_.layout();
  for (int axis = 0; axis < 3; ++axis) {
    // Multi-hop covers every interior plane of a periodic axis.
    if (decomp_.periodic(axis)) continue;
    for (int r = 0; r < decomp_.ranks(); ++r) {
      const auto b = decomp_.block(r);
      const int lo = b.lo[axis];
      const int hi = lo + b.n[axis];
      const int gap_hi = cells[axis] - hi;
      if ((lo != 0 && lo < ng) || (gap_hi != 0 && gap_hi < ng)) {
        throw std::invalid_argument(
            "Comm: non-periodic decomposition places a block within " +
            std::to_string(ng) + " cells of a physical boundary without " +
            "touching it (axis " + std::to_string(axis) + ", layout " +
            std::to_string(layout[0]) + "x" + std::to_string(layout[1]) +
            "x" + std::to_string(layout[2]) +
            "); its ghost planes would be neither exchanged nor BC-filled");
      }
    }
  }
}

void Comm::check_mp_call(int rank, int ng, const char* what) const {
  if (!transport_->multi_process()) return;
  if (rank != transport_->local_rank())
    throw std::logic_error(
        std::string("Comm::") + what + ": rank " + std::to_string(rank) +
        " is not local to this process (multi-process transports drive "
        "exactly one rank per process)");
  if (ng != mp_ng_)
    throw std::invalid_argument(
        std::string("Comm::") + what + ": ghost depth " +
        std::to_string(ng) + " does not match the transport's reader sets "
        "(derived for depth " + std::to_string(mp_ng_) + ")");
}

Comm::GhostSources Comm::resolve_ghosts(int rank, int axis, int ng) const {
  if (ng > kMaxGhostDepth)
    throw std::invalid_argument("Comm: ghost depth above kMaxGhostDepth "
                                "unsupported");
  const int N = (axis == 0)   ? global_.nx()
                : (axis == 1) ? global_.ny()
                              : global_.nz();
  const auto blk = decomp_.block(rank);
  const auto coords = decomp_.coords_of(rank);
  GhostSources out;
  for (int side = 0; side < 2; ++side) {
    for (int g = 0; g < ng; ++g) {
      const int dp = (side == 0) ? -ng + g : blk.n[axis] + g;
      int G = blk.lo[axis] + dp;
      if (G < 0 || G >= N) {
        if (!decomp_.periodic(axis)) continue;  // physical: BC fill owns it
        G = ((G % N) + N) % N;
      }
      int scoord[3] = {coords[0], coords[1], coords[2]};
      scoord[axis] = decomp_.owner_coord(axis, G);
      const int sr = decomp_.rank_of(scoord[0], scoord[1], scoord[2]);
      out.plane[static_cast<std::size_t>(out.nplanes++)] = {
          dp, sr, G - decomp_.block(sr).lo[axis]};
      int* seen = out.rank.data() + out.nranks;
      if (std::find(out.rank.data(), seen, sr) == seen)
        out.rank[static_cast<std::size_t>(out.nranks++)] = sr;
    }
  }
  return out;
}

void Comm::fault_on_post() const {
  if (fault_) fault_->on_comm_post();
}

void Comm::fault_on_complete() const {
  if (fault_) fault_->on_comm_complete();
}

double Comm::allreduce_min(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("allreduce_min: empty");
  return *std::min_element(v.begin(), v.end());
}

}  // namespace igr::sim
