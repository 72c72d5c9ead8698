/// \file probes.cpp
/// Per-layer probes of the traced run: a STREAM triad (the roofline
/// denominator), the batched 16-bit span converters, the exec-space team
/// barrier, and halo-slab round trips and the dt allreduce over both
/// transports.  Each probe times calls into public library functions only.

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/bfloat16.hpp"
#include "common/exec.hpp"
#include "common/field3.hpp"
#include "common/half.hpp"
#include "mesh/grid.hpp"
#include "sim/comm.hpp"

namespace perfbench {

using namespace igr;

namespace {

/// Median seconds per call of `body` over `reps` batches of `calls` calls.
template <class F>
double per_call_s(int reps, int calls, F&& body) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = now_s();
    for (int c = 0; c < calls; ++c) body();
    t.push_back((now_s() - t0) / calls);
  }
  return median(t);
}

/// STREAM triad a = b + s*c at exec width `threads`, GB/s (3 arrays moved
/// per element; write-allocate traffic not counted, as in STREAM).
double triad_gbps(std::size_t n, int threads) {
  const common::ExecSpace ex(common::ExecBackend::kOpenMP, threads);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);
  const auto len = static_cast<long>(n);
  // First touch with the partition the measurement uses.
  ex.for_each(len, [&](long i) {
    a[i] = 0.0;
    b[i] = 1.0;
    c[i] = 2.0;
  });
  const double s = 3.0;
  const double sec = per_call_s(5, 1, [&] {
    ex.for_each(len, [&](long i) { a[i] = b[i] + s * c[i]; });
  });
  if (a[n / 2] != 7.0) throw std::runtime_error("triad produced a wrong sum");
  return 3.0 * 8.0 * static_cast<double>(n) / sec * 1e-9;
}

/// Widen and narrow GB/s of one 16-bit format's batched span converters
/// (bytes of source plus destination per element).
template <class H>
void converter_gbps(double& widen, double& narrow) {
  constexpr std::size_t n = 1u << 18;
  std::vector<float> f(n), back(n);
  std::vector<H> h(n);
  for (std::size_t i = 0; i < n; ++i)
    f[i] = 0.5f + static_cast<float>(i % 1000) * 1e-3f;
  const double bytes = static_cast<double>(n) * (sizeof(H) + sizeof(float));
  const double tn = per_call_s(
      7, 20, [&] { common::convert_from_float(f.data(), h.data(), n); });
  const double tw = per_call_s(
      7, 20, [&] { common::convert_to_float(h.data(), back.data(), n); });
  for (std::size_t i = 0; i < n; i += 997)
    if (std::abs(back[i] - f[i]) > 1e-2f)
      throw std::runtime_error("16-bit round trip out of tolerance");
  narrow = bytes / tn * 1e-9;
  widen = bytes / tw * 1e-9;
}

double barrier_us(int width) {
  const common::ExecSpace ex(common::ExecBackend::kOpenMP, width);
  constexpr int kBarriers = 2000;
  return 1e6 * per_call_s(5, 1, [&] {
           ex.run_team([&](const common::ExecSpace::Team& t) {
             for (int i = 0; i < kBarriers; ++i) t.barrier();
           });
         }) /
         kBarriers;
}

/// One rank's five state-like fields at the solver's ghost depth.
struct RankFields {
  std::vector<common::Field3<double>> f;
  std::vector<common::Field3<double>*> ptr;
  explicit RankFields(const mesh::Grid& g) {
    for (int c = 0; c < 5; ++c) f.emplace_back(g.nx(), g.ny(), g.nz(), 3);
    for (auto& x : f) {
      for (int k = 0; k < g.nz(); ++k)
        for (int j = 0; j < g.ny(); ++j)
          for (int i = 0; i < g.nx(); ++i) x(i, j, k) = 1.0 + i + j + k;
      ptr.push_back(&x);
    }
  }
};

/// Global grid of the comm probes: two 32^3 blocks along x.
mesh::Grid slab_grid() {
  return {64, 32, 32, {0.0, 2.0}, {0.0, 1.0}, {0.0, 1.0}};
}

constexpr int kSlabReps = 7, kSlabCalls = 50;

/// In-process x-slab exchange between two ranks driven from one thread:
/// post both, complete both.
void slab_inproc(double& rtt_us, double& gbps) {
  const sim::Comm comm(slab_grid(), 2, 1, 1, /*periodic=*/true);
  comm.set_wait_timeout(30.0);
  RankFields r0(comm.local_grid(0)), r1(comm.local_grid(1));
  const auto exchange = [&] {
    comm.post_axis(sim::Comm::kChanState, 0, r0.ptr.data(), 5, 0);
    comm.post_axis(sim::Comm::kChanState, 1, r1.ptr.data(), 5, 0);
    if (!comm.complete_axis(sim::Comm::kChanState, 0, r0.ptr.data(), 5, 0) ||
        !comm.complete_axis(sim::Comm::kChanState, 1, r1.ptr.data(), 5, 0))
      throw std::runtime_error("in-process slab exchange aborted");
  };
  exchange();
  const std::size_t b0 = comm.bytes_exchanged();
  const double sec = per_call_s(kSlabReps, kSlabCalls, exchange);
  const double bytes = static_cast<double>(comm.bytes_exchanged() - b0) /
                       (kSlabReps * kSlabCalls);
  rtt_us = 1e6 * sec;
  gbps = bytes / sec * 1e-9;
}

/// The same exchange between two TCP endpoints (one thread each, like the
/// tcp workload), plus the dt allreduce over that pair.
void slab_tcp(const std::string& scratch, double& rtt_us, double& gbps,
              double& allreduce_us) {
  const DirGuard rdv(unique_dir(scratch, "rdv-probe"));
  double sec = 0.0, bytes = 0.0, ar = 0.0;
  std::exception_ptr err[2];
  const auto endpoint = [&](int rank) {
    try {
      sim::TransportSpec spec;
      spec.kind = sim::TransportSpec::Kind::kTcp;
      spec.world = 2;
      spec.rank = rank;
      spec.dir = rdv.path();
      const sim::Comm comm(slab_grid(), 2, 1, 1, /*periodic=*/true, spec);
      comm.set_wait_timeout(30.0);
      RankFields f(comm.local_grid(rank));
      try {
        const auto exchange = [&] {
          comm.post_axis(sim::Comm::kChanState, rank, f.ptr.data(), 5, 0);
          if (!comm.complete_axis(sim::Comm::kChanState, rank, f.ptr.data(),
                                  5, 0))
            throw std::runtime_error("tcp slab exchange aborted: " +
                                     comm.abort_reason());
        };
        exchange();
        comm.barrier();
        const std::size_t b0 = comm.bytes_exchanged();
        const double s = per_call_s(kSlabReps, kSlabCalls, exchange);
        const double got = static_cast<double>(comm.bytes_exchanged() - b0);
        comm.barrier();
        double v = 1.0 + rank;
        const double a = per_call_s(kSlabReps, kSlabCalls, [&] {
          v = comm.allreduce_min_global(v);
        });
        if (v != 1.0) throw std::runtime_error("allreduce_min is wrong");
        comm.barrier();
        if (rank == 0) {
          sec = s;
          // Both endpoints unpack the same volume; count the pair.
          bytes = 2.0 * got / (kSlabReps * kSlabCalls);
          ar = a;
        }
      } catch (const std::exception& e) {
        comm.abort_exchanges(e.what());
        throw;
      }
    } catch (...) {
      err[rank] = std::current_exception();
    }
  };
  std::thread peer(endpoint, 1);
  endpoint(0);
  peer.join();
  for (const auto& e : err)
    if (e) std::rethrow_exception(e);
  rtt_us = 1e6 * sec;
  gbps = bytes / sec * 1e-9;
  allreduce_us = 1e6 * ar;
}

}  // namespace

ProbeResults run_probes(Tracer* tr, const std::string& scratch) {
  ProbeResults p;
  {
    Scope s(tr, "probe.triad");
    // Three arrays totalling at least 4x the last-level cache (64 MiB when
    // the host does not report one), capped at 2 GiB.
    const std::size_t l3 = l3_bytes();
    const std::size_t total = std::min<std::size_t>(
        std::max<std::size_t>(4 * l3, std::size_t{64} << 20),
        std::size_t{2} << 30);
    const std::size_t n = total / (3 * sizeof(double));
    p.triad_gbps = triad_gbps(n, 4);
    p.triad_gbps_t1 = triad_gbps(n, 1);
  }
  {
    Scope s(tr, "probe.convert");
    converter_gbps<common::bfloat16>(p.bf16_widen_gbps, p.bf16_narrow_gbps);
    converter_gbps<common::half>(p.f16_widen_gbps, p.f16_narrow_gbps);
  }
  {
    Scope s(tr, "probe.barrier");
    p.team_barrier_us = barrier_us(4);
  }
  {
    Scope s(tr, "probe.slab_inproc");
    slab_inproc(p.slab_rtt_us_inproc, p.slab_gbps_inproc);
  }
  {
    Scope s(tr, "probe.slab_tcp");
    slab_tcp(scratch, p.slab_rtt_us_tcp, p.slab_gbps_tcp, p.dt_allreduce_us);
  }
  return p;
}

}  // namespace perfbench
