#pragma once
/// \file health.hpp
/// Cheap run-health scan over the conserved state.  Long campaigns fail
/// through the field first — a NaN from an over-aggressive dt or a negative
/// density from an under-resolved front — long before any I/O or comm layer
/// notices.  The guarded runner (cases::run_case_guarded) scans every few
/// steps and rolls back to the last checkpoint with a reduced CFL when the
/// state goes bad.
///
/// Health policy: *nonfinite values and negative density are always fatal*.
/// Nonpositive pressure is counted and reported but only fails a strict
/// scan — the jet cases legitimately carry nonpositive-pressure cells
/// through their impulsive start-up transient (see
/// FlowDiagnostics::nonpositive_pressure_cells), and rolling those back
/// would loop forever.

#include <cmath>
#include <cstddef>
#include <limits>
#include <mutex>
#include <sstream>
#include <string>
#include <vector>

#include "common/exec.hpp"
#include "common/field3.hpp"
#include "eos/ideal_gas.hpp"

namespace igr::app {

struct SolverHealth {
  std::size_t cells = 0;
  std::size_t nonfinite_cells = 0;         ///< Any conserved var NaN/Inf.
  std::size_t negative_density_cells = 0;  ///< rho <= 0 (finite).
  std::size_t nonpositive_pressure_cells = 0;  ///< p <= 0 (finite state).
  double min_density = std::numeric_limits<double>::infinity();
  double min_pressure = std::numeric_limits<double>::infinity();

  /// Fit to continue?  Strict mode additionally fails nonpositive pressure
  /// (opt-in; see the file comment for why it is not the default).
  [[nodiscard]] bool healthy(bool strict_pressure = false) const {
    if (nonfinite_cells > 0 || negative_density_cells > 0) return false;
    if (strict_pressure && nonpositive_pressure_cells > 0) return false;
    return true;
  }

  /// Fold in the scan of a disjoint set of cells.  Merging the partials of
  /// a partition in traversal order reproduces the one-pass scan exactly
  /// (a strict `<` keeps the first minimum seen, as the pass does).
  void merge(const SolverHealth& o) {
    cells += o.cells;
    nonfinite_cells += o.nonfinite_cells;
    negative_density_cells += o.negative_density_cells;
    nonpositive_pressure_cells += o.nonpositive_pressure_cells;
    if (o.min_density < min_density) min_density = o.min_density;
    if (o.min_pressure < min_pressure) min_pressure = o.min_pressure;
  }

  [[nodiscard]] std::string describe() const {
    std::ostringstream os;
    os << nonfinite_cells << " nonfinite, " << negative_density_cells
       << " negative-density, " << nonpositive_pressure_cells
       << " nonpositive-pressure of " << cells
       << " cells (min rho " << min_density << ", min p " << min_pressure
       << ")";
    return os.str();
  }
};

/// Scan the interior of `q` on `exec`: each team member scans its k-chunk
/// into a partial result, and the partials merge in chunk order — integer
/// count sums and exact minima, so the result is identical at every width.
/// One pass, no field allocation — cheap enough to run every few steps on
/// smoke-sized grids and every checkpoint on large ones.
template <class T>
[[nodiscard]] SolverHealth scan_health(const common::StateField3<T>& q,
                                       const eos::IdealGas& eos,
                                       const common::ExecSpace& exec) {
  std::mutex mu;
  std::vector<SolverHealth> parts;
  exec.run_team([&](const common::ExecSpace::Team& t) {
    SolverHealth h;
    long kb, ke;
    t.chunk(q.nz(), kb, ke);
    h.cells = static_cast<std::size_t>(q.nx()) *
              static_cast<std::size_t>(q.ny()) *
              static_cast<std::size_t>(ke - kb);
    for (int k = static_cast<int>(kb); k < ke; ++k) {
      for (int j = 0; j < q.ny(); ++j) {
        for (int i = 0; i < q.nx(); ++i) {
          common::Cons<double> qc;
          bool finite = true;
          for (int c = 0; c < common::kNumVars; ++c) {
            qc[c] = static_cast<double>(q[c](i, j, k));
            finite = finite && std::isfinite(qc[c]);
          }
          if (!finite) {
            ++h.nonfinite_cells;
            continue;
          }
          if (qc.rho < h.min_density) h.min_density = qc.rho;
          if (qc.rho <= 0.0) {
            ++h.negative_density_cells;
            continue;
          }
          const double p = eos.pressure(qc);
          if (p < h.min_pressure) h.min_pressure = p;
          if (p <= 0.0) ++h.nonpositive_pressure_cells;
        }
      }
    }
    std::lock_guard<std::mutex> g(mu);
    const auto n = static_cast<std::size_t>(t.size());
    if (parts.size() < n) parts.resize(n);
    parts[static_cast<std::size_t>(t.tid())] = h;
  });
  SolverHealth h;
  for (const auto& p : parts) h.merge(p);
  return h;
}

}  // namespace igr::app
