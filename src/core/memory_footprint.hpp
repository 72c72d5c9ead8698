#pragma once
/// \file memory_footprint.hpp
/// Analytic storage accounting behind the paper's §5.4 claim: the fused IGR
/// implementation stores 17 values per grid point, versus an array-based
/// production WENO5+HLLC implementation (MFC-style) whose full-field
/// intermediates total ~106 values per point.  Combined with FP16 storage
/// (2 bytes vs 8), the footprint shrinks ~25x.
///
/// Also encodes the unified-memory split of §5.5.3: parking the RK register
/// on the host leaves 12/17 of the state on-device; additionally hosting the
/// IGR temporaries leaves 10/17.
///
/// These models are the paper's GPU accounting (17N for IGR).  The CPU
/// solver core::IgrSolver3D stores 13N instead — no full RHS arrays (its RK
/// update trails the streamed flux front, so the RHS lives in a two-block
/// compute-precision ring) but one reciprocal-density field — plus that
/// ring; IgrSolver3D::memory_bytes() reports the real allocation.

#include <cstddef>
#include <string>
#include <vector>

namespace igr::core {

/// One named allocation in a solver's persistent storage.
struct StorageItem {
  std::string name;
  double reals_per_cell;
};

/// Itemized per-cell storage of a scheme at a given storage width.
struct FootprintModel {
  std::string scheme;
  std::vector<StorageItem> items;
  std::size_t bytes_per_real;

  [[nodiscard]] double reals_per_cell() const;
  [[nodiscard]] double bytes_per_cell() const;
};

/// IGR storage model (§5.2): 2x5 state copies + 5 RHS + Sigma + Sigma source
/// (+1 Jacobi double-buffer when enabled).
FootprintModel igr_footprint(std::size_t bytes_per_real, bool jacobi = false);

/// Array-based WENO5+HLLC storage model, itemizing the buffers a
/// conventional optimized implementation keeps as full fields (conservative
/// + RK registers, primitives, per-direction reconstructed states, fluxes,
/// and WENO workspace).
FootprintModel weno_footprint(std::size_t bytes_per_real);

/// Footprint ratio baseline/IGR (the §5.4 "25-fold" figure when comparing
/// FP64 baseline against FP16-storage IGR).
double footprint_ratio(const FootprintModel& baseline,
                       const FootprintModel& igr);

/// Fraction of IGR state resident on the GPU under the §5.5.3 splits.
/// `host_rk` parks the RK register on the host (12/17); `host_igr_tmp`
/// additionally parks Sigma + source (10/17).
double device_resident_fraction(bool host_rk, bool host_igr_tmp);

/// Maximum cells per device for a given memory budget (bytes), scheme
/// footprint, and device-resident fraction.
std::size_t max_cells_per_device(std::size_t device_bytes,
                                 const FootprintModel& model,
                                 double device_fraction);

}  // namespace igr::core
