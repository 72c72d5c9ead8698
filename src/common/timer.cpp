#include "common/timer.hpp"

namespace igr::common {

const char* PhaseProfile::name(Phase p) {
  switch (p) {
    case kBc: return "bc";
    case kSigmaSource: return "sigma_source";
    case kSigmaSweeps: return "sigma_sweeps";
    case kFlux: return "flux";
    case kRkDt: return "rk_dt";
    case kNumPhases: break;
  }
  return "?";
}

}  // namespace igr::common
