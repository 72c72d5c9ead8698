#include "common/timer.hpp"

namespace igr::common {

void WallTimer::stop() {
  if (!running_) return;
  const auto t1 = clock::now();
  acc_ += std::chrono::duration<double>(t1 - t0_).count();
  running_ = false;
}

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
