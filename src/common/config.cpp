#include "common/config.hpp"

namespace igr::common {

void SolverConfig::validate() const {
  if (gamma <= 1.0) throw std::invalid_argument("gamma must exceed 1");
  if (mu < 0.0 || zeta < 0.0)
    throw std::invalid_argument("viscosities must be non-negative");
  if (alpha_factor < 0.0)
    throw std::invalid_argument("alpha_factor must be non-negative");
  if (sigma_sweeps < 0 || sigma_sweeps > 64)
    throw std::invalid_argument("sigma_sweeps out of range [0,64]");
  if (cfl <= 0.0 || cfl > 1.0)
    throw std::invalid_argument("cfl must lie in (0,1]");
  if (density_floor < 0.0 || pressure_floor < 0.0)
    throw std::invalid_argument("floors must be non-negative");
  if (exec_threads < 0 || exec_threads > 4096)
    throw std::invalid_argument("exec_threads out of range [0,4096]");
}

}  // namespace igr::common
