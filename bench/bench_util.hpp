#pragma once
/// \file bench_util.hpp
/// Shared helpers for the benchmark harness: the representative workload
/// (single Mach-10 jet, §6.2), table formatting, and local grind-time
/// measurement.

#include <array>
#include <cstdio>
#include <stdexcept>
#include <string>

#include "app/simulation.hpp"
#include "cases/case.hpp"
#include "cases/runner.hpp"

namespace igr::bench {

/// Any registered case as a bench workload, built through the front-door
/// options layer: a cases::RunOptions request lowered by
/// RunOptions::to_params, with per-phase timing on for the bench JSON.
/// `threads` is the exec-space width of the in-rank kernels (0 = ambient;
/// `bench_grind --threads`).
template <class Policy>
app::Simulation<Policy> make_case_sim(
    const cases::CaseSpec& spec, app::SchemeKind scheme, int n = 32,
    fv::ReconScheme recon = fv::ReconScheme::kFifth, int threads = 0) {
  cases::RunOptions opts;
  opts.n = n;
  opts.scheme = scheme;
  opts.recon = recon;
  opts.threads = threads;
  // Per-phase attribution for the bench JSON (sub-0.5% sampling overhead).
  opts.phase_timing = true;
  app::Simulation<Policy> sim(opts.to_params<Policy>(spec));
  sim.init(spec.initial());
  return sim;
}

/// The paper's performance workload: "a representative three-dimensional
/// simulation of the exhaust plume of a single Mach 10 jet" (§6.2), at a
/// laptop-scale resolution.  The registered `jet-single` case reproduces
/// the historical bench workload exactly (same grid aspect, config, and
/// seeded initial condition), so the jet rows route through the same
/// options seam as every `--case` row.
template <class Policy>
app::Simulation<Policy> make_jet_sim(
    app::SchemeKind scheme, int n = 32,
    fv::ReconScheme recon = fv::ReconScheme::kFifth, int threads = 0) {
  const cases::CaseSpec* spec = cases::find("jet-single");
  if (!spec) throw std::logic_error("case registry lost 'jet-single'");
  return make_case_sim<Policy>(*spec, scheme, n, recon, threads);
}

/// One grind measurement: wall ns/cell/step plus, for the single-domain IGR
/// scheme, the per-phase attribution (same unit; phases don't sum to the
/// wall figure exactly — step orchestration overhead is untimed).
struct GrindSample {
  double grind_ns = 0.0;
  bool has_phases = false;
  std::array<double, common::PhaseProfile::kNumPhases> phase_ns{};
};

/// Measure an already-initialized simulation over `steps` steps after
/// `warmup` untimed ones: the difference of the simulation's step meters
/// around the timed window.
template <class Policy>
GrindSample measure_sim_grind(app::Simulation<Policy>& sim, int warmup,
                              int steps) {
  sim.run_steps(warmup);
  const app::StepMeters before = sim.meters();
  sim.run_steps(steps);
  const app::StepMeters w = sim.meters() - before;
  const double cells = static_cast<double>(sim.grid().cells());
  GrindSample s;
  s.grind_ns = w.grind_ns(sim.grid().cells());
  if (w.has_phases) {
    s.has_phases = true;
    for (std::size_t p = 0; p < s.phase_ns.size(); ++p)
      s.phase_ns[p] = w.phase_s[p] * 1.0e9 / (cells * steps);
  }
  return s;
}

/// Grind of the paper's jet workload (the historical bench rows).
template <class Policy>
GrindSample measure_grind(app::SchemeKind scheme, int n, int warmup, int steps,
                          fv::ReconScheme recon = fv::ReconScheme::kFifth,
                          int threads = 0) {
  auto sim = make_jet_sim<Policy>(scheme, n, recon, threads);
  return measure_sim_grind(sim, warmup, steps);
}

/// Grind of a registered case (`bench_grind --case`).
template <class Policy>
GrindSample measure_case_grind(const cases::CaseSpec& spec,
                               app::SchemeKind scheme, int n, int warmup,
                               int steps,
                               fv::ReconScheme recon =
                                   fv::ReconScheme::kFifth,
                               int threads = 0) {
  auto sim = make_case_sim<Policy>(spec, scheme, n, recon, threads);
  return measure_sim_grind(sim, warmup, steps);
}

/// Measure ns/cell/step over `steps` steps after `warmup` untimed ones.
template <class Policy>
double measure_grind_ns(app::SchemeKind scheme, int n, int warmup, int steps,
                        fv::ReconScheme recon = fv::ReconScheme::kFifth) {
  return measure_grind<Policy>(scheme, n, warmup, steps, recon).grind_ns;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

inline void print_header(const std::string& title) {
  std::printf("\n");
  print_rule();
  std::printf("%s\n", title.c_str());
  print_rule();
}

}  // namespace igr::bench
