/// \file run_case.cpp
/// Unified CLI over the case library: run any registered scenario at any
/// precision, scheme, reconstruction order, and rank layout.
///
///   $ ./run_case --list
///   $ ./run_case --case sod-x --n 64 --t-end 0.2 --vtk sod.vtk
///   $ ./run_case --case taylor-green --precision fp16x32 --steps 50
///   $ ./run_case --case jet-single --ranks 2,2,1 --steps 20
///   $ ./run_case --case all --smoke --json CASES_smoke.json
///
/// `--case all` sweeps every registered case (at golden/smoke sizing with
/// `--smoke`) and, with `--json`, writes the per-case diagnostics report CI
/// uploads as a workflow artifact.  A case that ends diverged (non-finite
/// conserved totals or non-positive density) still gets its report, but the
/// exit status is non-zero.

#include <array>
#include <cmath>
#include <cstdio>
#include <exception>
#include <cstdlib>
#include <string>
#include <vector>

#include "cases/runner.hpp"
#include "common/cli.hpp"
#include "io/checkpoint.hpp"
#include "mesh/decomp.hpp"

namespace {

using namespace igr;

struct CliOptions {
  std::string case_name;
  cases::Precision precision = cases::Precision::kFp64;
  cases::RunOptions run;
  cases::GuardOptions guard;
  bool guarded = false;  ///< Any fault-tolerance flag was given.
  bool smoke = false;
  std::string vtk;
  std::string json;
  std::string save_ckpt;
  std::string restart_ckpt;

  /// One rank of `transport.world` OS processes (tcp transport)?
  [[nodiscard]] bool multi_process() const {
    return run.transport.kind == sim::TransportSpec::Kind::kTcp;
  }
  /// The process that owns printing, JSON, and VTK output.
  [[nodiscard]] bool is_io_root() const {
    return !multi_process() || run.transport.rank == 0;
  }
};

/// Exit code a multi-process rank returns on any run failure: EX_TEMPFAIL,
/// the launcher's cue that respawning the team (with --resume) may recover
/// the campaign.  Usage/configuration errors keep exiting 2 — those are
/// fatal and the launcher propagates them.
constexpr int kExitRetryable = 75;

[[noreturn]] void usage(int code) {
  std::fprintf(
      stderr,
      "usage: run_case --case NAME|all [--list]\n"
      "                [--n N] [--steps S | --t-end T] [--smoke]\n"
      "                [--precision fp64|fp32|fp16x32|bf16x32] [--scheme igr|weno]\n"
      "                [--recon 1|3|5] [--ranks rx,ry,rz|N] [--jacobi]\n"
      "                [--exec serial|openmp] [--threads T]\n"
      "                [--vtk out.vtk] [--json out.json]\n"
      "                [--save ckpt.bin] [--restart ckpt.bin]\n"
      "  observability (see README 'Observability'):\n"
      "                [--phase-timing] [--telemetry out.jsonl]\n"
      "                [--trace out.json]\n"
      "  fault tolerance (single --case; see README 'Fault tolerance'):\n"
      "                [--checkpoint-every N] [--ckpt-dir DIR] [--resume]\n"
      "                [--keep K] [--max-retries R] [--cfl-backoff X]\n"
      "                [--cfl-scale X] [--health-every N]\n"
      "                [--strict-pressure] [--inject SPEC]\n"
      "  SPEC: post=N,complete=N,phase=N@RANK,io=N,kill=N@RANK,seed=S\n"
      "  multi-process (one rank per OS process; see igr_launch):\n"
      "                [--transport inproc|tcp] [--tp-rank R] [--tp-world W]\n"
      "                [--tp-dir DIR]\n"
      "                [--comm-timeout SECONDS]\n");
  std::exit(code);
}

void list_cases() {
  std::printf("%zu registered cases:\n", cases::all_cases().size());
  for (const auto& c : cases::all_cases())
    std::printf("  %-18s %s\n", c.name.c_str(), c.title.c_str());
}

void print_result(const cases::CaseSpec& spec, const char* precision,
                  const cases::RunResult& r) {
  std::printf("%-18s %-8s %4d steps  t=%.5f  %8.1f ns/cell/step\n",
              spec.name.c_str(), precision, r.steps, r.time, r.grind_ns);
  std::printf(
      "  max Mach %.3f  rho [%.4g, %.4g]  min p %.4g  KE %.5g  "
      "enstrophy %.5g\n",
      r.diag.max_mach, r.diag.min_density, r.diag.max_density,
      r.diag.min_pressure, r.diag.kinetic_energy, r.diag.enstrophy);
  const double m0 = r.totals_initial.rho, m1 = r.totals_final.rho;
  const double e0 = r.totals_initial.e, e1 = r.totals_final.e;
  std::printf("  mass %.8g (drift %.2e)  energy %.8g (drift %.2e)\n", m1,
              (m1 - m0) / (std::abs(m0) + 1e-300), e1,
              (e1 - e0) / (std::abs(e0) + 1e-300));
  if (r.l1_error >= 0.0)
    std::printf("  error vs analytic: L1 %.3e  Linf %.3e\n", r.l1_error,
                r.linf_error);
  std::printf("  state fnv1a 0x%016llx  dt fnv1a 0x%016llx\n",
              static_cast<unsigned long long>(r.state_fnv),
              static_cast<unsigned long long>(r.dt_fnv));
  if (r.diag.nonpositive_pressure_cells > 0)
    std::printf("  (%zu start-up transient cells with non-positive p)\n",
                r.diag.nonpositive_pressure_cells);
}

/// Did the run end broken — non-finite conserved totals, or a state the
/// health policy fails (NaN/Inf cells, which poison the totals, or
/// non-positive density)?  Only the IO root holds global results.
bool diverged(const cases::RunResult& r) {
  for (int c = 0; c < common::kNumVars; ++c)
    if (!std::isfinite(r.totals_final[c])) return true;
  return !(r.diag.min_density > 0.0);
}

/// A JSON number printed with `fmt`, or `null` for NaN and infinities,
/// which JSON cannot spell (a diverged run reports NaN diagnostics).
std::string json_num(const char* fmt, double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, fmt, v);
  return buf;
}

void json_result(std::FILE* f, const cases::CaseSpec& spec,
                 const char* precision, const cases::RunResult& r,
                 const cases::RunOptions& ropts, bool last) {
  const sim::FaultPlan& faults = ropts.faults;
  const auto g9 = [](double v) { return json_num("%.9g", v); };
  const auto g12 = [](double v) { return json_num("%.12g", v); };
  const auto e3 = [](double v) { return json_num("%.3e", v); };
  std::fprintf(f,
               "    {\"case\": \"%s\", \"precision\": \"%s\", "
               "\"cells\": %zu, \"steps\": %d, \"time\": %s,\n"
               "     \"grind_ns_per_cell_step\": %s,\n"
               "     \"diagnostics\": {\"max_mach\": %s, "
               "\"min_density\": %s, \"max_density\": %s, "
               "\"min_pressure\": %s, \"kinetic_energy\": %s, "
               "\"total_mass\": %s, \"total_energy\": %s, "
               "\"enstrophy\": %s, \"nonpositive_pressure_cells\": %zu},\n"
               "     \"mass_drift\": %s, \"energy_drift\": %s",
               spec.name.c_str(), precision, r.cells, r.steps,
               g9(r.time).c_str(), json_num("%.2f", r.grind_ns).c_str(),
               g9(r.diag.max_mach).c_str(), g9(r.diag.min_density).c_str(),
               g9(r.diag.max_density).c_str(),
               g9(r.diag.min_pressure).c_str(),
               g9(r.diag.kinetic_energy).c_str(),
               g12(r.diag.total_mass).c_str(),
               g12(r.diag.total_energy).c_str(),
               g9(r.diag.enstrophy).c_str(),
               r.diag.nonpositive_pressure_cells,
               e3((r.totals_final.rho - r.totals_initial.rho) /
                  (std::abs(r.totals_initial.rho) + 1e-300))
                   .c_str(),
               e3((r.totals_final.e - r.totals_initial.e) /
                  (std::abs(r.totals_initial.e) + 1e-300))
                   .c_str());
  if (r.l1_error >= 0.0)
    std::fprintf(f, ",\n     \"l1_error\": %s, \"linf_error\": %s",
                 json_num("%.6e", r.l1_error).c_str(),
                 json_num("%.6e", r.linf_error).c_str());
  std::fprintf(f, ",\n     \"state_fnv\": \"0x%016llx\", \"dt_fnv\": \"0x%016llx\"",
               static_cast<unsigned long long>(r.state_fnv),
               static_cast<unsigned long long>(r.dt_fnv));
  if (r.has_phases) {
    // bench_grind's breakdown format, so the two reports diff directly.
    std::fprintf(f, ",\n     \"phase_ns_per_cell_step\": {");
    for (int p = 0; p < common::PhaseProfile::kNumPhases; ++p) {
      const auto ph = static_cast<common::PhaseProfile::Phase>(p);
      std::fprintf(f, "%s\"%s\": %s", p == 0 ? "" : ", ",
                   common::PhaseProfile::name(ph),
                   json_num("%.2f", r.phase_ns[static_cast<std::size_t>(p)])
                       .c_str());
    }
    std::fputc('}', f);
  }
  if (!ropts.telemetry.empty())
    std::fprintf(f, ",\n     \"telemetry\": \"%s\"",
                 ropts.telemetry.c_str());
  if (!ropts.trace.empty())
    std::fprintf(f, ",\n     \"trace\": \"%s\"", ropts.trace.c_str());
  if (faults.armed())
    std::fprintf(f, ",\n     \"fault_plan\": \"%s\", \"fault_seed\": %llu",
                 faults.describe().c_str(),
                 static_cast<unsigned long long>(faults.seed));
  std::fprintf(f, "}%s\n", last ? "" : ",");
}

/// Run one case; VTK/checkpoint options only apply to single-case mode.
cases::RunResult run_one(const cases::CaseSpec& spec, const CliOptions& cli) {
  cases::RunOptions opts = cli.run;
  if (cli.smoke) {
    if (opts.n == 0) opts.n = spec.golden_n;
    if (opts.steps == 0 && opts.t_end < 0.0) opts.steps = spec.golden_steps;
  }
  // One stateful drive per precision; the VTK/checkpoint blocks are no-ops
  // when those options are empty, so every flow shares this path.
  auto drive = [&](auto policy_tag) {
    using Policy = decltype(policy_tag);
    if (cli.guarded) {
      // Fault-tolerance envelope: periodic crash-safe checkpoints with a
      // manifest, resume-from-latest-valid, health-guarded rollback/retry.
      auto rep = cases::run_case_guarded<Policy>(spec, opts, cli.guard);
      if (cli.is_io_root()) {
        std::printf(
            "guard: %s  retries %d  checkpoints %d written, %d rejected, "
            "%d failed writes%s  cfl-scale %.4g  inject %s\n",
            rep.completed ? "completed" : "FAILED", rep.retries,
            rep.checkpoints_written, rep.checkpoints_rejected,
            rep.checkpoint_failures,
            rep.resumed_step >= 0
                ? ("  (resumed at step " + std::to_string(rep.resumed_step) +
                   ")")
                      .c_str()
                : "",
            rep.final_cfl_scale, rep.fault_plan.c_str());
      }
      if (!rep.completed)
        throw std::runtime_error("guarded run failed: " + rep.failure);
      return rep.result;
    }
    cases::CaseRun<Policy> run(spec, opts);
    if (!cli.restart_ckpt.empty()) run.load_checkpoint(cli.restart_ckpt);
    auto r = run.run();
    if (!cli.save_ckpt.empty()) {
      run.save_checkpoint(cli.save_ckpt);
      if (cli.is_io_root())
        std::printf("checkpoint -> %s\n", cli.save_ckpt.c_str());
    }
    if (!cli.vtk.empty()) {
      run.sim().write_vtk(cli.vtk);
      if (cli.is_io_root()) std::printf("vtk -> %s\n", cli.vtk.c_str());
    }
    return r;
  };
  switch (cli.precision) {
    case cases::Precision::kFp32: return drive(common::Fp32{});
    case cases::Precision::kFp16x32: return drive(common::Fp16x32{});
    case cases::Precision::kBf16x32: return drive(common::Bf16x32{});
    case cases::Precision::kFp64: break;
  }
  return drive(common::Fp64{});
}

}  // namespace

int main(int argc, char** argv) {
  namespace ccli = common::cli;
  CliOptions cli;
  ccli::Args args("run_case", argc, argv);
  while (args.next()) {
    if (args.is("--list")) {
      list_cases();
      return 0;
    } else if (args.is("--case")) {
      cli.case_name = args.value();
    } else if (args.is("--n")) {
      cli.run.n = args.int_value(0);
    } else if (args.is("--steps")) {
      cli.run.steps = args.int_value(0);
    } else if (args.is("--t-end")) {
      cli.run.t_end = args.double_value();
    } else if (args.is("--smoke")) {
      cli.smoke = true;
    } else if (args.is("--precision")) {
      const char* p = args.value();
      if (!cases::parse_precision(p, &cli.precision))
        args.die(std::string("bad --precision '") + p +
                 "' (expected fp64|fp32|fp16x32|bf16x32)");
    } else if (args.is("--scheme")) {
      cli.run.scheme = args.choice_value({"igr", "weno"}) == 0
                           ? app::SchemeKind::kIgr
                           : app::SchemeKind::kBaselineWeno;
    } else if (args.is("--recon")) {
      constexpr fv::ReconScheme kOrders[] = {fv::ReconScheme::kFirst,
                                             fv::ReconScheme::kThird,
                                             fv::ReconScheme::kFifth};
      cli.run.recon = kOrders[args.choice_value({"1", "3", "5"})];
    } else if (args.is("--ranks")) {
      const auto rs = args.ranks_value();
      cli.run.ranks = rs.balanced ? mesh::Decomp::balanced_layout(rs.count)
                                  : rs.layout;
    } else if (args.is("--exec")) {
      cli.run.exec = args.choice_value({"serial", "openmp"}) == 0
                         ? common::ExecBackend::kSerial
                         : common::ExecBackend::kOpenMP;
    } else if (args.is("--threads")) {
      cli.run.threads = args.int_value(0, 4096);
    } else if (args.is("--jacobi")) {
      cli.run.jacobi_sweeps = true;
    } else if (args.is("--phase-timing")) {
      cli.run.phase_timing = true;
    } else if (args.is("--telemetry")) {
      cli.run.telemetry = args.value();
    } else if (args.is("--trace")) {
      cli.run.trace = args.value();
    } else if (args.is("--vtk")) {
      cli.vtk = args.value();
    } else if (args.is("--json")) {
      cli.json = args.value();
    } else if (args.is("--save")) {
      cli.save_ckpt = args.value();
    } else if (args.is("--restart")) {
      cli.restart_ckpt = args.value();
    } else if (args.is("--checkpoint-every")) {
      cli.guard.checkpoint_every = args.int_value(0);
      cli.guarded = true;
    } else if (args.is("--ckpt-dir")) {
      cli.guard.dir = args.value();
      cli.guarded = true;
    } else if (args.is("--resume")) {
      cli.guard.resume = true;
      cli.guarded = true;
    } else if (args.is("--keep")) {
      cli.guard.keep = args.int_value(1, igr::io::kManifestLimit);
      cli.guarded = true;
    } else if (args.is("--max-retries")) {
      cli.guard.max_retries = args.int_value(0);
      cli.guarded = true;
    } else if (args.is("--cfl-backoff")) {
      cli.guard.cfl_backoff = args.double_value();
      cli.guarded = true;
    } else if (args.is("--cfl-scale")) {
      cli.run.cfl_scale = args.double_value();
    } else if (args.is("--health-every")) {
      cli.guard.health_every = args.int_value(0);
      cli.guarded = true;
    } else if (args.is("--strict-pressure")) {
      cli.guard.strict_pressure = true;
      cli.guarded = true;
    } else if (args.is("--inject")) {
      try {
        cli.run.faults = sim::FaultPlan::parse(args.value());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "run_case: %s\n", e.what());
        return 2;
      }
      cli.guarded = true;
    } else if (args.is("--transport")) {
      try {
        cli.run.transport.kind = sim::TransportSpec::parse_kind(args.value());
      } catch (const std::exception& e) {
        args.die(e.what());
      }
    } else if (args.is("--tp-rank")) {
      cli.run.transport.rank = args.int_value(0);
    } else if (args.is("--tp-world")) {
      cli.run.transport.world = args.int_value(1);
    } else if (args.is("--tp-dir")) {
      cli.run.transport.dir = args.value();
    } else if (args.is("--comm-timeout")) {
      cli.run.comm_timeout_s = args.double_value();
    } else {
      usage(args.is("--help") ? 0 : 2);
    }
  }
  if (cli.case_name.empty()) usage(2);
  if (cli.multi_process()) {
    if (cli.case_name == "all") {
      std::fprintf(stderr,
                   "run_case: --transport tcp needs a single --case\n");
      return 2;
    }
    if (cli.run.transport.dir.empty()) {
      std::fprintf(stderr,
                   "run_case: --transport tcp needs --tp-dir (the rendezvous "
                   "directory igr_launch provides)\n");
      return 2;
    }
  }
  if (cli.run.faults.armed() && cli.is_io_root())
    std::printf("fault plan: %s\n", cli.run.faults.describe().c_str());

  std::vector<const cases::CaseSpec*> selected;
  if (cli.case_name == "all") {
    // One output file / one checkpoint cannot serve 14 differently shaped
    // cases — these flows are single-case only.
    if (!cli.vtk.empty() || !cli.save_ckpt.empty() ||
        !cli.restart_ckpt.empty() || cli.guarded ||
        !cli.run.telemetry.empty() || !cli.run.trace.empty()) {
      std::fprintf(stderr,
                   "run_case: --vtk/--save/--restart/--telemetry/--trace and "
                   "the fault-tolerance flags need a single --case, not "
                   "'all'\n");
      return 2;
    }
    for (const auto& c : cases::all_cases()) selected.push_back(&c);
  } else {
    const auto* spec = cases::find(cli.case_name);
    if (!spec) {
      std::fprintf(stderr, "run_case: unknown case '%s' (try --list)\n",
                   cli.case_name.c_str());
      return 2;
    }
    selected.push_back(spec);
  }

  // A multi-process rank's failure is the launcher's problem: exit
  // EX_TEMPFAIL so it reaps the team and respawns with --resume.
  const int fail_code = cli.multi_process() ? kExitRetryable : 1;
  std::vector<cases::RunResult> results;
  results.reserve(selected.size());
  bool any_diverged = false;
  for (const auto* spec : selected) {
    try {
      results.push_back(run_one(*spec, cli));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "run_case: %s: %s\n", spec->name.c_str(),
                   e.what());
      return fail_code;
    }
    if (cli.is_io_root()) {
      print_result(*spec, cases::precision_name(cli.precision),
                   results.back());
      if (diverged(results.back())) {
        std::fprintf(stderr,
                     "run_case: %s: diverged (non-finite totals or "
                     "non-positive density)\n",
                     spec->name.c_str());
        any_diverged = true;
      }
      if (!cli.run.telemetry.empty())
        std::printf("telemetry -> %s\n", cli.run.telemetry.c_str());
      if (!cli.run.trace.empty())
        std::printf("trace -> %s\n", cli.run.trace.c_str());
    }
  }

  if (!cli.json.empty() && cli.is_io_root()) {
    std::FILE* f = std::fopen(cli.json.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "run_case: cannot open %s\n", cli.json.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"cases\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i)
      json_result(f, *selected[i], cases::precision_name(cli.precision),
                  results[i], cli.run, i + 1 == results.size());
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", cli.json.c_str());
  }
  return any_diverged ? fail_code : 0;
}
