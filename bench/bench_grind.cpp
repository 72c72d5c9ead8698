/// \file bench_grind.cpp
/// The perf-trajectory harness: measures grind time (ns per cell per step,
/// the paper's Table 3 metric) on the Mach-10 single-jet workload (§6.2) for
/// every precision policy × reconstruction scheme of the IGR solver plus the
/// WENO5+HLLC baseline, and writes the results as BENCH_<name>.json.
///
/// Every PR that touches a hot path re-runs this and checks the JSON in, so
/// perf regressions are one `diff` away.  See PERF.md.
///
/// Usage:
///   bench_grind [--smoke] [--n N] [--warmup W] [--steps S]
///               [--threads T1,T2,...] [--case NAME]... [--label NAME]
///               [--out PATH]
///
/// --smoke shrinks the grid and step counts to a seconds-scale run for CI
/// (ctest label `bench-smoke`); default sizes match the checked-in numbers.
/// Each --case NAME (repeatable; see `run_case --list`) appends IGR grind
/// rows for that registered scenario at every precision, so grind time is
/// tracked per workload *shape* — BC mix, smooth vs shock-dominated —
/// rather than jet-only.  --threads re-runs the IGR matrix at each listed
/// exec-space width (the multi-core scaling table; 0 =
/// ambient); the baseline rows run once, ambient — the WENO baseline does
/// not go through the exec-space layer.

#include <array>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cases/case.hpp"
#include "common/cli.hpp"
#include "common/half.hpp"
#include "common/precision.hpp"

namespace {

using namespace igr;
using app::SchemeKind;

struct Row {
  std::string workload = "mach10_single_jet";
  std::string scheme;
  std::string precision;
  std::string recon;
  int threads = 0;  ///< Exec-space width the row ran at (0 = ambient).
  double grind_ns = 0.0;
  bool has_phases = false;
  std::array<double, igr::common::PhaseProfile::kNumPhases> phase_ns{};
};

const char* recon_name(fv::ReconScheme r) {
  switch (r) {
    case fv::ReconScheme::kFirst: return "recon1";
    case fv::ReconScheme::kThird: return "recon3";
    case fv::ReconScheme::kFifth: return "recon5";
    case fv::ReconScheme::kWeno5: return "weno5";
  }
  return "?";
}

Row report_row(Row r, const igr::bench::GrindSample& s) {
  r.grind_ns = s.grind_ns;
  r.has_phases = s.has_phases;
  r.phase_ns = s.phase_ns;
  std::printf("  %-18s %-20s %-8s %-7s t=%d %10.1f ns/cell/step  "
              "(%.3g cells/s)",
              r.workload.c_str(), r.scheme.c_str(), r.precision.c_str(),
              r.recon.c_str(), r.threads, r.grind_ns, 1.0e9 / r.grind_ns);
  if (r.has_phases) {
    std::printf("  [");
    for (int p = 0; p < igr::common::PhaseProfile::kNumPhases; ++p) {
      std::printf("%s%s %.0f",
                  p ? " " : "",
                  igr::common::PhaseProfile::name(
                      static_cast<igr::common::PhaseProfile::Phase>(p)),
                  r.phase_ns[static_cast<std::size_t>(p)]);
    }
    std::printf("]");
  }
  std::printf("\n");
  std::fflush(stdout);
  return r;
}

template <class Policy>
Row run_one(SchemeKind scheme, fv::ReconScheme recon, int n, int warmup,
            int steps, int threads) {
  Row r;
  r.threads = threads;
  r.scheme = (scheme == SchemeKind::kIgr) ? "igr" : "baseline_weno_hllc";
  r.precision = std::string(Policy::name);
  r.recon = recon_name(scheme == SchemeKind::kIgr ? recon
                                                  : fv::ReconScheme::kWeno5);
  return report_row(std::move(r),
                    bench::measure_grind<Policy>(scheme, n, warmup, steps,
                                                 recon, threads));
}

template <class Policy>
Row run_case_row(const igr::cases::CaseSpec& spec, int n, int warmup,
                 int steps, int threads) {
  Row r;
  r.threads = threads;
  r.workload = spec.name;
  r.scheme = "igr";
  r.precision = std::string(Policy::name);
  r.recon = recon_name(fv::ReconScheme::kFifth);
  return report_row(std::move(r),
                    bench::measure_case_grind<Policy>(
                        spec, SchemeKind::kIgr, n, warmup, steps,
                        fv::ReconScheme::kFifth, threads));
}

void write_json(const std::string& path, const std::string& label, int n,
                int warmup, int steps, const std::vector<Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "bench_grind: cannot open %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"name\": \"%s\",\n", label.c_str());
  std::fprintf(f, "  \"workload\": \"mach10_single_jet\",\n");
  std::fprintf(f, "  \"metric\": \"grind_ns_per_cell_step\",\n");
  std::fprintf(f, "  \"half_backend\": \"%s\",\n",
               std::string(common::half_batch::backend_name()).c_str());
  std::fprintf(f, "  \"grid\": [%d, %d, %d],\n", n, n, n + n / 2);
  std::fprintf(f, "  \"warmup_steps\": %d,\n", warmup);
  std::fprintf(f, "  \"timed_steps\": %d,\n", steps);
  std::fprintf(f, "  \"results\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"scheme\": \"%s\", "
                 "\"precision\": \"%s\", "
                 "\"recon\": \"%s\", \"threads\": %d, "
                 "\"grind_ns_per_cell_step\": %.2f, "
                 "\"cells_per_sec\": %.0f",
                 r.workload.c_str(), r.scheme.c_str(), r.precision.c_str(),
                 r.recon.c_str(), r.threads, r.grind_ns, 1.0e9 / r.grind_ns);
    if (r.has_phases) {
      // Per-phase attribution (same unit as the headline figure; the
      // remainder to grind_ns_per_cell_step is untimed orchestration).
      std::fprintf(f, ", \"phase_ns_per_cell_step\": {");
      for (int p = 0; p < igr::common::PhaseProfile::kNumPhases; ++p) {
        std::fprintf(f, "%s\"%s\": %.2f", p ? ", " : "",
                     igr::common::PhaseProfile::name(
                         static_cast<igr::common::PhaseProfile::Phase>(p)),
                     r.phase_ns[static_cast<std::size_t>(p)]);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "}%s\n", (i + 1 < rows.size()) ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  namespace ccli = igr::common::cli;
  int n = 32, warmup = 2, steps = 3;
  std::string out = "BENCH_grind.json";
  std::string label = "grind";
  std::vector<std::string> case_names;
  std::vector<int> thread_widths;  ///< Empty: one ambient-width pass.
  bool smoke = false;
  ccli::Args args("bench_grind", argc, argv);
  while (args.next()) {
    if (args.is("--smoke")) {
      smoke = true;
    } else if (args.is("--n")) {
      n = args.int_value(1);
    } else if (args.is("--warmup")) {
      warmup = args.int_value(0);
    } else if (args.is("--steps")) {
      steps = args.int_value(1);
    } else if (args.is("--threads")) {
      thread_widths = args.int_list_value(1);
    } else if (args.is("--case")) {
      case_names.emplace_back(args.value());
    } else if (args.is("--out")) {
      out = args.value();
    } else if (args.is("--label")) {
      label = args.value();
    } else {
      args.die(std::string("unknown arg ") + args.flag());
    }
  }
  if (smoke) {
    n = 16;
    warmup = 1;
    steps = 2;
    if (label == "grind") label = "smoke";
  }
  if (n < 8 || steps < 1 || warmup < 0) {
    std::fprintf(stderr,
                 "bench_grind: need --n >= 8 (reconstruction stencil + "
                 "inflow patch), --steps >= 1, --warmup >= 0\n");
    return 2;
  }

  // Fail fast on a bad case name — before minutes of jet matrix are spent.
  std::vector<const igr::cases::CaseSpec*> case_specs;
  for (const auto& name : case_names) {
    const auto* spec = igr::cases::find(name);
    if (!spec) {
      std::fprintf(stderr,
                   "bench_grind: unknown case '%s' (see run_case --list)\n",
                   name.c_str());
      return 2;
    }
    case_specs.push_back(spec);
  }

  std::printf("igrflow bench_grind: n=%d warmup=%d steps=%d half_backend=%s\n",
              n, warmup, steps,
              std::string(common::half_batch::backend_name()).c_str());
  std::vector<Row> rows;
  using common::Bf16x32;
  using common::Fp16x32;
  using common::Fp32;
  using common::Fp64;
  const auto kAll = {fv::ReconScheme::kFirst, fv::ReconScheme::kThird,
                     fv::ReconScheme::kFifth};
  // IGR: every precision × reconstruction order (Table 3's rows, extended
  // with the recon sweep so dispatch-level regressions are visible) — once
  // per requested exec-space width (one ambient pass without --threads).
  const auto igr_rows = [&](int t) {
    for (auto recon : kAll)
      rows.push_back(run_one<Fp64>(SchemeKind::kIgr, recon, n, warmup, steps,
                                   t));
    for (auto recon : kAll)
      rows.push_back(run_one<Fp32>(SchemeKind::kIgr, recon, n, warmup, steps,
                                   t));
    for (auto recon : kAll)
      rows.push_back(
          run_one<Fp16x32>(SchemeKind::kIgr, recon, n, warmup, steps, t));
    for (auto recon : kAll)
      rows.push_back(
          run_one<Bf16x32>(SchemeKind::kIgr, recon, n, warmup, steps, t));
    // Per-case grind rows (recon5, all IGR precisions): grind tracked per
    // scenario shape, not jet-only.
    for (const auto* spec : case_specs) {
      rows.push_back(run_case_row<Fp64>(*spec, n, warmup, steps, t));
      rows.push_back(run_case_row<Fp32>(*spec, n, warmup, steps, t));
      rows.push_back(run_case_row<Fp16x32>(*spec, n, warmup, steps, t));
      rows.push_back(run_case_row<Bf16x32>(*spec, n, warmup, steps, t));
    }
  };
  if (thread_widths.empty()) {
    igr_rows(0);
  } else {
    for (const int t : thread_widths) igr_rows(t);
  }
  // Baseline: WENO5+HLLC at FP64 (the state of the art the paper beats) and
  // FP32 (timing-only; unstable below FP64 per §4.3).  Always ambient: the
  // baseline does not go through the exec-space layer.
  rows.push_back(run_one<Fp64>(SchemeKind::kBaselineWeno,
                               fv::ReconScheme::kWeno5, n, warmup, steps, 0));
  rows.push_back(run_one<Fp32>(SchemeKind::kBaselineWeno,
                               fv::ReconScheme::kWeno5, n, warmup, steps, 0));

  write_json(out, label, n, warmup, steps, rows);
  return 0;
}
