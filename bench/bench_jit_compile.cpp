// Three-way MIPS comparison of the VM execution engines, plus the JIT's
// compile-time budget, lowering-coverage census and Amdahl split.
//
// For each NAS kernel analogue, predecodes the image once and runs it to
// completion on the reference switch interpreter, the micro-op engine and
// the baseline JIT (profiling off on all three -- the trial-evaluation
// configuration). Reports retired-instructions-per-second per engine, the
// JIT's standalone compile+link time, and the cold (first run on a fresh
// image, compile included) vs warm (per-image code cache hit) wall time.
// All three engines must agree bit-for-bit on outputs and retired counts;
// any mismatch fails the run with a non-zero exit, so this binary doubles
// as an end-to-end differential check.
//
// After the MIPS table the binary prints:
//  - a lowering-coverage table (suite totals per op family: how many uops
//    compiled to inline native code vs an out-of-line helper call);
//  - an Amdahl table splitting each kernel's JIT wall time into jitted
//    code vs C++ helper calls (Machine::Options::time_jit_helpers), which
//    bounds the speedup still available from further inlining.
//
// On hosts without JIT support (non-x86-64, sanitizer builds, hardened
// kernels) the JIT columns are skipped and the switch/micro comparison
// still runs -- exit stays 0 so CI sanitizer legs can execute the binary.
//
// Usage: bench_jit_compile [S|W|A] [--quick] [--json FILE]
//                          [--min-geomean X]
//   --quick: class S, one repetition per engine (the CI smoke
//   configuration; still prints the full table).
//   --json FILE: also write the per-kernel rows, coverage census and
//   geomean as one JSON object (seeds BENCH_JIT.json).
//   --min-geomean X: exit non-zero when the jit/micro geomean falls below
//   X (CI perf floor; ignored when the JIT is unavailable).
#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "kernels/workload.hpp"
#include "support/strings.hpp"
#include "support/timer.hpp"
#include "vm/jit/jit.hpp"
#include "vm/machine.hpp"

namespace {

struct EngineRun {
  double best_seconds = 0.0;
  double first_seconds = 0.0;  // cold run: includes compile+link on the JIT
  std::uint64_t retired = 0;
  std::vector<double> outputs;
  bool ok = false;
  std::string error;
};

EngineRun run_best_of(
    const std::shared_ptr<const fpmix::vm::ExecutableImage>& exec,
    fpmix::vm::Engine engine, std::uint64_t max_instructions, int reps) {
  EngineRun out;
  for (int rep = 0; rep < reps; ++rep) {
    fpmix::vm::Machine::Options opts;
    opts.engine = engine;
    opts.profile = false;
    opts.max_instructions = max_instructions;
    fpmix::vm::Machine m(exec, opts);
    fpmix::Timer t;
    const fpmix::vm::RunResult r = m.run();
    const double secs = t.elapsed_seconds();
    if (rep == 0) out.first_seconds = secs;
    if (rep == 0 || secs < out.best_seconds) out.best_seconds = secs;
    out.retired = m.instructions_retired();
    out.outputs = m.output_f64();
    out.ok = r.ok();
    out.error = r.trap_message;
    if (!out.ok) break;
  }
  return out;
}

bool bit_identical(const EngineRun& a, const EngineRun& b) {
  if (a.retired != b.retired || a.outputs.size() != b.outputs.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.outputs.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a.outputs[i]) !=
        std::bit_cast<std::uint64_t>(b.outputs[i])) {
      return false;
    }
  }
  return true;
}

/// One timed-helper run (Amdahl view): total wall time plus the portion
/// spent inside the out-of-line C++ helpers. intrin_fn is withheld under
/// time_jit_helpers so intrinsic calls route through the timed helper.
struct AmdahlRun {
  double total_seconds = 0.0;
  double helper_seconds = 0.0;
  std::uint64_t helper_calls = 0;
  bool ok = false;
};

AmdahlRun run_amdahl(
    const std::shared_ptr<const fpmix::vm::ExecutableImage>& exec,
    std::uint64_t max_instructions) {
  fpmix::vm::Machine::Options opts;
  opts.engine = fpmix::vm::Engine::kJit;
  opts.profile = false;
  opts.max_instructions = max_instructions;
  opts.time_jit_helpers = true;
  fpmix::vm::Machine m(exec, opts);
  fpmix::Timer t;
  const fpmix::vm::RunResult r = m.run();
  AmdahlRun out;
  out.total_seconds = t.elapsed_seconds();
  out.helper_seconds = 1e-9 * static_cast<double>(m.jit_helper_ns());
  out.helper_calls = m.jit_helper_calls();
  out.ok = r.ok();
  return out;
}

struct KernelRow {
  std::string name;
  std::uint64_t retired = 0;
  double sw_mips = 0.0;
  double micro_mips = 0.0;
  double jit_mips = 0.0;
  double speedup = 0.0;
  double compile_ms = 0.0;
  double cold_ms = 0.0;
  double warm_ms = 0.0;
  AmdahlRun amdahl;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fpmix;

  char cls = 'W';
  bool quick = false;
  std::string json_path;
  double min_geomean = 0.0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--min-geomean") == 0 && i + 1 < argc) {
      min_geomean = std::atof(argv[++i]);
    } else if (std::strlen(argv[i]) == 1) {
      cls = argv[i][0];
    }
  }
  if (quick) cls = 'S';
  const int reps = quick ? 1 : 3;

  const bool jit = vm::jit::jit_supported();
  if (!jit) {
    std::printf("note: jit unavailable on this host (%s); "
                "jit columns skipped\n",
                vm::jit::jit_unsupported_reason());
  }

  std::vector<kernels::Workload> suite;
  suite.push_back(kernels::make_ep(cls));
  suite.push_back(kernels::make_cg(cls));
  suite.push_back(kernels::make_ft(cls));
  suite.push_back(kernels::make_mg(cls));
  suite.push_back(kernels::make_bt(cls));
  suite.push_back(kernels::make_lu(cls));
  suite.push_back(kernels::make_sp(cls));

  std::printf("VM engines + JIT compile budget, NAS kernel suite, class %c "
              "(best of %d rep%s)\n",
              cls, reps, reps == 1 ? "" : "s");
  bench::print_rule(100);
  std::printf("%-8s %13s %10s %10s %10s %8s %9s %9s %9s\n", "bench",
              "instructions", "sw MIPS", "micro MIPS", "jit MIPS",
              "jit/mic", "compile", "cold ms", "warm ms");
  bench::print_rule(100);

  bool all_match = true;
  double log_speedup_sum = 0.0;
  std::size_t speedup_rows = 0;
  vm::jit::LoweringStats coverage;  // suite totals from the compile probes
  std::vector<KernelRow> rows;
  for (const kernels::Workload& w : suite) {
    const program::Image img = kernels::build_image(w);

    // Standalone compile+link cost, measured outside the Machine so the
    // table separates translation from execution. Monolithic (global-form)
    // compile of the whole stream, the same work a cold Machine run does.
    // The blob's per-family lowering census is accumulated into `coverage`.
    double compile_seconds = 0.0;
    if (jit) {
      const auto exec_probe = vm::ExecutableImage::build(img);
      Timer ct;
      const auto blob = vm::jit::compile_stream(
          exec_probe->uops(), vm::jit::CompileMode{false, false});
      std::vector<vm::jit::LinkSegment> segs;
      segs.push_back({blob, 0, 0});
      const auto linked =
          vm::jit::JitImage::link(segs, exec_probe->uops().size());
      compile_seconds = ct.elapsed_seconds();
      coverage.add(blob->stats);
      if (linked == nullptr) {
        std::printf("%-8s FAILED: jit link refused\n", w.name.c_str());
        all_match = false;
        continue;
      }
    }

    const auto exec = vm::ExecutableImage::build(img);
    const EngineRun sw = run_best_of(exec, vm::Engine::kSwitch,
                                     w.max_instructions, reps);
    const EngineRun micro = run_best_of(exec, vm::Engine::kMicroOp,
                                        w.max_instructions, reps);
    // reps + 1 so the warm column exists even under --quick: rep 0 is the
    // cold compile, later reps hit the per-image code cache.
    const EngineRun jrun =
        jit ? run_best_of(exec, vm::Engine::kJit, w.max_instructions,
                          reps + 1)
            : EngineRun{};
    if (!sw.ok || !micro.ok || (jit && !jrun.ok)) {
      std::printf("%-8s FAILED: %s\n", w.name.c_str(),
                  (!sw.ok   ? sw.error
                   : !micro.ok ? micro.error
                               : jrun.error)
                      .c_str());
      all_match = false;
      continue;
    }
    if (!bit_identical(sw, micro) || (jit && !bit_identical(sw, jrun))) {
      std::printf("%-8s ENGINE MISMATCH (outputs or retired count)\n",
                  w.name.c_str());
      all_match = false;
      continue;
    }

    KernelRow row;
    row.name = w.name;
    row.retired = jit ? jrun.retired : micro.retired;
    row.sw_mips = static_cast<double>(sw.retired) / sw.best_seconds / 1e6;
    row.micro_mips =
        static_cast<double>(micro.retired) / micro.best_seconds / 1e6;
    if (jit) {
      row.jit_mips =
          static_cast<double>(jrun.retired) / jrun.best_seconds / 1e6;
      row.speedup = row.jit_mips / row.micro_mips;
      row.compile_ms = 1e3 * compile_seconds;
      row.cold_ms = 1e3 * jrun.first_seconds;
      row.warm_ms = 1e3 * jrun.best_seconds;
      row.amdahl = run_amdahl(exec, w.max_instructions);
      log_speedup_sum += std::log(row.speedup);
      ++speedup_rows;
      std::printf("%-8s %13llu %10.1f %10.1f %10.1f %7.2fx %7.2fms "
                  "%9.2f %9.2f\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.retired), row.sw_mips,
                  row.micro_mips, row.jit_mips, row.speedup, row.compile_ms,
                  row.cold_ms, row.warm_ms);
    } else {
      std::printf("%-8s %13llu %10.1f %10.1f %10s %8s %9s %9s %9s\n",
                  row.name.c_str(),
                  static_cast<unsigned long long>(row.retired), row.sw_mips,
                  row.micro_mips, "-", "-", "-", "-", "-");
    }
    rows.push_back(row);
  }
  bench::print_rule(100);
  double geomean = 0.0;
  if (speedup_rows > 0) {
    geomean = std::exp(log_speedup_sum / static_cast<double>(speedup_rows));
    std::printf("geomean speedup: %.2fx (jit over micro-op)\n", geomean);
  }

  if (jit) {
    // Lowering-coverage census: suite totals per op family from the
    // compile probes above. "native" uops run as inline host code;
    // "helper" call an out-of-line C++ helper (intrinsic/ret).
    std::printf("\nJIT lowering coverage (suite totals, static uop counts)\n");
    bench::print_rule(53);
    std::printf("%-12s %10s %10s %9s\n", "family", "native", "helper",
                "native%");
    bench::print_rule(53);
    for (int f = 0; f < vm::jit::LoweringStats::kNumFamilies; ++f) {
      const std::uint64_t n = coverage.native[f];
      const std::uint64_t h = coverage.helper[f];
      if (n + h == 0) continue;
      std::printf("%-12s %10llu %10llu %8.1f%%\n",
                  vm::jit::lowering_family_name(f),
                  static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(h),
                  100.0 * static_cast<double>(n) /
                      static_cast<double>(n + h));
    }
    bench::print_rule(53);
    const std::uint64_t tn = coverage.total_native();
    const std::uint64_t th = coverage.total_helper();
    std::printf("%-12s %10llu %10llu %8.1f%%\n", "total",
                static_cast<unsigned long long>(tn),
                static_cast<unsigned long long>(th),
                100.0 * static_cast<double>(tn) /
                    static_cast<double>(std::max<std::uint64_t>(1, tn + th)));
    std::printf("fused cmp+jcc pairs: %llu   regalloc blocks: %llu   "
                "promoted slots: %llu\n",
                static_cast<unsigned long long>(coverage.fused_pairs),
                static_cast<unsigned long long>(coverage.reg_alloc_blocks),
                static_cast<unsigned long long>(coverage.reg_alloc_slots));

    // Amdahl split: how much of each kernel's wall time the jitted code
    // retains vs what still leaks into C++ helpers. The timed run routes
    // intrinsics through the helper path, so "helper" bounds what further
    // intrinsic inlining could still recover.
    std::printf("\nAmdahl split (timed-helper run: jitted vs helper time)\n");
    bench::print_rule(64);
    std::printf("%-8s %11s %11s %11s %9s\n", "bench", "total ms",
                "jitted ms", "helper ms", "helper%");
    bench::print_rule(64);
    for (const KernelRow& r : rows) {
      if (!r.amdahl.ok) {
        std::printf("%-8s timed-helper run failed\n", r.name.c_str());
        continue;
      }
      const double helper_ms = 1e3 * r.amdahl.helper_seconds;
      const double total_ms = 1e3 * r.amdahl.total_seconds;
      std::printf("%-8s %11.2f %11.2f %11.2f %8.1f%%\n", r.name.c_str(),
                  total_ms, total_ms - helper_ms, helper_ms,
                  100.0 * helper_ms / std::max(1e-9, total_ms));
    }
    bench::print_rule(64);
  }

  if (!json_path.empty()) {
    std::string j = "{\n";
    j += strformat("  \"bench\": \"bench_jit_compile\",\n");
    j += strformat("  \"class\": \"%c\",\n", cls);
    j += strformat("  \"reps\": %d,\n", reps);
    j += strformat("  \"jit_available\": %s,\n", jit ? "true" : "false");
    j += "  \"kernels\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const KernelRow& r = rows[i];
      j += strformat(
          "    {\"name\": \"%s\", \"instructions\": %llu, "
          "\"switch_mips\": %.1f, \"micro_mips\": %.1f, "
          "\"jit_mips\": %.1f, \"speedup\": %.3f, \"compile_ms\": %.3f, "
          "\"cold_ms\": %.3f, \"warm_ms\": %.3f, \"helper_ms\": %.3f, "
          "\"helper_calls\": %llu, \"helper_frac\": %.4f}%s\n",
          r.name.c_str(), static_cast<unsigned long long>(r.retired),
          r.sw_mips, r.micro_mips, r.jit_mips, r.speedup, r.compile_ms,
          r.cold_ms, r.warm_ms, 1e3 * r.amdahl.helper_seconds,
          static_cast<unsigned long long>(r.amdahl.helper_calls),
          r.amdahl.helper_seconds / std::max(1e-9, r.amdahl.total_seconds),
          i + 1 < rows.size() ? "," : "");
    }
    j += "  ],\n";
    j += strformat("  \"geomean_speedup\": %.3f,\n", geomean);
    j += "  \"lowering\": {\n";
    for (int f = 0; f < vm::jit::LoweringStats::kNumFamilies; ++f) {
      j += strformat(
          "    \"%s\": {\"native\": %llu, \"helper\": %llu},\n",
          vm::jit::lowering_family_name(f),
          static_cast<unsigned long long>(coverage.native[f]),
          static_cast<unsigned long long>(coverage.helper[f]));
    }
    j += strformat("    \"fused_pairs\": %llu,\n",
                   static_cast<unsigned long long>(coverage.fused_pairs));
    j += strformat(
        "    \"reg_alloc_blocks\": %llu,\n",
        static_cast<unsigned long long>(coverage.reg_alloc_blocks));
    j += strformat(
        "    \"reg_alloc_slots\": %llu\n",
        static_cast<unsigned long long>(coverage.reg_alloc_slots));
    j += "  }\n}\n";
    std::ofstream f(json_path);
    if (!f) {
      std::printf("FAIL: cannot write %s\n", json_path.c_str());
      return 1;
    }
    f << j;
  }

  if (!all_match) {
    std::printf("FAIL: engines disagree; see rows above\n");
    return 1;
  }
  if (jit && min_geomean > 0.0 && geomean < min_geomean) {
    std::printf("FAIL: geomean %.2fx below floor %.2fx\n", geomean,
                min_geomean);
    return 1;
  }
  return 0;
}
