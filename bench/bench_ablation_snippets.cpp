// Ablation: snippet design choices (DESIGN.md section 6, items 3/4 and the
// Section 2.5 dataflow optimization).
//
//   - lean production snippets: production instrumentation elides
//     statically decidable checks (the paper's proposed future
//     optimization), saves scratch state once per run of snippets and skips
//     redundant re-boxing; each "production" row is compared with a
//     "reference" row built by the splice engine with the self-contained
//     Figure 6 snippet (tests/reference_instrument.hpp);
//   - sentinel check vs unconditional downcast: the Figure 6 tag test costs
//     instructions but is load-bearing -- without it, a value that is
//     already boxed gets re-narrowed as if its NaN-boxed bit pattern were a
//     double, and verification collapses.
//
// Exits non-zero when a production row's verdict differs from its reference
// row's, or when its dynamic overhead exceeds the reference's. Ends with one
// "retired BENCH CONFIG COUNT" line per production row: the instructions the
// instrumented kernel retires, which repeat exactly, so
// tests/parity/snippet_ablation.sh pins them against a golden.
#include <cstdio>
#include <string>
#include <utility>

#include "bench_util.hpp"
#include "reference_instrument.hpp"
#include "verify/evaluate.hpp"

int main() {
  using namespace fpmix;
  std::printf("Snippet ablations: tag check and dataflow elision\n\n");
  std::printf("%-8s %-26s %10s %9s %8s %8s\n", "bench", "variant",
              "snippet in", "ovh", "elided", "verify");
  bench::print_rule(76);

  int failures = 0;
  std::string retired;  // the production rows' retired-count lines
  for (auto make : {kernels::make_ep, kernels::make_mg, kernels::make_cg}) {
    const kernels::Workload w = make('W', 1);
    const program::Image orig = kernels::build_image(w);
    auto ix = config::StructureIndex::build(program::lift(orig));
    const auto verifier = kernels::make_verifier(w, orig);
    const bench::TimedRun ro = bench::run_timed(orig);

    // All-single configuration: the stress case for the tag check.
    config::PrecisionConfig all_single;
    for (std::size_t m = 0; m < ix.modules().size(); ++m) {
      all_single.set_module(m, config::Precision::kSingle);
    }
    const config::PrecisionConfig all_double;

    struct Row {
      bool ok = false;
      bool verified = false;
      double overhead = 0.0;
      std::uint64_t instructions = 0;
    };
    const auto row = [&](const char* label, const program::Image& inst,
                         const instrument::InstrumentStats& stats) {
      const bench::TimedRun ri = bench::run_timed(inst);
      Row r;
      r.ok = ri.ok;
      r.verified = ri.ok && verifier->verify(ri.outputs);
      r.overhead =
          ri.ok ? double(ri.instructions) / double(ro.instructions) : 0.0;
      r.instructions = ri.instructions;
      std::printf("%-8s %-26s %10zu %8.2fX %8zu %8s\n", w.name.c_str(),
                  label, stats.snippet_instrs, r.overhead,
                  stats.checks_elided,
                  !r.ok ? "CRASH" : (r.verified ? "pass" : "fail"));
      return r;
    };

    const std::pair<const char*, const config::PrecisionConfig*> configs[] = {
        {"double", &all_double}, {"single", &all_single}};
    for (const auto& [prec, cfg] : configs) {
      instrument::InstrumentStats ref_stats, prod_stats;
      const Row ref =
          row((std::string(prec) + " / reference").c_str(),
              reference::instrument_image(orig, ix, *cfg, {}, &ref_stats),
              ref_stats);
      const Row prod =
          row((std::string(prec) + " / production").c_str(),
              instrument::instrument_image(orig, ix, *cfg, &prod_stats),
              prod_stats);
      retired += "retired " + w.name + " " + prec + " " +
                 std::to_string(prod.instructions) + "\n";
      if (prod.ok != ref.ok || prod.verified != ref.verified) {
        std::fprintf(stderr, "MISMATCH: %s %s production verdict differs "
                     "from the reference\n", w.name.c_str(), prec);
        ++failures;
      }
      if (prod.overhead > ref.overhead) {
        std::fprintf(stderr, "MISMATCH: %s %s production overhead %.2fX "
                     "exceeds the reference's %.2fX\n", w.name.c_str(), prec,
                     prod.overhead, ref.overhead);
        ++failures;
      }
    }
    reference::Options no_check;
    no_check.check_tags = false;
    instrument::InstrumentStats stats;
    row("single / no tag check",
        reference::instrument_image(orig, ix, all_single, no_check, &stats),
        stats);
    std::printf("\n");
  }
  std::printf("note: 'single / no tag check' demonstrates that Figure 6's "
              "sentinel test is\nload-bearing -- unconditional narrowing "
              "re-converts already-boxed values.\n\n%s",
              retired.c_str());
  return failures == 0 ? 0 : 1;
}
