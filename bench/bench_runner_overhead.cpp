// Process-isolation overhead: in-process trials vs sandboxed workers.
//
// In-process: the seed path -- trials run on in-process lanes inside the
// driver, sharing its address space.
// Isolated: every trial crosses a fork boundary -- canonical-key request
// out, CRC-framed verdict back, rlimits armed in the child. The gap
// between the two columns is the rent the sandbox charges for making a
// SIGSEGV in one trial invisible to the other thousand.
#include <cstdio>

#include "bench_util.hpp"
#include "runner/trial_runner.hpp"
#include "search/search.hpp"

namespace {

using namespace fpmix;

struct Row {
  double seconds = 0.0;
  std::size_t trials = 0;
  search::SearchResult result;
};

Row run_mode(const kernels::Workload& w, bool isolate, std::size_t lanes) {
  const program::Image img = kernels::build_image(w);
  auto ix = config::StructureIndex::build(program::lift(img));
  const auto verifier = kernels::make_verifier(w, img);

  search::SearchOptions opts;
  opts.keep_log = false;
  opts.num_threads = lanes;
  opts.isolate_trials = isolate;
  opts.num_workers = lanes;

  Row row;
  Timer t;
  row.result = search::run_search(img, &ix, *verifier, opts);
  row.seconds = t.elapsed_seconds();
  row.trials = row.result.configs_tested;
  return row;
}

void run_row(const kernels::Workload& w, std::size_t lanes) {
  const Row in = run_mode(w, /*isolate=*/false, lanes);
  const Row iso = run_mode(w, /*isolate=*/true, lanes);
  const double in_tps = in.seconds > 0 ? in.trials / in.seconds : 0.0;
  const double iso_tps = iso.seconds > 0 ? iso.trials / iso.seconds : 0.0;
  const bool identical =
      in.result.final_config == iso.result.final_config &&
      in.trials == iso.trials;
  std::printf("  %-24s %6zu %9.1f/s %9.1f/s %7.2fx %s\n", w.name.c_str(),
              in.trials, in_tps, iso_tps,
              iso_tps > 0 ? in_tps / iso_tps : 0.0,
              identical ? "identical" : "MISMATCH");
  std::fflush(stdout);
}

}  // namespace

int main() {
  if (!fpmix::runner::isolation_supported()) {
    std::printf("process isolation unsupported on this platform; skipping\n");
    return 0;
  }
  const std::size_t lanes = 4;
  std::printf("Trial throughput: in-process vs sandboxed workers (%zu lanes)\n",
              lanes);
  std::printf("  %-24s %6s %11s %11s %8s %s\n", "workload", "trials",
              "in-proc", "isolated", "overhead", "result");
  bench::print_rule();
  run_row(fpmix::kernels::make_ep('W'), lanes);
  run_row(fpmix::kernels::make_mg('W'), lanes);
  run_row(fpmix::kernels::make_ft('W'), lanes);
  return 0;
}
