// Figure 10 reproduction: automatic mixed-precision search on the NAS
// benchmark analogues.
//
// Paper (Figure 10), per benchmark and class W/A: the number of replacement
// candidates, configurations tested (usually fewer than candidates -- the
// pruning works; SP is the exception), the percentage of instructions
// replaced statically (37-95%), the percentage of executions replaced
// dynamically, and whether the final composed configuration passes.
#include <cstdio>

#include "bench_util.hpp"
#include "search/search.hpp"

int main(int argc, char** argv) {
  using namespace fpmix;
  // `--fast` restricts to class W for quick runs.
  const bool fast = argc > 1 && std::string_view(argv[1]) == "--fast";

  std::printf("Figure 10: automatic search results on NAS analogues\n");
  std::printf("(paper: candidates 397..6682, tested < candidates except sp, "
              "static 37-95%%, final mostly pass)\n\n");
  std::printf("%-8s %10s %8s %8s %9s %8s\n", "bench", "candidates", "tested",
              "static", "dynamic", "final");
  bench::print_rule(60);

  std::vector<kernels::Workload> workloads;
  for (char cls : {'W', 'A'}) {
    if (fast && cls == 'A') break;
    workloads.push_back(kernels::make_bt(cls));
    workloads.push_back(kernels::make_cg(cls));
    workloads.push_back(kernels::make_ep(cls));
    workloads.push_back(kernels::make_ft(cls));
    workloads.push_back(kernels::make_lu(cls));
    workloads.push_back(kernels::make_mg(cls));
    workloads.push_back(kernels::make_sp(cls));
  }

  for (const kernels::Workload& w : workloads) {
    const program::Image img = kernels::build_image(w);
    auto ix = config::StructureIndex::build(program::lift(img));
    const auto verifier = kernels::make_verifier(w, img);
    search::SearchOptions opts;
    opts.keep_log = false;
    Timer t;
    const search::SearchResult res =
        search::run_search(img, &ix, *verifier, opts);
    std::printf("%-8s %10zu %8zu %7.1f%% %8.1f%% %8s   (%.1fs)\n",
                w.name.c_str(), res.candidates, res.configs_tested,
                res.stats.static_pct, res.stats.dynamic_pct,
                res.final_passed ? "pass" : "fail", t.elapsed_seconds());
    std::fflush(stdout);
  }
  return 0;
}
