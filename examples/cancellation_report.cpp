// The dynamic cancellation detector (Section 4.4) as a standalone tool:
// instruments a benchmark, runs it, and reports where significant bits were
// lost to subtractive cancellation -- per instruction and as a magnitude
// histogram.
//
// Usage:  cancellation_report <ep|cg|ft|mg|bt|lu|sp|amg> [S|W|A|C]
//                             [--min-bits N]
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "instrument/cancellation.hpp"
#include "kernels/workload.hpp"
#include "vm/machine.hpp"

using namespace fpmix;

int main(int argc, char** argv) {
  std::string bench = argc > 1 ? argv[1] : "cg";
  char cls = 'W';
  instrument::CancellationOptions opts;
  opts.shadow_iters = 0;  // report-only runs use the lightweight detector
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--min-bits" && i + 1 < argc) {
      opts.min_cancel_bits = std::atoi(argv[++i]);
    } else if (arg.size() == 1) {
      cls = arg[0];
    }
  }

  const std::optional<kernels::Workload> workload =
      kernels::make_workload(bench, cls);
  if (!workload) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", bench.c_str());
    return 2;
  }
  const kernels::Workload& w = *workload;

  const program::Image img = kernels::build_image(w);
  const instrument::CancellationResult inst =
      instrument::instrument_cancellation(img, opts);
  vm::Machine m(inst.image);
  const vm::RunResult r = m.run();
  if (!r.ok()) {
    std::fprintf(stderr, "run failed: %s\n", r.trap_message.c_str());
    return 1;
  }
  const instrument::CancellationReport rep =
      instrument::read_cancellation_report(m, inst.layout);

  std::printf("%s: %llu cancellation events (>= %d bits) across %zu "
              "add/sub sites\n\n",
              w.name.c_str(),
              static_cast<unsigned long long>(rep.total_events),
              opts.min_cancel_bits, inst.layout.num_slots);

  std::printf("top sites:\n");
  std::vector<std::pair<std::uint64_t, std::uint64_t>> sites(
      rep.events_by_addr.begin(), rep.events_by_addr.end());
  std::sort(sites.begin(), sites.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  for (std::size_t i = 0; i < std::min<std::size_t>(10, sites.size()); ++i) {
    std::printf("  0x%-10llx %12llu events\n",
                static_cast<unsigned long long>(sites[i].first),
                static_cast<unsigned long long>(sites[i].second));
  }

  std::printf("\ncancelled-bits histogram:\n");
  for (std::size_t bin = 0; bin < 64; ++bin) {
    if (rep.bits_histogram[bin] == 0) continue;
    std::printf("  %2zu bits: %12llu\n", bin,
                static_cast<unsigned long long>(rep.bits_histogram[bin]));
  }
  return 0;
}
