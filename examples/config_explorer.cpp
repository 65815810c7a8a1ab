// Textual counterpart of the paper's GUI configuration editor (Figure 4):
// renders the program-structure tree with precision flags, candidate counts
// and profile weights, so a developer can see where replacements landed.
//
// Usage:  config_explorer <ep|cg|ft|mg|bt|lu|sp|amg|superlu> [S|W|A|C]
//                         [--config FILE] [--search]
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "arch/disasm.hpp"
#include "config/textio.hpp"
#include "kernels/workload.hpp"
#include "program/program.hpp"
#include "search/search.hpp"
#include "vm/machine.hpp"

using namespace fpmix;

namespace {

char flag_char(std::optional<config::Precision> p) {
  return p.has_value() ? config::precision_flag(*p) : ' ';
}

char resolved_char(const config::StructureIndex& ix,
                   const config::PrecisionConfig& cfg, std::size_t instr) {
  return config::precision_flag(cfg.resolve(ix, instr));
}

void render(const config::StructureIndex& ix,
            const config::PrecisionConfig& cfg) {
  for (std::size_t mi = 0; mi < ix.modules().size(); ++mi) {
    const auto& m = ix.modules()[mi];
    std::printf("%c MODULE %-24s (%zu candidates)\n",
                flag_char(cfg.module_flag(mi)), m.name.c_str(),
                m.candidates.size());
    for (std::size_t fi : m.funcs) {
      const auto& f = ix.funcs()[fi];
      std::printf("%c   FUNC %-24s (%zu blocks, %zu candidates, "
                  "weight %llu)\n",
                  flag_char(cfg.func_flag(fi)), f.name.c_str(),
                  f.blocks.size(), f.candidates.size(),
                  static_cast<unsigned long long>(
                      ix.candidate_weight_of_func(fi)));
      for (std::size_t bi : f.blocks) {
        const auto& blk = ix.blocks()[bi];
        if (blk.candidates.empty()) continue;
        std::printf("%c     BBLK 0x%-8llx (weight %llu)\n",
                    flag_char(cfg.block_flag(bi)),
                    static_cast<unsigned long long>(blk.head_addr),
                    static_cast<unsigned long long>(
                        ix.candidate_weight_of_block(bi)));
        for (std::size_t ii : blk.candidates) {
          const auto& ins = ix.instrs()[ii];
          std::printf("%c       INSN %s   x%llu\n",
                      resolved_char(ix, cfg, ii),
                      arch::instr_to_config_string(ins.instr).c_str(),
                      static_cast<unsigned long long>(ins.exec_weight));
        }
      }
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string bench = argc > 1 ? argv[1] : "ep";
  char cls = 'S';
  std::string config_path;
  bool do_search = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--config" && i + 1 < argc) config_path = argv[++i];
    else if (arg == "--search") do_search = true;
    else if (arg.size() == 1) cls = arg[0];
    else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg.c_str());
      return 2;
    }
  }

  const std::optional<kernels::Workload> workload =
      bench == "superlu" ? kernels::make_superlu(1e-4)
                         : kernels::make_workload(bench, cls);
  if (!workload) {
    std::fprintf(stderr, "unknown benchmark '%s' or class '%c'\n",
                 bench.c_str(), cls);
    return 2;
  }
  const kernels::Workload& w = *workload;

  const program::Image img = kernels::build_image(w);
  auto index = config::StructureIndex::build(program::lift(img));

  // Profile so the tree shows execution weights (the GUI's hotness view).
  {
    vm::Machine m(img);
    if (m.run().ok()) index.apply_profile(m.profile_by_address());
  }

  config::PrecisionConfig cfg;
  if (!config_path.empty()) {
    std::ifstream f(config_path);
    std::stringstream ss;
    ss << f.rdbuf();
    cfg = config::from_text(index, ss.str());
    std::printf("loaded configuration from %s\n\n", config_path.c_str());
  } else if (do_search) {
    const auto verifier = kernels::make_verifier(w, img);
    search::SearchOptions opts;
    opts.keep_log = false;
    const search::SearchResult res =
        search::run_search(img, &index, *verifier, opts);
    cfg = res.final_config;
    std::printf("showing the search's final configuration (%.1f%% static "
                "replacement)\n\n",
                res.stats.static_pct);
  }

  render(index, cfg);
  return 0;
}
