#include "instrument/incremental.hpp"

#include <utility>

#include "support/error.hpp"

namespace fpmix::instrument {

IncrementalPatcher::IncrementalPatcher(const program::Image& original,
                                       const config::StructureIndex& index)
    : prog_(program::lift(original)), index_(index) {
  prog_.validate();
  FPMIX_CHECK(index_.funcs().size() == prog_.functions.size());
  variants_.resize(prog_.functions.size());
}

IncrementalPatcher::Build IncrementalPatcher::patch(
    const config::PrecisionConfig& cfg) {
  const std::size_t n = prog_.functions.size();
  Build b;
  b.funcs_total = n;
  b.variants.resize(n);
  std::vector<const program::FuncLayout*> layouts(n);
  for (std::size_t f = 0; f < n; ++f) {
    const program::Function& fn = prog_.functions[f];
    std::string sig = precision_signature(index_, cfg, f, fn);
    auto& cache = variants_[f];
    auto it = cache.find(sig);
    if (it == cache.end()) {
      if (cache.size() >= kMaxVariantsPerFunc) cache.clear();
      FuncVariant v;
      v.layout =
          program::layout_function(instrument_function(fn, sig, &v.stats));
      it = cache.emplace(std::move(sig), std::move(v)).first;
    } else {
      ++b.funcs_reused;
    }
    b.variants[f] = &it->second;
    layouts[f] = &it->second.layout;
    b.stats.add(it->second.stats);
  }
  b.image = program::assemble(prog_, layouts);
  return b;
}

std::shared_ptr<const vm::ExecutableImage> IncrementalPatcher::predecode(
    Build&& build) {
  std::vector<std::shared_ptr<const vm::CodeSegment>> segments(
      build.variants.size());
  for (std::size_t f = 0; f < build.variants.size(); ++f) {
    FuncVariant* v = build.variants[f];
    if (v->segment == nullptr) {
      v->segment = vm::CodeSegment::build(v->layout);
    }
    segments[f] = v->segment;
  }
  return vm::ExecutableImage::build_spliced(std::move(build.image),
                                            segments);
}

}  // namespace fpmix::instrument
