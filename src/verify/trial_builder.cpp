#include "verify/trial_builder.hpp"

#include <algorithm>
#include <atomic>
#include <utility>

#include "support/error.hpp"
#include "support/timer.hpp"

namespace fpmix::verify {

namespace {
std::atomic<std::size_t> g_peak{0};
}  // namespace

TrialBuilder::TrialBuilder(const program::Image& original,
                           const config::StructureIndex& index,
                           std::size_t lanes)
    : prog_(program::lift(original)),
      index_(index),
      capacity_(std::max<std::size_t>(1, lanes)) {
  prog_.validate();
  FPMIX_CHECK(index_.funcs().size() == prog_.functions.size());
  variants_.resize(prog_.functions.size());
}

TrialBuilder::Built TrialBuilder::build(const config::PrecisionConfig& cfg) {
  std::lock_guard<std::mutex> lock(mu_);
  Built out;
  std::string key = cfg.canonical_key();
  TrialCost& c = out.cost;
  Timer timer;
  const auto hit = std::find_if(
      images_.begin(), images_.end(),
      [&key](const CachedImage& e) { return e.key == key; });
  if (hit != images_.end()) {
    images_.splice(images_.begin(), images_, hit);
    out.exec = hit->exec;
    out.stats = hit->stats;
    c.image_cache_hit = true;
    c.patch_ns = timer.elapsed_ns();
    c.funcs_total = static_cast<std::uint32_t>(hit->exec->segments().size());
    c.funcs_reused = c.funcs_total;
    return out;
  }

  // Patch: instrument + lay out only the functions whose signature is new,
  // splice cached layouts elsewhere, and assemble the full image.
  timer.reset();
  const std::size_t n = prog_.functions.size();
  std::vector<FuncVariant*> used(n);
  std::vector<const program::FuncLayout*> layouts(n);
  for (std::size_t f = 0; f < n; ++f) {
    const program::Function& fn = prog_.functions[f];
    std::string sig = instrument::precision_signature(index_, cfg, f, fn);
    auto& cache = variants_[f];
    auto it = cache.find(sig);
    if (it == cache.end()) {
      if (cache.size() >= kMaxVariantsPerFunc) cache.clear();
      FuncVariant v;
      v.layout = program::layout_function(
          instrument::instrument_function(fn, sig, &v.stats));
      it = cache.emplace(std::move(sig), std::move(v)).first;
    } else {
      ++c.funcs_reused;
    }
    used[f] = &it->second;
    layouts[f] = &it->second.layout;
    out.stats.add(it->second.stats);
  }
  program::Image image = program::assemble(prog_, layouts);
  c.funcs_total = static_cast<std::uint32_t>(n);
  c.patch_ns = timer.elapsed_ns();

  // Predecode: build segments only for variants never predecoded before.
  timer.reset();
  std::vector<std::shared_ptr<const vm::CodeSegment>> segments(n);
  for (std::size_t f = 0; f < n; ++f) {
    if (used[f]->segment == nullptr) {
      used[f]->segment = vm::CodeSegment::build(used[f]->layout);
    }
    segments[f] = used[f]->segment;
  }
  out.exec = vm::ExecutableImage::build_spliced(std::move(image), segments);
  c.predecode_ns = timer.elapsed_ns();

  images_.push_front(CachedImage{std::move(key), out.exec, out.stats});
  if (images_.size() > capacity_) images_.pop_back();
  std::size_t peak = g_peak.load(std::memory_order_relaxed);
  while (images_.size() > peak &&
         !g_peak.compare_exchange_weak(peak, images_.size(),
                                       std::memory_order_relaxed)) {
  }
  return out;
}

std::size_t image_cache_peak() {
  return g_peak.load(std::memory_order_relaxed);
}

void reset_image_cache_peak() { g_peak.store(0, std::memory_order_relaxed); }

}  // namespace fpmix::verify
