#include "config/config.hpp"

#include "support/error.hpp"
#include "support/hash.hpp"
#include "support/strings.hpp"

namespace fpmix::config {

char precision_flag(Precision p) {
  switch (p) {
    case Precision::kDouble: return 'd';
    case Precision::kSingle: return 's';
    case Precision::kIgnore: return 'i';
  }
  return '?';
}

std::optional<Precision> precision_from_flag(char c) {
  switch (c) {
    case 'd': return Precision::kDouble;
    case 's': return Precision::kSingle;
    case 'i': return Precision::kIgnore;
    default: return std::nullopt;
  }
}

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kDouble: return "double";
    case Precision::kSingle: return "single";
    case Precision::kIgnore: return "ignore";
  }
  return "?";
}

PrecisionConfig::PrecisionConfig(const StructureIndex&) {}

namespace {
void set_flag(std::map<std::size_t, Precision>* store, std::size_t id,
              std::optional<Precision> p) {
  if (p.has_value()) {
    (*store)[id] = *p;
  } else {
    store->erase(id);
  }
}
std::optional<Precision> get_flag(const std::map<std::size_t, Precision>& s,
                                  std::size_t id) {
  auto it = s.find(id);
  if (it == s.end()) return std::nullopt;
  return it->second;
}
}  // namespace

void PrecisionConfig::set_module(std::size_t m, std::optional<Precision> p) {
  set_flag(&module_, m, p);
}
void PrecisionConfig::set_func(std::size_t f, std::optional<Precision> p) {
  set_flag(&func_, f, p);
}
void PrecisionConfig::set_block(std::size_t b, std::optional<Precision> p) {
  set_flag(&block_, b, p);
}
void PrecisionConfig::set_instr(std::size_t i, std::optional<Precision> p) {
  set_flag(&instr_, i, p);
}

std::optional<Precision> PrecisionConfig::module_flag(std::size_t m) const {
  return get_flag(module_, m);
}
std::optional<Precision> PrecisionConfig::func_flag(std::size_t f) const {
  return get_flag(func_, f);
}
std::optional<Precision> PrecisionConfig::block_flag(std::size_t b) const {
  return get_flag(block_, b);
}
std::optional<Precision> PrecisionConfig::instr_flag(std::size_t i) const {
  return get_flag(instr_, i);
}

Precision PrecisionConfig::resolve(const StructureIndex& index,
                                   std::size_t i) const {
  const InstrEntry& ie = index.instrs().at(i);
  const FuncEntry& fe = index.funcs().at(ie.func);
  if (auto p = get_flag(module_, fe.module)) return *p;
  if (auto p = get_flag(func_, ie.func)) return *p;
  if (auto p = get_flag(block_, ie.block)) return *p;
  if (auto p = get_flag(instr_, i)) return *p;
  return Precision::kDouble;
}

Precision PrecisionConfig::effective_precision(const StructureIndex& index,
                                               std::size_t i) const {
  const Precision p = resolve(index, i);
  return p == Precision::kSingle && !index.instrs()[i].candidate
             ? Precision::kDouble
             : p;
}

PrecisionConfig PrecisionConfig::effective(const StructureIndex& index) const {
  PrecisionConfig out;
  const std::vector<bool> reached = reached_funcs(index);
  for (std::size_t f = 0; f < reached.size(); ++f) {
    if (!reached[f]) continue;
    for (const std::size_t b : index.funcs()[f].blocks) {
      for (const std::size_t i : index.blocks()[b].instrs) {
        const Precision p = effective_precision(index, i);
        if (p != Precision::kDouble) out.instr_.emplace(i, p);
      }
    }
  }
  return out;
}

std::vector<bool> PrecisionConfig::reached_funcs(
    const StructureIndex& index) const {
  std::vector<bool> reached(index.funcs().size(), false);
  for (const auto& [m, p] : module_) {
    if (m >= index.modules().size()) continue;
    for (const std::size_t f : index.modules()[m].funcs) reached[f] = true;
  }
  for (const auto& [f, p] : func_) {
    if (f < reached.size()) reached[f] = true;
  }
  for (const auto& [b, p] : block_) {
    if (b < index.blocks().size()) reached[index.blocks()[b].func] = true;
  }
  for (const auto& [i, p] : instr_) {
    if (i < index.instrs().size()) reached[index.instrs()[i].func] = true;
  }
  return reached;
}

std::vector<std::size_t> PrecisionConfig::replaced_candidates(
    const StructureIndex& index) const {
  std::vector<std::size_t> out;
  for (std::size_t i : index.candidates()) {
    if (resolve(index, i) == Precision::kSingle) out.push_back(i);
  }
  return out;
}

void PrecisionConfig::merge_union(const PrecisionConfig& other) {
  // Merge every non-double flag; explicit kDouble flags are the default and
  // need no copying. Conflicts resolve toward the flag from `other` only if
  // this config has no flag at that node (first-passing-config wins keeps
  // the union well defined; the search never produces conflicting units).
  const auto merge = [](const std::map<std::size_t, Precision>& src,
                        std::map<std::size_t, Precision>* dst) {
    for (const auto& [id, p] : src) {
      if (p == Precision::kDouble) continue;
      dst->try_emplace(id, p);
    }
  };
  merge(other.module_, &module_);
  merge(other.func_, &func_);
  merge(other.block_, &block_);
  merge(other.instr_, &instr_);
}

std::string PrecisionConfig::canonical_key() const {
  // std::map iterates in ascending id order, which makes the serialization
  // canonical without an extra sort. Explicit kDouble flags participate:
  // they are semantically meaningful (they shield children from aggregate
  // overrides), so configs differing only in them must not collide.
  std::string out;
  const auto emit = [&out](char level,
                           const std::map<std::size_t, Precision>& store) {
    for (const auto& [id, p] : store) {
      out += strformat("%c%zu=%c;", level, id, precision_flag(p));
    }
  };
  emit('m', module_);
  emit('f', func_);
  emit('b', block_);
  emit('i', instr_);
  return out;
}

std::uint64_t PrecisionConfig::stable_hash() const {
  return fnv1a64(canonical_key());
}

bool PrecisionConfig::from_canonical_key(std::string_view key,
                                         PrecisionConfig* out) {
  *out = PrecisionConfig{};
  std::size_t pos = 0;
  while (pos < key.size()) {
    // One segment: `<level><id>=<flag>;` (see canonical_key).
    const char level = key[pos++];
    std::size_t id = 0;
    bool any_digit = false;
    while (pos < key.size() && key[pos] >= '0' && key[pos] <= '9') {
      id = id * 10 + static_cast<std::size_t>(key[pos++] - '0');
      any_digit = true;
    }
    if (!any_digit || pos >= key.size() || key[pos] != '=') return false;
    ++pos;
    if (pos >= key.size()) return false;
    const std::optional<Precision> p = precision_from_flag(key[pos++]);
    if (!p.has_value()) return false;
    if (pos >= key.size() || key[pos] != ';') return false;
    ++pos;
    switch (level) {
      case 'm': out->set_module(id, *p); break;
      case 'f': out->set_func(id, *p); break;
      case 'b': out->set_block(id, *p); break;
      case 'i': out->set_instr(id, *p); break;
      default: return false;
    }
  }
  return true;
}

bool PrecisionConfig::is_all_double(const StructureIndex& index) const {
  for (std::size_t i : index.candidates()) {
    if (resolve(index, i) != Precision::kDouble) return false;
  }
  return true;
}

ReplacementStats replacement_stats(const StructureIndex& index,
                                   const PrecisionConfig& cfg) {
  ReplacementStats st;
  st.candidates = index.candidates().size();
  for (std::size_t i : index.candidates()) {
    const InstrEntry& ie = index.instrs()[i];
    st.exec_total += ie.exec_weight;
    if (cfg.resolve(index, i) == Precision::kSingle) {
      ++st.replaced_static;
      st.exec_replaced += ie.exec_weight;
    }
  }
  st.static_pct = st.candidates == 0
                      ? 0.0
                      : 100.0 * static_cast<double>(st.replaced_static) /
                            static_cast<double>(st.candidates);
  st.dynamic_pct = st.exec_total == 0
                       ? 0.0
                       : 100.0 * static_cast<double>(st.exec_replaced) /
                             static_cast<double>(st.exec_total);
  return st;
}

}  // namespace fpmix::config
