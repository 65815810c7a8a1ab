#include "kernels/workload.hpp"

#include "lang/compile.hpp"
#include "program/layout.hpp"
#include "verify/evaluate.hpp"

namespace fpmix::kernels {

program::Image build_image(const Workload& w, lang::Mode mode) {
  return program::relayout(lang::compile(w.model, mode));
}

std::unique_ptr<verify::Verifier> make_verifier(
    const Workload& w, const program::Image& original) {
  if (w.threshold_mode) {
    return std::make_unique<verify::ThresholdVerifier>(
        w.error_output_index, w.threshold, w.expected_outputs);
  }
  std::vector<double> ref =
      verify::reference_outputs(original, w.max_instructions);
  auto v = std::make_unique<verify::RelativeErrorVerifier>(
      std::move(ref), w.rel_tol, w.abs_tol);
  for (const Workload::OutputTol& t : w.output_tols) {
    v->set_output_tolerance(t.index, t.rel, t.abs);
  }
  return v;
}

std::optional<Workload> make_workload(std::string_view name, char cls) {
  if (name == "ep") return make_ep(cls);
  if (name == "cg") return make_cg(cls);
  if (name == "ft") return make_ft(cls);
  if (name == "mg") return make_mg(cls);
  if (name == "bt") return make_bt(cls);
  if (name == "lu") return make_lu(cls);
  if (name == "sp") return make_sp(cls);
  if (name == "amg") return make_amg();
  return std::nullopt;
}

std::vector<Workload> all_serial_workloads() {
  std::vector<Workload> out;
  for (char cls : {'W', 'A'}) {
    out.push_back(make_ep(cls));
    out.push_back(make_cg(cls));
    out.push_back(make_ft(cls));
    out.push_back(make_mg(cls));
    out.push_back(make_bt(cls));
    out.push_back(make_lu(cls));
    out.push_back(make_sp(cls));
  }
  out.push_back(make_amg());
  out.push_back(make_superlu(1.0e-3));
  return out;
}

}  // namespace fpmix::kernels
