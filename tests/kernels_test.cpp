// Tests for the benchmark workloads: every kernel must run to completion,
// produce verifiable outputs, survive all-double instrumentation
// bit-for-bit, and exhibit its designed precision characteristics. Also
// covers the Section 3.1 bit-exactness property on real kernels.
#include <gtest/gtest.h>

#include <optional>
#include <string>

#include "config/config.hpp"
#include "instrument/patch.hpp"
#include "kernels/workload.hpp"
#include "program/layout.hpp"
#include "program/program.hpp"
#include "verify/evaluate.hpp"
#include "vm/machine.hpp"

namespace fpmix::kernels {
namespace {

struct Prepared {
  Workload w;
  program::Image image;
  config::StructureIndex index;
};

Prepared prepare(Workload w) {
  Prepared p{std::move(w), {}, {}};
  p.image = build_image(p.w);
  p.index = config::StructureIndex::build(program::lift(p.image));
  return p;
}

config::PrecisionConfig all_single(const config::StructureIndex& ix) {
  config::PrecisionConfig cfg;
  for (std::size_t m = 0; m < ix.modules().size(); ++m) {
    cfg.set_module(m, config::Precision::kSingle);
  }
  return cfg;
}

// ---------------------------------------------------------------------------
// Parameterized over every serial workload.

class WorkloadSweep : public ::testing::TestWithParam<int> {
 protected:
  static const std::vector<Workload>& all() {
    static const std::vector<Workload>* w =
        new std::vector<Workload>(all_serial_workloads());
    return *w;
  }
};

TEST_P(WorkloadSweep, OriginalRunsAndSelfVerifies) {
  Prepared p = prepare(all()[static_cast<std::size_t>(GetParam())]);
  vm::Machine m(p.image);
  const vm::RunResult r = m.run();
  ASSERT_TRUE(r.ok()) << p.w.name << ": " << r.trap_message;
  EXPECT_FALSE(m.output_f64().empty()) << p.w.name;
  auto verifier = make_verifier(p.w, p.image);
  EXPECT_TRUE(verifier->verify(m.output_f64()))
      << p.w.name << " fails its own verification";
}

TEST_P(WorkloadSweep, AllDoubleInstrumentationIsBitIdentical) {
  Prepared p = prepare(all()[static_cast<std::size_t>(GetParam())]);
  vm::Machine m(p.image);
  ASSERT_TRUE(m.run().ok());

  const program::Image patched =
      instrument::instrument_image(p.image, p.index, {});
  vm::Machine mi(patched);
  const vm::RunResult r = mi.run();
  ASSERT_TRUE(r.ok()) << p.w.name << ": " << r.trap_message;
  ASSERT_EQ(mi.output_f64().size(), m.output_f64().size()) << p.w.name;
  for (std::size_t i = 0; i < m.output_f64().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mi.output_f64()[i]),
              std::bit_cast<std::uint64_t>(m.output_f64()[i]))
        << p.w.name << " output " << i;
  }
  // Instrumentation costs instructions (the Figure 8/9 overhead).
  EXPECT_GT(mi.instructions_retired(), m.instructions_retired());
}

TEST_P(WorkloadSweep, InstrumentedAllSingleMatchesManualConversion) {
  // Section 3.1: "The final results were identical, bit-for-bit."
  Prepared p = prepare(all()[static_cast<std::size_t>(GetParam())]);
  const program::Image manual = build_image(p.w, lang::Mode::kSingle);
  vm::Machine mm(manual);
  const vm::RunResult rm = mm.run();
  ASSERT_TRUE(rm.ok()) << p.w.name << ": " << rm.trap_message;

  const program::Image patched =
      instrument::instrument_image(p.image, p.index, all_single(p.index));
  vm::Machine mi(patched);
  const vm::RunResult ri = mi.run();
  ASSERT_TRUE(ri.ok()) << p.w.name << ": " << ri.trap_message;

  ASSERT_EQ(mi.output_f64().size(), mm.output_f64().size()) << p.w.name;
  for (std::size_t i = 0; i < mm.output_f64().size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(mi.output_f64()[i]),
              std::bit_cast<std::uint64_t>(mm.output_f64()[i]))
        << p.w.name << " output " << i;
  }
}

TEST_P(WorkloadSweep, HasRealisticStructure) {
  Prepared p = prepare(all()[static_cast<std::size_t>(GetParam())]);
  EXPECT_GE(p.index.modules().size(), 2u) << p.w.name;
  EXPECT_GE(p.index.funcs().size(), 2u) << p.w.name;
  EXPECT_GE(p.index.candidates().size(), 10u) << p.w.name;
}

INSTANTIATE_TEST_SUITE_P(All, WorkloadSweep, ::testing::Range(0, 16));

// ---------------------------------------------------------------------------
// The command-line name -> workload factory.

TEST(WorkloadFactory, NamesEveryServableWorkloadAndRejectsOthers) {
  for (const char* name : {"ep", "cg", "ft", "mg", "bt", "lu", "sp"}) {
    const std::optional<Workload> w = make_workload(name, 'W');
    ASSERT_TRUE(w.has_value()) << name;
    EXPECT_EQ(w->name, std::string(name) + ".W");
  }
  ASSERT_TRUE(make_workload("amg", 'W').has_value());
  EXPECT_EQ(make_workload("amg", 'W')->name, make_amg().name);
  for (const char* name : {"superlu", "EP", "", "cg.W"}) {
    EXPECT_FALSE(make_workload(name, 'W').has_value()) << name;
  }
}

// ---------------------------------------------------------------------------
// Designed precision characteristics.

TEST(EpKernel, RngIsPrecisionSensitiveButTalliesAreNot) {
  Prepared p = prepare(make_ep('S'));
  auto verifier = make_verifier(p.w, p.image);

  // Whole ep_rand module single: the 46-bit stream collapses.
  config::PrecisionConfig rng_single;
  rng_single.set_module(p.index.module_named("ep_rand"),
                        config::Precision::kSingle);
  const verify::EvalResult r1 =
      verify::evaluate_config(p.image, p.index, rng_single, *verifier);
  EXPECT_FALSE(r1.passed);

  // Whole ep_main module single: accumulation arithmetic tolerates it.
  config::PrecisionConfig main_single;
  main_single.set_module(p.index.module_named("ep_main"),
                         config::Precision::kSingle);
  const verify::EvalResult r2 =
      verify::evaluate_config(p.image, p.index, main_single, *verifier);
  EXPECT_TRUE(r2.passed) << r2.failure;
}

TEST(AmgKernel, EntirelyReplaceableWithMoreCycles) {
  Prepared p = prepare(make_amg());
  auto verifier = make_verifier(p.w, p.image);

  vm::Machine m(p.image);
  ASSERT_TRUE(m.run().ok());
  const std::int64_t cycles_double = m.output_i64().at(0);

  const program::Image patched =
      instrument::instrument_image(p.image, p.index, all_single(p.index));
  vm::Machine ms(patched);
  ASSERT_TRUE(ms.run().ok());
  EXPECT_TRUE(verifier->verify(ms.output_f64()));
  // The adaptive loop absorbs the precision loss by iterating more (or at
  // least as much).
  EXPECT_GE(ms.output_i64().at(0), cycles_double);
}

TEST(SuperLuKernel, ReportedErrorTracksPrecision) {
  Prepared p = prepare(make_superlu(1.0e-3));

  vm::Machine m(p.image);
  ASSERT_TRUE(m.run().ok());
  const double err_double = m.output_f64().at(0);
  EXPECT_LT(err_double, 1e-10);

  const program::Image patched =
      instrument::instrument_image(p.image, p.index, all_single(p.index));
  vm::Machine ms(patched);
  ASSERT_TRUE(ms.run().ok());
  const double err_single = ms.output_f64().at(0);
  // Paper: 2.16e-12 (double) vs 5.86e-04 (single).
  EXPECT_GT(err_single, 1e-5);
  EXPECT_LT(err_single, 1e-2);
}

TEST(MpiWorkloads, RunOnMultipleRanks) {
  for (int ranks : {2, 4}) {
    for (auto make : {make_ep, make_cg, make_ft, make_mg}) {
      Workload w = make('S', ranks);
      const program::Image img = build_image(w);
      vm::MiniMpi mpi(ranks);
      std::vector<std::unique_ptr<vm::Machine>> machines;
      for (int r = 0; r < ranks; ++r) {
        vm::Machine::Options o;
        o.mpi = &mpi;
        o.rank = r;
        machines.push_back(std::make_unique<vm::Machine>(img, o));
      }
      std::vector<std::thread> threads;
      std::vector<vm::RunResult> results(static_cast<std::size_t>(ranks));
      for (int r = 0; r < ranks; ++r) {
        threads.emplace_back([&, r] {
          results[static_cast<std::size_t>(r)] =
              machines[static_cast<std::size_t>(r)]->run();
        });
      }
      for (auto& t : threads) t.join();
      for (int r = 0; r < ranks; ++r) {
        EXPECT_TRUE(results[static_cast<std::size_t>(r)].ok())
            << w.name << " rank " << r << ": "
            << results[static_cast<std::size_t>(r)].trap_message;
      }
      // All ranks agree on the reduced outputs.
      for (int r = 1; r < ranks; ++r) {
        EXPECT_EQ(machines[0]->output_f64(),
                  machines[static_cast<std::size_t>(r)]->output_f64())
            << w.name;
      }
    }
  }
}

TEST(MpiEp, MatchesSerialResults) {
  // EP's rank decomposition partitions the identical RNG stream, so the
  // reduced tallies must match the serial run exactly (the sums only to
  // rounding, since addition order changes).
  Workload serial = make_ep('S');
  const program::Image simg = build_image(serial);
  vm::Machine sm(simg);
  ASSERT_TRUE(sm.run().ok());

  const int ranks = 4;
  Workload par = make_ep('S', ranks);
  const program::Image pimg = build_image(par);
  vm::MiniMpi mpi(ranks);
  std::vector<std::unique_ptr<vm::Machine>> machines;
  std::vector<std::thread> threads;
  for (int r = 0; r < ranks; ++r) {
    vm::Machine::Options o;
    o.mpi = &mpi;
    o.rank = r;
    machines.push_back(std::make_unique<vm::Machine>(pimg, o));
  }
  for (int r = 0; r < ranks; ++r) {
    threads.emplace_back([&, r] {
      ASSERT_TRUE(machines[static_cast<std::size_t>(r)]->run().ok());
    });
  }
  for (auto& t : threads) t.join();

  const auto& pout = machines[0]->output_f64();
  const auto& sout = sm.output_f64();
  ASSERT_EQ(pout.size(), sout.size());
  // Output 2 is the accepted count; 3.. are annulus tallies: exact.
  for (std::size_t i = 2; i < sout.size(); ++i) {
    EXPECT_EQ(pout[i], sout[i]) << i;
  }
  // Sums agree to reduction-order rounding.
  EXPECT_NEAR(pout[0], sout[0], 1e-9);
  EXPECT_NEAR(pout[1], sout[1], 1e-9);
}

}  // namespace
}  // namespace fpmix::kernels
