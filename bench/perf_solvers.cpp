// google-benchmark micro-benchmarks for the numerical kernels: how the
// CMFSD steady-state solve (one scalar pool-rate root, O(K^2) per
// evaluation of the pool equation) scales with K, and what the generic
// routes cost on the same system: dopri5 and RK4 transients and the
// Newton polish that math::find_equilibrium (CMFSD's test oracle, the
// Adapt fluid model's solver) runs. These guard against performance
// regressions in the sweep-heavy benches (fig4a solves 110 cells).
#include <benchmark/benchmark.h>

#include <vector>

#include "btmf/fluid/cmfsd.h"
#include "btmf/fluid/correlation.h"
#include "btmf/math/newton.h"
#include "btmf/math/ode.h"

namespace {

using namespace btmf;

fluid::CmfsdModel make_model(unsigned k, double rho) {
  const fluid::CorrelationModel corr(k, 0.7, 1.0);
  return {fluid::kPaperParams, corr.system_entry_rates(), rho};
}

void BM_CmfsdSolve(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const fluid::CmfsdModel model = make_model(k, 0.3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.solve().residual_inf);
  }
  state.SetLabel("states=" + std::to_string(model.state_size()));
}
BENCHMARK(BM_CmfsdSolve)->Arg(5)->Arg(10)->Arg(20)->Arg(40)
    ->Unit(benchmark::kMillisecond);

void BM_CmfsdRhsEval(benchmark::State& state) {
  const auto k = static_cast<unsigned>(state.range(0));
  const fluid::CmfsdModel model = make_model(k, 0.3);
  const math::OdeRhs rhs = model.rhs();
  std::vector<double> y(model.state_size(), 10.0);
  std::vector<double> dy(model.state_size());
  for (auto _ : state) {
    rhs(0.0, y, dy);
    benchmark::DoNotOptimize(dy.data());
  }
}
BENCHMARK(BM_CmfsdRhsEval)->Arg(10)->Arg(40);

void BM_Dopri5Transient(benchmark::State& state) {
  const fluid::CmfsdModel model = make_model(10, 0.3);
  const math::OdeRhs rhs = model.rhs();
  math::AdaptiveOptions options;
  options.rtol = 1e-8;
  options.atol = 1e-10;
  for (auto _ : state) {
    auto r = math::integrate_dopri5(
        rhs, std::vector<double>(model.state_size(), 0.0), 0.0, 2000.0,
        options);
    benchmark::DoNotOptimize(r.y.data());
  }
}
BENCHMARK(BM_Dopri5Transient)->Unit(benchmark::kMillisecond);

void BM_Rk4FixedTransient(benchmark::State& state) {
  const fluid::CmfsdModel model = make_model(10, 0.3);
  const math::OdeRhs rhs = model.rhs();
  for (auto _ : state) {
    auto y = math::integrate_fixed(
        rhs, std::vector<double>(model.state_size(), 0.0), 0.0, 2000.0, 1.0,
        math::FixedStepMethod::kRk4);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Rk4FixedTransient)->Unit(benchmark::kMillisecond);

void BM_NewtonPolish(benchmark::State& state) {
  // Newton from a near-equilibrium start (its role in find_equilibrium).
  const fluid::CmfsdModel model = make_model(10, 0.3);
  const auto eq = model.solve();
  std::vector<double> start = eq.state;
  for (double& v : start) v *= 1.05;
  const math::OdeRhs rhs = model.rhs();
  const math::VectorField field = [&rhs](std::span<const double> x,
                                         std::span<double> out) {
    rhs(0.0, x, out);
  };
  for (auto _ : state) {
    auto r = math::newton_solve(field, start);
    benchmark::DoNotOptimize(r.residual_inf);
  }
}
BENCHMARK(BM_NewtonPolish)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
