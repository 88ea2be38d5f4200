// Property-style parameterized suites (TEST_P) over the paper's
// hyperparameter space: LIF monotonicity laws, allocator invariants across
// densities and devices, and perf-model scaling laws.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "hw/perf_model.h"
#include "snn/lif.h"
#include "tensor/tensor_ops.h"

namespace spiketune {
namespace {

// ---- LIF firing-rate laws over a (beta, theta) grid -------------------------

class LifGrid
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

std::int64_t spikes_under_drive(float beta, float theta, float drive,
                                int steps) {
  snn::LifConfig cfg;
  cfg.beta = beta;
  cfg.threshold = theta;
  snn::Lif lif(cfg);
  lif.begin_window(1, false);
  Tensor x(Shape{1, 1}, {drive});
  std::int64_t count = 0;
  for (int t = 0; t < steps; ++t)
    count += static_cast<std::int64_t>(lif.forward_step(x)[0]);
  return count;
}

TEST_P(LifGrid, RaisingThresholdNeverIncreasesFiring) {
  const auto [beta, theta] = GetParam();
  const auto low = spikes_under_drive(static_cast<float>(beta),
                                      static_cast<float>(theta), 0.6f, 200);
  const auto high = spikes_under_drive(
      static_cast<float>(beta), static_cast<float>(theta) + 0.5f, 0.6f, 200);
  EXPECT_GE(low, high) << "beta=" << beta << " theta=" << theta;
}

TEST_P(LifGrid, RaisingBetaNeverDecreasesFiring) {
  const auto [beta, theta] = GetParam();
  if (beta > 0.85) GTEST_SKIP() << "no headroom above beta";
  const auto low = spikes_under_drive(static_cast<float>(beta),
                                      static_cast<float>(theta), 0.6f, 200);
  const auto high = spikes_under_drive(static_cast<float>(beta) + 0.1f,
                                       static_cast<float>(theta), 0.6f, 200);
  EXPECT_GE(high, low) << "beta=" << beta << " theta=" << theta;
}

TEST_P(LifGrid, StrongerDriveNeverDecreasesFiring) {
  const auto [beta, theta] = GetParam();
  const auto weak = spikes_under_drive(static_cast<float>(beta),
                                       static_cast<float>(theta), 0.4f, 200);
  const auto strong = spikes_under_drive(
      static_cast<float>(beta), static_cast<float>(theta), 0.9f, 200);
  EXPECT_GE(strong, weak) << "beta=" << beta << " theta=" << theta;
}

TEST_P(LifGrid, NoLeakConservesChargeRate) {
  // beta = 1: long-run firing rate == drive / theta (reset-by-subtraction
  // conserves charge), independent of the grid's beta parameter.
  const auto [beta, theta] = GetParam();
  (void)beta;
  const float drive = 0.37f;
  const auto count =
      spikes_under_drive(1.0f, static_cast<float>(theta), drive, 2000);
  EXPECT_NEAR(static_cast<double>(count) / 2000.0,
              static_cast<double>(drive) / theta, 0.01)
      << "theta=" << theta;
}

INSTANTIATE_TEST_SUITE_P(
    BetaThetaGrid, LifGrid,
    ::testing::Combine(::testing::Values(0.25, 0.5, 0.7, 0.9),
                       ::testing::Values(0.5, 1.0, 1.5, 2.0)));

// ---- allocator invariants across densities and devices ----------------------

class AllocGrid
    : public ::testing::TestWithParam<std::tuple<double, std::string>> {};

std::vector<hw::LayerWorkload> grid_workloads(double density) {
  std::vector<hw::LayerWorkload> ws(3);
  const std::int64_t ins[] = {3072, 7200, 1152};
  const std::int64_t fan[] = {288, 288, 256};
  const std::int64_t neu[] = {28800, 5408, 256};
  for (int i = 0; i < 3; ++i) {
    auto& w = ws[static_cast<std::size_t>(i)];
    w.name = 'l' + std::to_string(i);
    w.input_size = ins[i];
    w.fanout = fan[i];
    w.neurons = neu[i];
    w.num_weights = 10000;
    // First layer dense (direct-coded input), deeper layers at `density`.
    w.avg_input_spikes =
        (i == 0 ? 1.0 : density) * static_cast<double>(ins[i]);
  }
  return ws;
}

TEST_P(AllocGrid, FitsDeviceAndCoversAllLayers) {
  const auto [density, dev_name] = GetParam();
  const auto dev = hw::device_by_name(dev_name);
  const auto ws = grid_workloads(density);
  for (auto policy :
       {hw::AllocationPolicy::kBalanced, hw::AllocationPolicy::kBalancedDense,
        hw::AllocationPolicy::kUniform}) {
    const auto a = hw::allocate(ws, dev, policy);
    EXPECT_TRUE(a.usage.fits(dev));
    ASSERT_EQ(a.pes_per_layer.size(), ws.size());
    std::int64_t total = 0;
    for (auto p : a.pes_per_layer) {
      EXPECT_GE(p, 1);
      total += p;
    }
    EXPECT_EQ(total, a.total_pes);
    EXPECT_LE(a.total_pes, hw::pe_budget(dev));
  }
}

TEST_P(AllocGrid, BalancedIsMinimaxOptimalUpToOnePe) {
  // Moving one PE from any stage to the binding stage must not reduce the
  // lock-step period — i.e. greedy found a local minimax optimum.
  const auto [density, dev_name] = GetParam();
  const auto dev = hw::device_by_name(dev_name);
  const auto ws = grid_workloads(density);
  const auto a = hw::allocate(ws, dev, hw::AllocationPolicy::kBalanced);

  auto period = [&](const std::vector<std::int64_t>& pes) {
    double worst = 0.0;
    for (std::size_t i = 0; i < ws.size(); ++i)
      worst = std::max(worst,
                       hw::stage_cycles_for(ws[i].sparse_synops(),
                                            ws[i].avg_input_spikes,
                                            ws[i].neurons, pes[i]));
    return worst;
  };
  const double base = period(a.pes_per_layer);
  for (std::size_t from = 0; from < ws.size(); ++from) {
    if (a.pes_per_layer[from] <= 1) continue;
    for (std::size_t to = 0; to < ws.size(); ++to) {
      if (to == from) continue;
      auto moved = a.pes_per_layer;
      --moved[from];
      ++moved[to];
      EXPECT_GE(period(moved), base - 1e-9)
          << "moving a PE " << from << "->" << to << " improved the period";
    }
  }
}

TEST_P(AllocGrid, PerfScalesWithDensity) {
  // Doubling deep-layer density must not make the event-driven machine
  // faster or more efficient.
  const auto [density, dev_name] = GetParam();
  if (density > 0.4) GTEST_SKIP() << "no headroom above density";
  const auto dev = hw::device_by_name(dev_name);
  const auto quiet_ws = grid_workloads(density);
  const auto busy_ws = grid_workloads(density * 2.0);
  const auto qa = hw::allocate(quiet_ws, dev, hw::AllocationPolicy::kBalanced);
  const auto ba = hw::allocate(busy_ws, dev, hw::AllocationPolicy::kBalanced);
  const auto q =
      hw::analyze(quiet_ws, qa, dev, 16, hw::ComputeMode::kEventDriven);
  const auto b =
      hw::analyze(busy_ws, ba, dev, 16, hw::ComputeMode::kEventDriven);
  EXPECT_LE(q.latency_s, b.latency_s);
  EXPECT_GE(q.fps_per_watt, b.fps_per_watt);
}

INSTANTIATE_TEST_SUITE_P(
    DensityDeviceGrid, AllocGrid,
    ::testing::Combine(::testing::Values(0.05, 0.1, 0.2, 0.4, 0.8),
                       ::testing::Values("ku3p", "ku5p", "ku15p")));

// ---- surrogate scaling laws over the paper's Fig. 1 grid --------------------

class ScaleGrid : public ::testing::TestWithParam<double> {};

TEST_P(ScaleGrid, FastSigmoidPeakInvariant) {
  // The fast sigmoid's peak derivative is 1 for every k — the paper's k
  // sweep changes only the width of the learning window.
  const auto k = static_cast<float>(GetParam());
  EXPECT_NEAR(snn::Surrogate::fast_sigmoid(k).grad(0.0f), 1.0f, 1e-6f);
}

TEST_P(ScaleGrid, ArctanPeakGrowsLinearly) {
  const auto a = static_cast<float>(GetParam());
  EXPECT_NEAR(snn::Surrogate::arctan(a).grad(0.0f), a / 2.0f, 1e-5f);
}

TEST_P(ScaleGrid, LargerScaleNarrowsBothSurrogates) {
  const auto s = static_cast<float>(GetParam());
  const float v = 0.5f;
  EXPECT_LE(snn::Surrogate::fast_sigmoid(s * 2).grad(v),
            snn::Surrogate::fast_sigmoid(s).grad(v) + 1e-7f);
  // Arctan: normalized by its peak so "narrower" is well defined.
  const auto at1 = snn::Surrogate::arctan(s);
  const auto at2 = snn::Surrogate::arctan(s * 2);
  EXPECT_LE(at2.grad(v) / at2.grad(0.0f), at1.grad(v) / at1.grad(0.0f) + 1e-7f);
}

INSTANTIATE_TEST_SUITE_P(Fig1Scales, ScaleGrid,
                         ::testing::Values(0.5, 1.0, 2.0, 4.0, 8.0, 16.0,
                                           32.0));

}  // namespace
}  // namespace spiketune
