// Steady-state training windows allocate nothing large, and the storage
// parked between windows stays bounded.
//
// This binary replaces the global operator new with one that counts the
// allocations of at least 64 KiB made while counting is on.  After one
// warm-up window has sized every step buffer, a second training window of
// the same shape (forward with caches, then BPTT) and a forward-only window
// must make none: the layers reuse their buffers, and the storage parked
// between windows comes back instead of being freed and re-faulted.  The
// parked set, read with StepBuffers::parked_numel, keeps only what recent
// windows used and what live networks parked.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "core/parallel.h"
#include "core/rng.h"
#include "snn/model_zoo.h"

namespace {

constexpr std::size_t kLarge = 64 * 1024;
std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_large{0};
std::atomic<std::size_t> g_largest{0};

void* counted_alloc(std::size_t n) {
  if (n >= kLarge && g_counting.load(std::memory_order_relaxed)) {
    g_large.fetch_add(1, std::memory_order_relaxed);
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (n > seen && !g_largest.compare_exchange_weak(seen, n)) {
    }
  }
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace spiketune::snn {
namespace {

struct LargeAllocations {
  std::int64_t count;
  std::size_t largest;
};

template <typename Fn>
LargeAllocations count_large(Fn&& fn) {
  g_large = 0;
  g_largest = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return {g_large.load(), g_largest.load()};
}

// perfbench's train_epoch shape: the csnn at 16x16, batch 32, T 8.
std::vector<Tensor> direct_window(Rng& rng) {
  return std::vector<Tensor>(
      8, Tensor::uniform(Shape{32, 3, 16, 16}, rng, -2.0f, 2.0f));
}

std::vector<Tensor> spike_window(Rng& rng) {
  std::vector<Tensor> steps;
  for (int t = 0; t < 8; ++t) {
    Tensor x(Shape{32, 3, 16, 16});
    for (std::int64_t i = 0; i < x.numel(); ++i)
      x[i] = rng.uniform() < 0.2 ? 1.0f : 0.0f;
    steps.push_back(std::move(x));
  }
  return steps;
}

std::unique_ptr<SpikingNetwork> make_net() {
  CsnnConfig cfg;
  cfg.image_size = 16;
  cfg.lif.surrogate = Surrogate::fast_sigmoid(0.25f);
  cfg.init_gain = 2.0f;
  return make_svhn_csnn(cfg);
}

void expect_warm_windows_allocate_nothing_large(int threads) {
  SCOPED_TRACE(testing::Message() << threads << " threads");
  set_num_threads(threads);
  auto net = make_net();
  Rng rng(5);
  // Direct coding takes conv1's repeated-step path; spikes take the
  // index-list kernels.
  for (const auto& window : {direct_window(rng), spike_window(rng)}) {
    const Tensor grad = Tensor::uniform(Shape{32, 10}, rng, -1.0f, 1.0f);
    auto train = [&] {
      net->zero_grad();
      const auto out = net->forward(window, {.training = true});
      net->backward(grad);
    };
    train();  // warm-up
    const LargeAllocations warm = count_large(train);
    EXPECT_EQ(warm.count, 0) << "largest " << warm.largest << " bytes";
    net->forward(window);  // warm-up
    const LargeAllocations infer =
        count_large([&] { const auto out = net->forward(window); });
    EXPECT_EQ(infer.count, 0) << "largest " << infer.largest << " bytes";
  }
  set_num_threads(1);
}

TEST(Allocation, CountingIsLive) {
  // A large allocation while counting registers, so the test below cannot
  // pass on a counter that never counts.
  const LargeAllocations r =
      count_large([] { const Tensor t(Shape{static_cast<std::int64_t>(kLarge)}); });
  EXPECT_EQ(r.count, 1);
  EXPECT_EQ(r.largest, kLarge * sizeof(float));
}

TEST(Allocation, WarmTrainingWindowAllocatesNothingLarge) {
  expect_warm_windows_allocate_nothing_large(1);
  expect_warm_windows_allocate_nothing_large(3);
}

// A training window of `batch` samples at the train_epoch shape, with the
// gradient of its spike counts.
struct Window {
  std::vector<Tensor> steps;
  Tensor grad;
};

Window make_window(std::int64_t batch, Rng& rng) {
  return {std::vector<Tensor>(
              8, Tensor::uniform(Shape{batch, 3, 16, 16}, rng, -2.0f, 2.0f)),
          Tensor::uniform(Shape{batch, 10}, rng, -1.0f, 1.0f)};
}

void train(SpikingNetwork& net, const Window& w) {
  net.zero_grad();
  const auto out = net.forward(w.steps, {.training = true});
  net.backward(w.grad);
}

TEST(Allocation, ParkedStorageOfAnUnusedBatchIsFreed) {
  auto net = make_net();
  Rng rng(9);
  const Window w32 = make_window(32, rng);
  const Window w7 = make_window(7, rng);
  train(*net, w32);
  train(*net, w32);
  // Only this network has parked anything since the last test's networks
  // were destroyed.
  const std::int64_t set32 = StepBuffers::parked_numel();
  EXPECT_GT(set32, 0);

  train(*net, w7);
  const std::int64_t both = StepBuffers::parked_numel();
  EXPECT_GT(both, set32);  // the batch-32 set waits for the next window
  train(*net, w32);
  EXPECT_EQ(StepBuffers::parked_numel(), both);  // one window left batch 7
  train(*net, w32);
  EXPECT_EQ(StepBuffers::parked_numel(), set32);  // two did: freed

  net.reset();
  EXPECT_EQ(StepBuffers::parked_numel(), 0);
}

TEST(Allocation, NetworksTakingTurnsKeepTheirStorage) {
  auto a = make_net();
  auto b = make_net();
  Rng rng(11);
  const Window w32 = make_window(32, rng);
  const Window w7 = make_window(7, rng);
  // Same shape: the second network takes the first one's parked set, so
  // the two hold one set between them.
  train(*a, w32);
  const std::int64_t set32 = StepBuffers::parked_numel();
  train(*b, w32);
  train(*a, w32);
  EXPECT_EQ(StepBuffers::parked_numel(), set32);
  // Different shapes: each set sits out the other network's window and
  // is taken back by its own, so warm turns allocate nothing large.
  train(*b, w7);
  train(*a, w32);
  const LargeAllocations turns = count_large([&] {
    train(*b, w7);
    train(*a, w32);
    train(*b, w7);
  });
  EXPECT_EQ(turns.count, 0) << "largest " << turns.largest << " bytes";
}

}  // namespace
}  // namespace spiketune::snn
