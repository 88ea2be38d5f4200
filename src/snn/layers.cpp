#include "snn/layers.h"

#include <algorithm>
#include <iterator>
#include <mutex>
#include <utility>

#include "core/error.h"

namespace spiketune::snn {

namespace {

// Storage parked by finished windows, shared by every layer in the process.
struct FreeList {
  struct Entry {
    Tensor tensor;
    std::uint64_t window;      // windows ended when it was parked
    const StepBuffers* owner;  // who parked it; compared, never read
  };
  std::mutex mu;
  std::uint64_t windows = 0;  // window ends so far
  std::vector<Entry> entries;
};

// Never destroyed: a StepBuffers that outlives static destruction still
// finds it.
FreeList& free_list() {
  static FreeList* list = new FreeList;
  return *list;
}

void park_tensor(FreeList& list, Tensor& t, const StepBuffers* owner) {
  if (t.capacity() > 0)
    list.entries.push_back({std::exchange(t, Tensor()), list.windows, owner});
}

// Storage for `shape`: a parked tensor of exactly its size, else a new
// one.  Matching sizes exactly keeps a small request from taking storage
// that a larger one of the same window then has to allocate afresh, so
// the parked set settles on the sizes the process's windows use.
Tensor take_parked(const Shape& shape) {
  {
    FreeList& list = free_list();
    std::lock_guard<std::mutex> lock(list.mu);
    auto& v = list.entries;
    for (auto it = v.begin(); it != v.end(); ++it)
      if (it->tensor.capacity() == shape.numel()) {
        std::iter_swap(it, v.end() - 1);
        Tensor t = std::move(v.back().tensor);
        v.pop_back();
        t.resize(shape);
        return t;
      }
  }
  return Tensor(shape);
}

// Moves the entries `drop` selects out of the list into `out`.  Callers
// declare `out` before they lock, so its storage is freed after unlocking.
template <typename Pred>
void take_out(FreeList& list, Pred drop, std::vector<FreeList::Entry>& out) {
  auto keep = std::partition(list.entries.begin(), list.entries.end(),
                             [&](const FreeList::Entry& e) { return !drop(e); });
  std::move(keep, list.entries.end(), std::back_inserter(out));
  list.entries.erase(keep, list.entries.end());
}

}  // namespace

StepBuffers::~StepBuffers() {
  std::vector<FreeList::Entry> dropped;
  FreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mu);
  take_out(list, [this](const FreeList::Entry& e) { return e.owner == this; },
           dropped);
}

Tensor& StepBuffers::get(std::size_t i, const Shape& shape) {
  while (slots_.size() <= i) slots_.emplace_back();
  Tensor& t = slots_[i];
  if (t.capacity() >= shape.numel()) {
    t.resize(shape);
    return t;
  }
  {
    FreeList& list = free_list();
    std::lock_guard<std::mutex> lock(list.mu);
    park_tensor(list, t, this);
  }
  t = take_parked(shape);
  return t;
}

void StepBuffers::park() {
  FreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mu);
  for (Tensor& t : slots_) park_tensor(list, t, this);
}

void StepBuffers::end_window() {
  // The window that ends is window n, and what it parks next carries n.
  // The end of window n + 2 frees that storage if windows n + 1 and n + 2
  // both left it.  So a network that takes turns with another of different
  // shapes keeps its set, and a size no window uses any more is gone two
  // windows later.
  std::vector<FreeList::Entry> dropped;
  FreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mu);
  const std::uint64_t now = ++list.windows;
  take_out(list, [now](const FreeList::Entry& e) { return now - e.window >= 2; },
           dropped);
}

std::int64_t StepBuffers::parked_numel() {
  FreeList& list = free_list();
  std::lock_guard<std::mutex> lock(list.mu);
  std::int64_t n = 0;
  for (const FreeList::Entry& e : list.entries) n += e.tensor.capacity();
  return n;
}

const Tensor& Flatten::forward_step(const Tensor& input) {
  const Shape& s = input.shape();
  ST_REQUIRE(s.rank() >= 2, "flatten expects a batch dimension");
  if (shapes_.size() <= steps_) shapes_.resize(steps_ + 1);
  shapes_[steps_++] = s;
  std::int64_t per_sample = 1;
  for (std::size_t i = 1; i < s.rank(); ++i) per_sample *= s[i];
  Tensor& out = buffers_.get(0, Shape{s[0], per_sample});
  std::copy(input.data(), input.data() + input.numel(), out.data());
  return out;
}

const Tensor& Flatten::backward_step(const Tensor& grad_output) {
  ST_REQUIRE(steps_ > 0, "flatten backward without matching forward");
  const Shape& s = shapes_[--steps_];
  ST_REQUIRE(grad_output.numel() == s.numel(),
             "flatten grad_output size mismatch");
  Tensor& grad_input = buffers_.get(0, s);
  std::copy(grad_output.data(), grad_output.data() + grad_output.numel(),
            grad_input.data());
  return grad_input;
}

Shape Flatten::output_shape(const Shape& input) const {
  return Shape{input.numel()};
}

}  // namespace spiketune::snn
