// train: surrogate-gradient training and evaluation, in process.
//
// csnn on SynthSvhn (16x16, normalized, direct coding, T 8, batch 32,
// fast-sigmoid(0.25) surrogate, rate cross-entropy, Adam + cosine
// schedule with warm restarts) — the quickstart pipeline at a
// smaller epoch.  The data and the shuffle come from --seed.  Epochs of
// Trainer::train_epoch, each followed by Trainer::evaluate on a held-out
// split, repeat until --seconds have been measured.  Correctness: epoch 0
// is replayed from scratch on a fresh network and must reproduce the same
// loss and weight checksum bit for bit.
#include <cmath>
#include <cstdio>
#include <iostream>

#include "data/dataloader.h"
#include "data/encoders.h"
#include "data/synth_svhn.h"
#include "infer/session.h"
#include "probe.h"
#include "snn/loss.h"
#include "snn/model_zoo.h"
#include "train/lr_scheduler.h"
#include "train/optimizer.h"
#include "train/trainer.h"

namespace perfbench {

namespace {

using namespace spiketune;

constexpr std::int64_t kTrainSize = 256;
constexpr std::int64_t kTestSize = 256;
constexpr std::int64_t kImage = 16;
constexpr std::int64_t kSteps = 8;
constexpr std::int64_t kBatch = 32;
constexpr int kThreads = 1;  // see README.md: steadier under host steal
constexpr int kSetupReps = 25;  // ~20 ms each; the median steadies setup_s
constexpr double kLr = 5e-3;
// The schedule restarts every kScheduleEpochs epochs: without restarts it
// holds at lr 0 after the window, which Optimizer::set_lr rejects, and a
// run may train any number of epochs.
constexpr std::int64_t kScheduleEpochs = 20;

/// Everything one training run needs, built from the seed.
struct Setup {
  std::shared_ptr<const data::Dataset> train;
  std::shared_ptr<const data::Dataset> test;
  std::unique_ptr<snn::SpikingNetwork> net;

  explicit Setup(std::uint64_t seed) {
    auto splits =
        data::make_synth_svhn_splits(kTrainSize, kTestSize, kImage, seed);
    auto train_raw = std::make_shared<data::InMemoryDataset>(
        data::InMemoryDataset::from(splits.train));
    auto test_raw = std::make_shared<data::InMemoryDataset>(
        data::InMemoryDataset::from(splits.test));
    const auto means = data::channel_means(*train_raw);
    const std::vector<float> stds(means.size(), 0.25f);
    train = std::make_shared<data::NormalizedDataset>(train_raw, means, stds);
    test = std::make_shared<data::NormalizedDataset>(test_raw, means, stds);
    snn::CsnnConfig cfg;
    cfg.image_size = kImage;
    cfg.lif.surrogate = snn::Surrogate::fast_sigmoid(0.25f);  // quickstart
    net = snn::make_svhn_csnn(cfg);
  }
};

train::TrainerConfig trainer_config() {
  train::TrainerConfig cfg;
  cfg.num_steps = kSteps;
  cfg.batch_size = kBatch;
  cfg.base_lr = kLr;
  cfg.verbose = false;
  cfg.threads = kThreads;
  return cfg;
}

/// FNV-1a over every parameter's bytes, in parameter order.
std::string weight_checksum(snn::SpikingNetwork& net) {
  std::uint64_t h = kFnvBasis;
  for (snn::Param* p : net.params())
    h = fnv1a(p->value.data(),
              static_cast<std::size_t>(p->numel()) * sizeof(float), h);
  return hex64(h);
}

}  // namespace

int run_train(const Options& opt, Report& report) {
  SpanLog log(opt.trace);
  // Set-up and epochs run on successive CPUs, as infer_sparse's windows do:
  // a core slowed by a neighbour then costs a few samples, not the median.
  const std::vector<int> cpus = allowed_cpus();
  std::vector<double> setup_s;
  std::unique_ptr<Setup> setup;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    pin_to_cpu(cpus[static_cast<std::size_t>(rep) % cpus.size()]);
    const std::uint64_t t0 = now_ns();
    const auto s = log.begin("train.setup");
    setup = std::make_unique<Setup>(opt.seed);
    log.end(s);
    setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }

  auto encoder = data::make_encoder("direct", opt.seed ^ 0xE);
  const snn::RateCrossEntropyLoss loss(static_cast<double>(kSteps));
  const train::CosineAnnealingLr schedule(kLr, kScheduleEpochs, 0.0,
                                          /*warm_restarts=*/true);
  data::DataLoader train_loader(setup->train, kBatch, /*shuffle=*/true,
                                opt.seed);
  data::DataLoader test_loader(setup->test, kBatch, /*shuffle=*/false);
  train::Trainer trainer(*setup->net, *encoder, loss, trainer_config());
  train::Adam adam(setup->net->params(), kLr);

  std::vector<double> epoch_s, eval_s;
  double first_loss = 0.0;
  std::string first_checksum;
  train::EvalMetrics last_eval;
  const std::uint64_t deadline =
      now_ns() + static_cast<std::uint64_t>(opt.seconds * 1e9);
  for (std::int64_t epoch = 0; epoch == 0 || now_ns() < deadline; ++epoch) {
    pin_to_cpu(cpus[static_cast<std::size_t>(epoch) % cpus.size()]);
    auto span = log.begin("train.train_epoch", static_cast<std::uint64_t>(epoch));
    std::uint64_t t0 = now_ns();
    const auto m = trainer.train_epoch(train_loader, adam, schedule, epoch);
    epoch_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    log.end(span);
    if (epoch == 0) {
      first_loss = m.train_loss;
      first_checksum = weight_checksum(*setup->net);
    }
    span = log.begin("train.evaluate", static_cast<std::uint64_t>(epoch));
    t0 = now_ns();
    last_eval = trainer.evaluate(test_loader);
    eval_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    log.end(span);
  }
  const auto epochs = static_cast<std::int64_t>(epoch_s.size());

  // Replay epoch 0 from scratch: same seed, same loss, same weights.  The
  // replayed network (exactly one epoch, whatever the run length) is also
  // the one whose evaluation counts the traced run reports.
  Setup again(opt.seed);
  {
    data::DataLoader loader(again.train, kBatch, /*shuffle=*/true, opt.seed);
    train::Trainer replay(*again.net, *encoder, loss, trainer_config());
    train::Adam replay_adam(again.net->params(), kLr);
    const auto m = replay.train_epoch(loader, replay_adam, schedule, 0);
    const std::string checksum = weight_checksum(*again.net);
    char loss_text[64];
    std::snprintf(loss_text, sizeof(loss_text), "%.17g", first_loss);
    report.info("epoch0_loss", loss_text);
    report.info("epoch0_weight_checksum", first_checksum);
    std::cout << "epoch 0: loss " << loss_text << ", weight checksum "
              << first_checksum << std::endl;
    report.gate("train_epoch0_reproducible",
                m.train_loss == first_loss && checksum == first_checksum &&
                    std::isfinite(first_loss),
                "replayed epoch 0 loss and weight checksum " +
                    std::string(m.train_loss == first_loss &&
                                        checksum == first_checksum
                                    ? "match"
                                    : "differ"));
  }
  report.gate("train_evaluated", last_eval.num_examples == kTestSize,
              std::to_string(last_eval.num_examples) +
                  " held-out examples evaluated");
  report.count_attempt(2 * epochs, 0);
  report.info("threads", std::to_string(kThreads));
  report.info("eval_accuracy", std::to_string(last_eval.accuracy));

  report.metric("setup_s", quantile(setup_s, 0.5), "s", kSetupReps);
  report.metric("train_samples_per_s", kTrainSize / quantile(epoch_s, 0.5),
                "samples/s", epochs);
  report.metric("eval_samples_per_s", kTestSize / quantile(eval_s, 0.5),
                "samples/s", epochs);
  report.metric("eval_p50_ms", 1e3 * quantile(eval_s, 0.5), "ms", epochs);
  report.metric("train_step_p50_ms",
                1e3 * quantile(epoch_s, 0.5) / (kTrainSize / kBatch), "ms",
                epochs);
  report.metric("peak_rss_mb", peak_rss_mb(), "MB", 1);
  if (!opt.trace) return 0;

  report.metric("train.epoch_s", mean(epoch_s), "s", epochs);
  report.metric("train.evaluate_s", mean(eval_s), "s", epochs);

  // The layers inside one training step, timed around their public calls
  // on a few batches: DataLoader::next, SpikingNetwork::forward (training
  // caches on) and backward.
  std::vector<double> next_ms, forward_ms, backward_ms;
  train_loader.start_epoch(0);
  data::Batch batch;
  for (std::uint64_t b = 0;; ++b) {
    const auto root = log.begin("train.step", b);
    auto s = log.begin("data.next", b, root);
    std::uint64_t t0 = now_ns();
    const bool more = train_loader.next(batch);
    next_ms.push_back(ms_since(t0));
    log.end(s);
    if (!more) {
      log.end(root);
      break;
    }
    const auto inputs = encoder->encode(batch.images, kSteps, b);
    s = log.begin("snn.forward", b, root);
    t0 = now_ns();
    const auto out = setup->net->forward(inputs, {.training = true});
    forward_ms.push_back(ms_since(t0));
    log.end(s);
    const auto lr = loss.compute(out.spike_counts, batch.labels);
    s = log.begin("snn.backward", b, root);
    t0 = now_ns();
    setup->net->zero_grad();
    setup->net->backward(lr.grad_counts);
    backward_ms.push_back(ms_since(t0));
    log.end(s);
    log.end(root);
  }
  report.metric("data.next_ms", mean(next_ms), "ms",
                static_cast<std::int64_t>(next_ms.size()));
  report.metric("snn.forward_ms", mean(forward_ms), "ms",
                static_cast<std::int64_t>(forward_ms.size()));
  report.metric("snn.backward_ms", mean(backward_ms), "ms",
                static_cast<std::int64_t>(backward_ms.size()));

  // Evaluation at trained densities, on the network after exactly one
  // epoch: the held-out split through a compiled session with the stage
  // clock on (dispatch split and kernel times), and the per-layer input
  // density that Trainer::evaluate records.
  train::Trainer evaluator(*again.net, *encoder, loss, trainer_config());
  const train::EvalMetrics eval = evaluator.evaluate(test_loader);
  const auto model = infer::CompiledModel::compile(
      *again.net, Shape{3, kImage, kImage});
  auto options = batch_options(kBatch);
  options.record_stage_times = true;
  infer::InferenceSession session(model, options);
  std::vector<double> run_ms;
  std::int64_t sparse = 0, dense = 0;
  std::uint64_t index_ns = 0, sparse_ns = 0, dense_ns = 0;
  test_loader.start_epoch(0);
  for (std::uint64_t b = 0; test_loader.next(batch); ++b) {
    const auto inputs = encoder->encode(batch.images, kSteps, b);
    const auto span = log.begin("eval.run", b);
    const std::uint64_t t0 = now_ns();
    const auto r = session.run(inputs);
    run_ms.push_back(ms_since(t0));
    log.end(span);
    sparse += r.sparse_dispatches;
    dense += r.dense_dispatches;
    index_ns += r.index_ns;
    sparse_ns += r.sparse_kernel_ns;
    dense_ns += r.dense_kernel_ns;
  }
  const auto nb = static_cast<std::int64_t>(run_ms.size());
  const double per_batch = 1e6 * static_cast<double>(nb);
  report.metric("eval.run_ms", mean(run_ms), "ms", nb);
  report.metric("eval.index_ms", index_ns / per_batch, "ms", nb);
  report.metric("eval.sparse_kernel_ms", sparse_ns / per_batch, "ms", nb);
  report.metric("eval.dense_kernel_ms", dense_ns / per_batch, "ms", nb);
  report.metric("eval.sparse_dispatches", static_cast<double>(sparse), "count",
                nb);
  report.metric("eval.dense_dispatches", static_cast<double>(dense), "count",
                nb);
  for (const auto& [index, name] : synaptic_layers(model)) {
    report.metric("eval.density." + name,
                  eval.record.layers()[index].input_density(), "ratio",
                  eval.num_examples);
  }
  finish_spans(opt, {&log});
  return 0;
}

}  // namespace perfbench
