#include "layers.h"

#include <cmath>
#include <filesystem>

#include "autograd/ops.h"
#include "core/contrastive.h"
#include "data/batcher.h"
#include "fft/spectral_ops.h"
#include "optim/adam.h"
#include "serving/model_server.h"
#include "state/state_store.h"
#include "tensor/tensor_ops.h"
#include "train/trainer.h"

namespace slime {
namespace bench {
namespace {

using autograd::Variable;

/// Runs `fn` at least `min_reps` times and until `budget_s` has passed
/// (at most 200 times): enough calls for a p50 on cheap layers without
/// letting expensive ones run long.
void Repeat(int min_reps, double budget_s, const std::function<void()>& fn) {
  const double t0 = NowSeconds();
  for (int r = 0; r < 200; ++r) {
    if (r >= min_reps && NowSeconds() - t0 >= budget_s) break;
    fn();
  }
}

std::vector<int64_t> PaddedIds(const std::vector<std::vector<int64_t>>& hs,
                               int64_t n) {
  std::vector<int64_t> ids;
  for (const auto& h : hs) {
    const std::vector<int64_t> padded = data::PadTruncate(h, n);
    ids.insert(ids.end(), padded.begin(), padded.end());
  }
  return ids;
}

double P50(const std::map<std::string, SpanStat>& stats,
           const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.p50_ms;
}

double Total(const std::map<std::string, SpanStat>& stats,
             const std::string& name) {
  const auto it = stats.find(name);
  return it == stats.end() ? 0.0 : it->second.total_ms;
}

double Share(double part, double whole) {
  return whole > 0.0 ? part / whole : 0.0;
}

}  // namespace

void ProbeForward(const Shape& shape, uint64_t seed,
                  const std::vector<std::vector<int64_t>>& request,
                  SpanLog* spans) {
  serving::ModelServer server({});
  const Status started = server.Start(MakeModel(shape, seed));
  SLIME_CHECK_MSG(started.ok(), started.ToString());
  std::unique_ptr<core::Slime4Rec> twin = MakeModel(shape, seed);
  twin->SetTraining(false);
  serving::RecommendationService service(twin.get());

  const int64_t batch = static_cast<int64_t>(request.size());
  const int64_t n = shape.max_len;
  const int64_t items = shape.items;
  const std::vector<int64_t> ids = PaddedIds(request, n);
  serving::BatchServeRequest serve;
  serve.histories = request;
  serve.options.top_k = kTopK;
  serve.deadline_nanos = 60 * serving::kNanosPerSecond;
  std::vector<std::vector<bool>> excluded(request.size(),
                                          std::vector<bool>(items + 1, false));
  for (size_t b = 0; b < request.size(); ++b) {
    for (int64_t item : request[b]) excluded[b][item] = true;
  }
  Rng rng(StreamSeed(seed, 7));
  const Variable x =
      autograd::Constant(Tensor::Randn({batch, n, shape.hidden}, &rng));

  bool warm = false;
  const auto pass = [&] {
    obs::TraceBuilder trace =
        warm ? spans->Start("probe.forward") : obs::TraceBuilder();
    {
      obs::TraceSpan span(trace, "serving.serve");
      SLIME_CHECK(server.ServeBatch(serve).ok());
    }
    {
      obs::TraceSpan span(trace, "serving.recommend");
      SLIME_CHECK(service.RecommendBatch(request, serve.options).ok());
    }
    Variable h;
    {
      obs::TraceSpan span(trace, "core.encode");
      h = twin->EncodeLast(ids, batch);
    }
    Tensor logits;
    {
      obs::TraceSpan span(trace, "core.logits");
      logits = twin->PredictLogits(h).value();
    }
    {
      obs::TraceSpan span(trace, "serving.topk");
      for (int64_t b = 0; b < batch; ++b) {
        (void)serving::TopKFromScores(logits.data() + b * (items + 1), items,
                                      kTopK, excluded[b]);
      }
    }
    for (const auto& block : twin->blocks()) {
      {
        obs::TraceSpan span(trace, "core.block");
        (void)block->Forward(x, twin->rng());
      }
      {
        obs::TraceSpan span(trace, "core.mixer");
        (void)block->mixer().Forward(x, twin->rng());
      }
      fft::SpectralPair spectrum;
      {
        obs::TraceSpan span(trace, "fft.rfft");
        spectrum = fft::Rfft(x);
      }
      {
        obs::TraceSpan span(trace, "fft.irfft");
        (void)fft::Irfft(spectrum, n);
      }
    }
    trace.Finish();
  };
  pass();  // untraced warm-up: first-touch allocations and plan caches
  warm = true;
  Repeat(3, 1.0, pass);
}

void ProbeMatmul(const Shape& shape, int64_t batch, SpanLog* spans,
                 RunResult* result) {
  Rng rng(StreamSeed(static_cast<uint64_t>(batch), 10));
  const int64_t d = shape.hidden;
  const int64_t v = shape.items + 1;
  const Tensor h = Tensor::Randn({batch, d}, &rng);
  const Tensor w = Tensor::Randn({v, d}, &rng);
  const Tensor g = Tensor::Randn({batch, v}, &rng);
  const double flops = 2.0 * static_cast<double>(batch) * d * v;
  struct Arm {
    const char* span;
    const char* metric;
    std::function<Tensor()> run;
  };
  const Arm arms[] = {
      // logits = h W^T, dh = g W, dW = g^T h
      {"compute.matmul_transb", "compute.matmul_transb_gflops",
       [&] { return ops::MatMulTransB(h, w); }},
      {"compute.matmul", "compute.matmul_gflops",
       [&] { return ops::MatMul(g, w); }},
      {"compute.matmul_transa", "compute.matmul_transa_gflops",
       [&] { return ops::MatMulTransA(g, h); }},
  };
  for (const Arm& arm : arms) {
    (void)arm.run();
    std::vector<double> seconds;
    Repeat(5, 0.15, [&] {
      obs::TraceBuilder trace = spans->Start(arm.span);
      const double t0 = NowSeconds();
      (void)arm.run();
      seconds.push_back(NowSeconds() - t0);
      trace.Finish();
    });
    result->Add(arm.metric, flops / Summarize(seconds).p50 * 1e-9, "GFLOP/s");
  }
}

void ProbeBackward(const Shape& shape, uint64_t seed, int64_t batch,
                   SpanLog* spans) {
  std::unique_ptr<core::Slime4Rec> model = MakeModel(shape, seed);
  model->SetTraining(true);
  const int64_t n = shape.max_len;
  const int64_t d = shape.hidden;
  Rng rng(StreamSeed(seed, 8));
  std::vector<int64_t> ids(static_cast<size_t>(batch * n));
  for (int64_t& id : ids) id = rng.UniformInt(1, shape.items);
  std::vector<int64_t> targets(static_cast<size_t>(batch));
  for (int64_t& t : targets) t = rng.UniformInt(1, shape.items);
  const auto leaf = [&rng](std::vector<int64_t> dims) {
    return autograd::Param(Tensor::Randn(std::move(dims), &rng, 0.1f));
  };
  const core::FilterMixerBlock& block = *model->blocks()[0];

  bool warm = false;
  const auto pass = [&] {
    obs::TraceBuilder trace =
        warm ? spans->Start("probe.backward") : obs::TraceBuilder();
    const auto timed_backward = [&trace](const char* name,
                                         const Variable& loss) {
      obs::TraceSpan span(trace, name);
      loss.Backward();
    };
    timed_backward("core.logits_ce.bwd",
                   autograd::CrossEntropy(
                       model->PredictLogits(leaf({batch, d})), targets));
    timed_backward("core.encode.bwd",
                   autograd::Sum(model->EncodeLast(ids, batch)));
    timed_backward("core.block.bwd",
                   autograd::Sum(block.Forward(leaf({batch, n, d}),
                                               model->rng())));
    timed_backward("core.mixer.bwd",
                   autograd::Sum(block.mixer().Forward(leaf({batch, n, d}),
                                                       model->rng())));
    timed_backward("fft.rfft_irfft.bwd",
                   autograd::Sum(fft::Irfft(fft::Rfft(leaf({batch, n, d})),
                                            n)));
    timed_backward("core.infonce.bwd",
                   core::InfoNceLoss(leaf({batch, d}), leaf({batch, d}),
                                     model->config().cl_temperature));
    timed_backward("nn.embedding.bwd",
                   autograd::Sum(model->item_embedding().Forward(
                       ids, {batch, n})));
    model->ZeroGrad();
    trace.Finish();
  };
  pass();
  warm = true;
  Repeat(3, 1.0, pass);
}

EpochRun TracedEpoch(core::Slime4Rec* model, const data::SplitDataset& split,
                     const train::TrainConfig& config, int64_t max_batches,
                     SpanLog* spans) {
  const double t0 = NowSeconds();
  obs::TraceBuilder trace = spans->Start("train.epoch");
  model->Prepare(split);
  Rng batch_rng(config.seed);
  data::TrainBatcher batcher(&split, config.batch_size,
                             model->config().max_len,
                             model->needs_positives(), &batch_rng);
  optim::Adam optimizer(model->Parameters(), {.lr = config.lr});
  model->SetTraining(true);
  std::vector<data::Batch> batches;
  {
    obs::TraceSpan span(trace, "data.batches");
    batches = batcher.Epoch();
  }
  EpochRun run;
  double loss_sum = 0.0;
  for (const data::Batch& batch : batches) {
    if (max_batches > 0 && run.batches >= max_batches) break;
    obs::TraceSpan step(trace, "train.step");
    Variable loss;
    {
      obs::TraceSpan span(trace, "train.loss_fwd");
      loss = model->Loss(batch);
    }
    loss_sum += loss.value()[0];
    ++run.batches;
    {
      obs::TraceSpan span(trace, "train.backward");
      loss.Backward();
    }
    {
      // Fit's divergence guard and global-norm clip, as one optimizer step.
      obs::TraceSpan span(trace, "optim.clip");
      for (const Variable& p : optimizer.params()) {
        if (p.has_grad()) SLIME_CHECK(ops::AllFinite(p.grad()));
      }
      optimizer.ClipGradNorm(config.grad_clip_norm, optimizer.GradNorm());
    }
    {
      obs::TraceSpan span(trace, "optim.adam");
      optimizer.Step();
    }
  }
  for (const bool test : {false, true}) {
    obs::TraceSpan span(trace, "train.eval");
    (void)train::Evaluate(model, split, test);
  }
  trace.Finish();
  run.mean_loss = run.batches > 0 ? loss_sum / run.batches : 0.0;
  run.wall_ms = (NowSeconds() - t0) * 1e3;
  return run;
}

std::vector<double> ProbeStateAppends(const std::string& dir, int64_t users,
                                      uint64_t seed) {
  std::filesystem::remove_all(dir);
  state::StateStoreOptions options;
  options.dir = dir;
  Result<std::unique_ptr<state::StateStore>> store =
      state::StateStore::Open(options);
  SLIME_CHECK_MSG(store.ok(), store.status().ToString());
  Rng rng(StreamSeed(seed, 9));
  std::vector<double> ms;
  for (int i = 0; i < 2000; ++i) {
    const uint64_t user = rng.Uniform(static_cast<uint64_t>(users));
    const int64_t item = rng.UniformInt(1, 1000);
    const double t0 = NowSeconds();
    SLIME_CHECK(store.value()->Append(user, {item}).ok());
    ms.push_back((NowSeconds() - t0) * 1e3);
  }
  store.value().reset();
  std::filesystem::remove_all(dir);
  return ms;
}

void ReportLayers(const std::map<std::string, SpanStat>& stats, int64_t batch,
                  int64_t layers, double train_wall_ms, RunResult* result) {
  const auto ms = [&](const std::string& name, double v) {
    result->Add(name + "_ms", v, "ms");
  };
  const auto share = [&](const std::string& name, double part, double whole) {
    result->Add(name + "_share", Share(part, whole), "ratio");
  };
  const double l = static_cast<double>(layers);

  // serving and forward decomposition, per served request
  const double serve = P50(stats, "serving.serve");
  const double recommend = P50(stats, "serving.recommend");
  const double shell = serve - recommend;
  const double topk = P50(stats, "serving.topk") / batch;
  const double encode = P50(stats, "core.encode");
  const double logits = P50(stats, "core.logits");
  const double unattributed = recommend - encode - logits - topk * batch;
  const double block = l * P50(stats, "core.block");
  const double embed = encode - block;
  const double mixer = l * P50(stats, "core.mixer");
  const double ffn_ln = block - mixer;
  const double rfft = l * P50(stats, "fft.rfft");
  const double irfft = l * P50(stats, "fft.irfft");
  const double filter = mixer - rfft - irfft;
  ms("serving.serve", serve);
  ms("serving.recommend", recommend);
  share("serving.recommend", recommend, serve);
  ms("serving.shell_self", shell);
  share("serving.shell_self", shell, serve);
  ms("core.encode", encode);
  share("core.encode", encode, recommend);
  ms("core.logits", logits);
  share("core.logits", logits, recommend);
  ms("serving.topk", topk);
  share("serving.topk", topk * batch, recommend);
  ms("core.unattributed", unattributed);
  share("core.unattributed", unattributed, recommend);
  ms("core.block", block);
  share("core.block", block, encode);
  ms("core.embed_self", embed);
  share("core.embed_self", embed, encode);
  ms("core.mixer", mixer);
  share("core.mixer", mixer, block);
  ms("core.ffn_ln_self", ffn_ln);
  share("core.ffn_ln_self", ffn_ln, block);
  ms("fft.rfft", rfft);
  share("fft.rfft", rfft, mixer);
  ms("fft.irfft", irfft);
  share("fft.irfft", irfft, mixer);
  ms("core.filter_self", filter);
  share("core.filter_self", filter, mixer);

  // training, per batch / per pass; the parts must add up to the wall time
  const double step = P50(stats, "train.step");
  ms("data.batches", P50(stats, "data.batches"));
  ms("train.step", step);
  for (const char* part :
       {"train.loss_fwd", "train.backward", "optim.clip", "optim.adam"}) {
    ms(part, P50(stats, part));
    share(part, P50(stats, part), step);
  }
  ms("train.eval", P50(stats, "train.eval"));
  const double parts = Total(stats, "data.batches") +
                       Total(stats, "train.step") + Total(stats, "train.eval");
  ms("train.unattributed", train_wall_ms - parts);
  result->Add("train.coverage_ratio", Share(parts, train_wall_ms), "ratio");

  // backward from leaf inputs
  for (const char* leaf :
       {"core.logits_ce.bwd", "core.encode.bwd", "core.block.bwd",
        "core.mixer.bwd", "fft.rfft_irfft.bwd", "core.infonce.bwd",
        "nn.embedding.bwd"}) {
    ms(leaf, P50(stats, leaf));
  }
}

}  // namespace bench
}  // namespace slime
