// Microbenchmark backing Sec. III-F (complexity analysis): the filter
// mixer's forward pass scales ~O(N log N) in the sequence length, the
// self-attention layer it replaces scales O(N^2). google-benchmark
// binary; run with --benchmark_filter=... to narrow.

#include <benchmark/benchmark.h>

#include "core/filter_mixer.h"
#include "fft/fft.h"
#include "fft/spectral_ops.h"
#include "nn/attention.h"

namespace slime {
namespace {

constexpr int64_t kDim = 32;
constexpr int64_t kBatch = 8;

void BM_FilterMixerForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(1);
  core::FilterMixerOptions options;
  options.alpha = 0.4;
  core::FilterMixerLayer layer(n, kDim, 2, 0, options, 0.0f, &rng);
  layer.SetTraining(false);
  autograd::Variable x =
      autograd::Constant(Tensor::Randn({kBatch, n, kDim}, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(layer.Forward(x, &rng).value().data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_FilterMixerForward)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oNLogN);

void BM_SelfAttentionForward(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(2);
  nn::MultiHeadSelfAttention attn(kDim, 2, 0.0f, &rng);
  attn.SetTraining(false);
  autograd::Variable x =
      autograd::Constant(Tensor::Randn({kBatch, n, kDim}, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        attn.Forward(x, /*causal=*/true, Tensor(), &rng).value().data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_SelfAttentionForward)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oNSquared);

void BM_RfftVerticalPlan(benchmark::State& state) {
  const int64_t n = state.range(0);
  Rng rng(3);
  Tensor re = Tensor::Randn({n, kDim}, &rng);
  Tensor im = Tensor::Zeros({n, kDim});
  const fft::VerticalFftPlan& plan = fft::GetVerticalPlan(n);
  for (auto _ : state) {
    plan.Transform(re.data(), im.data(), kDim, false);
    benchmark::DoNotOptimize(re.data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_RfftVerticalPlan)
    ->RangeMultiplier(2)
    ->Range(16, 1024)
    ->Complexity(benchmark::oNLogN);

void BM_ElementwiseFilterProduct(benchmark::State& state) {
  // The O(nd) elementwise product of Eq. 21/25.
  const int64_t n = state.range(0);
  Rng rng(4);
  core::LearnableFilter filter(fft::RfftBins(n), kDim, &rng);
  autograd::Variable re = autograd::Constant(
      Tensor::Randn({kBatch, fft::RfftBins(n), kDim}, &rng));
  autograd::Variable im = autograd::Constant(
      Tensor::Randn({kBatch, fft::RfftBins(n), kDim}, &rng));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        fft::FilterMix({re, im}, {{filter.weight(), Tensor()}})
            .re.value()
            .data());
  }
  state.SetComplexityN(n);
}
BENCHMARK(BM_ElementwiseFilterProduct)
    ->RangeMultiplier(2)
    ->Range(16, 512)
    ->Complexity(benchmark::oN);

}  // namespace
}  // namespace slime

BENCHMARK_MAIN();
