// The dataset, model shape, clock and latency summary that bench_serving
// and bench_cluster share, so both measure the same model on the same data.

#ifndef SLIME4REC_BENCH_SERVING_BENCH_COMMON_H_
#define SLIME4REC_BENCH_SERVING_BENCH_COMMON_H_

#include <algorithm>
#include <chrono>
#include <vector>

#include "data/synthetic.h"
#include "models/model_factory.h"

namespace slime {
namespace bench {

inline double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline data::SplitDataset BenchSplit(double scale) {
  data::SyntheticConfig config = data::BeautySimConfig(scale);
  config.seed = 4242;
  return data::SplitDataset(data::GenerateSynthetic(config), 2);
}

inline models::ModelConfig BenchModelConfig(const data::SplitDataset& split) {
  models::ModelConfig c;
  c.num_items = split.num_items();
  c.num_users = split.num_users();
  c.max_len = 16;
  c.hidden_dim = 32;
  c.num_layers = 2;
  c.seed = 11;
  return c;
}

struct Percentiles {
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

inline Percentiles LatencyPercentiles(std::vector<double> ms) {
  Percentiles p;
  if (ms.empty()) return p;
  std::sort(ms.begin(), ms.end());
  const auto at = [&](double q) {
    return ms[static_cast<size_t>(q * (ms.size() - 1))];
  };
  p.p50 = at(0.50);
  p.p95 = at(0.95);
  p.p99 = at(0.99);
  return p;
}

}  // namespace bench
}  // namespace slime

#endif  // SLIME4REC_BENCH_SERVING_BENCH_COMMON_H_
