#ifndef SLIME_BENCH_SUITE_LAYERS_H_
#define SLIME_BENCH_SUITE_LAYERS_H_

// The traced run's per-layer measurements. Every span here is opened by the
// bench around a call into a public library function; nothing under src/
// is instrumented. Children that the bench cannot observe inside a call
// (a block's mixer, a mixer's FFTs) are timed as separate calls on a
// seeded input of the same shape, and a parent's self time is derived as
// its time minus theirs.

#include <map>
#include <string>
#include <vector>

#include "common.h"
#include "data/dataset.h"
#include "train/config.h"

namespace slime {
namespace bench {

/// Forward decomposition of one served request of the workload:
/// ModelServer::ServeBatch, then on a same-seed twin RecommendBatch,
/// EncodeLast, PredictLogits, TopKFromScores per user, each block, each
/// mixer and each rFFT/irFFT. `request` is the workload's request batch.
void ProbeForward(const Shape& shape, uint64_t seed,
                  const std::vector<std::vector<int64_t>>& request,
                  SpanLog* spans);

/// ops:: matmuls at the logits forward (TransB), dA (plain) and dW
/// (TransA) shapes for a batch of `batch` users; adds their GFLOP/s.
void ProbeMatmul(const Shape& shape, int64_t batch, SpanLog* spans,
                 RunResult* result);

/// Backward passes from leaf inputs (logits+CE, encode, block, mixer,
/// rFFT->irFFT, InfoNCE, embedding) at `batch` sequences, training mode.
void ProbeBackward(const Shape& shape, uint64_t seed, int64_t batch,
                   SpanLog* spans);

/// The bench's own copy of Trainer::Fit's epoch (batches, loss forward,
/// backward, finiteness check + clip, Adam, validation and test passes),
/// every part in a span. At most `max_batches` batches when positive.
struct EpochRun {
  double wall_ms = 0.0;
  double mean_loss = 0.0;
  int64_t batches = 0;
};
EpochRun TracedEpoch(core::Slime4Rec* model, const data::SplitDataset& split,
                     const train::TrainConfig& config, int64_t max_batches,
                     SpanLog* spans);

/// Append latencies of a fresh StateStore under `dir` (group commit).
std::vector<double> ProbeStateAppends(const std::string& dir, int64_t users,
                                      uint64_t seed);

/// Turns the spans of the probes above into per-layer metrics: per-call
/// p50s, derived self times, and shares of the parent. `batch` is the
/// forward probe's request batch, `layers` the model depth, and
/// `train_wall_ms` the wall time the training parts must add up to.
void ReportLayers(const std::map<std::string, SpanStat>& stats, int64_t batch,
                  int64_t layers, double train_wall_ms, RunResult* result);

}  // namespace bench
}  // namespace slime

#endif  // SLIME_BENCH_SUITE_LAYERS_H_
