#include "train/train_state.h"

#include "io/serializer.h"

namespace slime {
namespace train {
namespace {

constexpr std::string_view kMagic = "SLT1";
constexpr uint32_t kPayloadVersion = 1;

void PutRngState(io::BinaryWriter* w, const RngState& st) {
  for (uint64_t s : st.s) w->PutU64(s);
  w->PutU8(st.have_cached_gaussian ? 1 : 0);
  w->PutF32(st.cached_gaussian);
}

bool GetRngState(io::BinaryReader* r, RngState* st) {
  for (auto& s : st->s) {
    if (!r->GetU64(&s)) return false;
  }
  uint8_t flag = 0;
  if (!r->GetU8(&flag) || !r->GetF32(&st->cached_gaussian)) return false;
  st->have_cached_gaussian = flag != 0;
  return true;
}

void PutMetrics(io::BinaryWriter* w, const metrics::RankingMetrics& m) {
  w->PutF64(m.hr5);
  w->PutF64(m.hr10);
  w->PutF64(m.ndcg5);
  w->PutF64(m.ndcg10);
  w->PutF64(m.mrr);
}

bool GetMetrics(io::BinaryReader* r, metrics::RankingMetrics* m) {
  return r->GetF64(&m->hr5) && r->GetF64(&m->hr10) && r->GetF64(&m->ndcg5) &&
         r->GetF64(&m->ndcg10) && r->GetF64(&m->mrr);
}

void PutTensorList(io::BinaryWriter* w, const std::vector<Tensor>& list) {
  w->PutU64(list.size());
  for (const Tensor& t : list) w->PutTensor(t);
}

bool GetTensorList(io::BinaryReader* r, std::vector<Tensor>* list,
                   uint64_t max_count = 1u << 20) {
  uint64_t count = 0;
  if (!r->GetU64(&count) || count > max_count) return false;
  list->resize(count);
  for (auto& t : *list) {
    if (!r->GetTensor(&t)) return false;
  }
  return true;
}

}  // namespace

Status SaveTrainState(const TrainState& state, const std::string& path,
                      io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  io::BinaryWriter w;
  w.PutU32(kPayloadVersion);
  w.PutI64(state.epoch);
  w.PutF32(state.base_lr);
  w.PutI64(state.rollbacks);
  w.PutF64(state.best_valid);
  w.PutI64(state.best_epoch);
  w.PutI64(state.since_best);
  w.PutF64(state.final_train_loss);
  PutMetrics(&w, state.best_metrics);
  PutRngState(&w, state.batch_rng);
  PutRngState(&w, state.model_rng);
  w.PutU64(state.batch_order.size());
  for (int64_t idx : state.batch_order) w.PutI64(idx);
  io::PutNamedTensors(&w, state.params);
  w.PutI64(state.adam_step);
  PutTensorList(&w, state.adam_m);
  PutTensorList(&w, state.adam_v);
  PutTensorList(&w, state.best_params);
  return io::WriteEnvelope(env, path, kMagic, w.buffer());
}

Result<TrainState> LoadTrainState(const std::string& path, io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  Result<std::string> payload = io::ReadEnvelope(env, path, kMagic);
  if (!payload.ok()) return payload.status();
  io::BinaryReader r(payload.value());
  const auto corrupt = [&path](const std::string& what) {
    return Status::Corruption("train state " + path + ": truncated or bad " +
                              what);
  };
  uint32_t version = 0;
  if (!r.GetU32(&version)) return corrupt("version");
  if (version != kPayloadVersion) {
    return Status::InvalidArgument(
        "train state " + path + " has payload version " +
        std::to_string(version) + ", this build reads version " +
        std::to_string(kPayloadVersion));
  }
  TrainState s;
  if (!r.GetI64(&s.epoch) || !r.GetF32(&s.base_lr) ||
      !r.GetI64(&s.rollbacks) || !r.GetF64(&s.best_valid) ||
      !r.GetI64(&s.best_epoch) || !r.GetI64(&s.since_best) ||
      !r.GetF64(&s.final_train_loss)) {
    return corrupt("scalar header");
  }
  if (!GetMetrics(&r, &s.best_metrics)) return corrupt("metrics");
  if (!GetRngState(&r, &s.batch_rng) || !GetRngState(&r, &s.model_rng)) {
    return corrupt("rng state");
  }
  uint64_t order_size = 0;
  if (!r.GetU64(&order_size) || order_size > (uint64_t{1} << 32)) {
    return corrupt("batch order size");
  }
  s.batch_order.resize(order_size);
  for (auto& idx : s.batch_order) {
    if (!r.GetI64(&idx)) return corrupt("batch order");
  }
  if (!io::GetNamedTensors(&r, &s.params)) return corrupt("parameters");
  if (!r.GetI64(&s.adam_step)) return corrupt("adam step");
  if (!GetTensorList(&r, &s.adam_m) || !GetTensorList(&r, &s.adam_v)) {
    return corrupt("adam moments");
  }
  if (!GetTensorList(&r, &s.best_params)) return corrupt("best parameters");
  if (!r.AtEnd()) {
    return Status::Corruption("train state " + path + " has " +
                              std::to_string(r.remaining()) +
                              " trailing bytes");
  }
  return s;
}

std::string SnapshotPath(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/train_state.slt";
}

std::string BestModelPath(const std::string& checkpoint_dir) {
  return checkpoint_dir + "/best_model.ckpt";
}

std::string ResolveResumePath(const std::string& resume_from, io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  // A plain file (e.g. an explicit snapshot path) is used as-is; anything
  // else is treated as a checkpoint directory.
  if (env->FileExists(resume_from)) return resume_from;
  return SnapshotPath(resume_from);
}

}  // namespace train
}  // namespace slime
