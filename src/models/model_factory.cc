#include "models/model_factory.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <string_view>
#include <tuple>
#include <utility>

#include "common/string_util.h"
#include "io/checkpoint.h"
#include "models/bert4rec.h"
#include "models/bpr_mf.h"
#include "models/caser.h"
#include "models/cl4srec.h"
#include "models/contrast_vae.h"
#include "models/coserec.h"
#include "models/duorec.h"
#include "models/fmlp_rec.h"
#include "models/gru4rec.h"
#include "models/most_pop.h"
#include "models/sasrec.h"

namespace slime {
namespace models {
namespace {

constexpr std::string_view kMagicV3 = "SLM3";

/// The shortest text that reads back as `v`, so two values print alike
/// only when they are equal.
template <typename Float>
std::string Exact(Float v) {
  char buf[32];
  const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
  return std::string(buf, end);
}

/// InvalidArgument "<field> <value> <rule>", with the field stored in
/// `*out` when it is set.
Status BadField(std::string* out, const char* field, const std::string& value,
                const std::string& rule) {
  if (out != nullptr) *out = field;
  return Status::InvalidArgument(std::string(field) + " " + value + " " +
                                 rule);
}

/// ValidateModelSpec's checks of the fields a loaded model does not share
/// with its checkpoint: eval-mode scoring reads none of them.
Status ValidateTrainingFields(const ModelConfig& c, std::string* field) {
  for (const auto& [name, p] :
       {std::pair{"dropout", c.dropout}, {"emb_dropout", c.emb_dropout}}) {
    if (!(p >= 0.0f && p < 1.0f)) {
      return BadField(field, name, Exact(p), "is not in [0, 1)");
    }
  }
  if (!(std::isfinite(c.cl_weight) && c.cl_weight >= 0.0f)) {
    return BadField(field, "cl_weight", Exact(c.cl_weight),
                    "is not finite and >= 0");
  }
  if (!(std::isfinite(c.cl_temperature) && c.cl_temperature > 0.0f)) {
    return BadField(field, "cl_temperature", Exact(c.cl_temperature),
                    "is not finite and > 0");
  }
  return Status::OK();
}

/// The fields a checkpoint must share with the model it loads into, each
/// as printed: everything that shapes the model or its eval-mode scores.
std::vector<std::pair<const char*, std::string>> SharedFields(
    const ModelSpec& s) {
  const ModelConfig& c = s.config;
  const core::FilterMixerOptions& m = s.mixer;
  return {{"name", "'" + s.name + "'"},
          {"num_items", std::to_string(c.num_items)},
          {"num_users", std::to_string(c.num_users)},
          {"max_len", std::to_string(c.max_len)},
          {"hidden_dim", std::to_string(c.hidden_dim)},
          {"num_layers", std::to_string(c.num_layers)},
          {"num_heads", std::to_string(c.num_heads)},
          {"alpha", Exact(m.alpha)},
          {"gamma", Exact(m.gamma)},
          {"use_dynamic", std::to_string(m.use_dynamic)},
          {"use_static", std::to_string(m.use_static)},
          {"dynamic_direction",
           std::to_string(static_cast<int>(m.dynamic_direction))},
          {"static_direction",
           std::to_string(static_cast<int>(m.static_direction))}};
}

/// Reads PutModelSpec's layout; false on truncation or a bool byte other
/// than 0 or 1. Values are not checked here (ValidateModelSpec).
bool GetModelSpec(io::BinaryReader* reader, ModelSpec* spec) {
  ModelConfig& c = spec->config;
  core::FilterMixerOptions& m = spec->mixer;
  uint8_t bytes[4] = {};  // use_dynamic, use_static, the two directions
  if (!(reader->GetString(&spec->name, /*max_len=*/64) &&
        reader->GetI64(&c.num_items) && reader->GetI64(&c.num_users) &&
        reader->GetI64(&c.max_len) && reader->GetI64(&c.hidden_dim) &&
        reader->GetI64(&c.num_layers) && reader->GetI64(&c.num_heads) &&
        reader->GetF32(&c.dropout) && reader->GetF32(&c.emb_dropout) &&
        reader->GetF32(&c.cl_weight) && reader->GetF32(&c.cl_temperature) &&
        reader->GetU64(&c.seed) && reader->GetF64(&m.alpha) &&
        reader->GetF64(&m.gamma) && reader->GetRaw(bytes, sizeof(bytes))) ||
      bytes[0] > 1 || bytes[1] > 1) {
    return false;
  }
  m.use_dynamic = bytes[0] == 1;
  m.use_static = bytes[1] == 1;
  m.dynamic_direction = static_cast<core::SlideDirection>(bytes[2]);
  m.static_direction = static_cast<core::SlideDirection>(bytes[3]);
  return true;
}

/// Reads and parses the whole file: the envelope, the header and the
/// entries, with nothing after them. Every failure is a Corruption (a
/// missing file an IOError); no value is checked.
Status ReadCheckpoint(const std::string& path, io::Env* env, ModelSpec* spec,
                      io::NamedTensors* named) {
  if (env == nullptr) env = io::Env::Default();
  // Envelope verification reports truncation, a foreign magic (an older
  // format included) and bit flips before any parsing happens.
  Result<std::string> payload = io::ReadEnvelope(env, path, kMagicV3);
  if (!payload.ok()) return payload.status();
  io::BinaryReader reader(payload.value());
  if (!GetModelSpec(&reader, spec)) {
    return Status::Corruption("truncated or malformed model header in " +
                              path);
  }
  if (!io::GetNamedTensors(&reader, named)) {
    return Status::Corruption("truncated or bad parameter entries in " +
                              path);
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("checkpoint " + path + " has " +
                              std::to_string(reader.remaining()) +
                              " bytes after its last entry");
  }
  return Status::OK();
}

}  // namespace

std::vector<std::string> AllModelNames() {
  return {"BPR-MF",   "GRU4Rec", "Caser",       "SASRec",
          "BERT4Rec", "FMLP-Rec", "CL4SRec",    "ContrastVAE",
          "CoSeRec",  "DuoRec",  "SLIME4Rec"};
}

std::unique_ptr<SequentialRecommender> CreateModel(
    const std::string& name, const ModelConfig& config,
    const core::FilterMixerOptions& slime_options) {
  if (name == "BPR-MF") return std::make_unique<BprMf>(config);
  // Extra (not part of the paper's Table II): popularity sanity floor.
  if (name == "MostPop") return std::make_unique<MostPop>(config);
  if (name == "GRU4Rec") return std::make_unique<Gru4Rec>(config);
  if (name == "Caser") return std::make_unique<Caser>(config);
  if (name == "SASRec") return std::make_unique<SasRec>(config);
  if (name == "BERT4Rec") return std::make_unique<Bert4Rec>(config);
  if (name == "FMLP-Rec") return std::make_unique<FmlpRec>(config);
  if (name == "CL4SRec") return std::make_unique<Cl4SRec>(config);
  if (name == "ContrastVAE") return std::make_unique<ContrastVae>(config);
  if (name == "CoSeRec") return std::make_unique<CoSeRec>(config);
  if (name == "DuoRec") return std::make_unique<DuoRec>(config);
  if (name == "SLIME4Rec") {
    core::Slime4RecConfig sc;
    static_cast<ModelConfig&>(sc) = config;
    sc.mixer = slime_options;
    sc.use_contrastive = true;
    return std::make_unique<core::Slime4Rec>(sc);
  }
  SLIME_CHECK_MSG(false, "unknown model name: " << name);
  return nullptr;
}

ModelSpec SpecOf(const SequentialRecommender& model) {
  ModelSpec spec{model.name(), model.config(), {}};
  if (const auto* slime = dynamic_cast<const core::Slime4Rec*>(&model)) {
    spec.mixer = slime->slime_config().mixer;
  }
  return spec;
}

Status ValidateModelSpec(const ModelSpec& spec, std::string* field) {
  std::vector<std::string> names = AllModelNames();
  names.push_back("MostPop");
  if (std::find(names.begin(), names.end(), spec.name) == names.end()) {
    return BadField(field, "name", "'" + spec.name + "'",
                    "is not one of " + Join(names, ", "));
  }
  const ModelConfig& c = spec.config;
  for (const auto& [name, value, least] :
       {std::tuple{"num_items", c.num_items, 1},
        {"num_users", c.num_users, 1},
        {"max_len", c.max_len, 1},
        {"hidden_dim", c.hidden_dim, 1},
        {"num_layers", c.num_layers, 0},
        {"num_heads", c.num_heads, 1}}) {
    if (value < least) {
      return BadField(field, name, std::to_string(value),
                      least == 0 ? "is not >= 0" : "is not >= 1");
    }
  }
  // Caser's horizontal filters span up to 4 positions.
  if (spec.name == "Caser" && c.max_len < 4) {
    return BadField(field, "max_len", std::to_string(c.max_len),
                    "is below Caser's widest window, 4");
  }
  const std::vector<std::string> attention = {
      "SASRec", "BERT4Rec", "CL4SRec", "ContrastVAE", "CoSeRec", "DuoRec"};
  if (std::find(attention.begin(), attention.end(), spec.name) !=
          attention.end() &&
      c.hidden_dim % c.num_heads != 0) {
    return BadField(field, "hidden_dim", std::to_string(c.hidden_dim),
                    "does not divide by num_heads " +
                        std::to_string(c.num_heads));
  }
  const core::FilterMixerOptions& m = spec.mixer;
  if (!(m.alpha > 0.0 && m.alpha <= 1.0)) {
    return BadField(field, "alpha", Exact(m.alpha), "is not in (0, 1]");
  }
  if (!(m.gamma >= 0.0 && m.gamma <= 1.0)) {
    return BadField(field, "gamma", Exact(m.gamma), "is not in [0, 1]");
  }
  if (!m.use_dynamic && !m.use_static) {
    return BadField(field, "use_static", "0",
                    "with use_dynamic 0 leaves the mixer no filter");
  }
  for (const auto& [name, d] : {std::pair{"dynamic_direction",
                                          m.dynamic_direction},
                                {"static_direction", m.static_direction}}) {
    if (d != core::SlideDirection::kHighToLow &&
        d != core::SlideDirection::kLowToHigh) {
      return BadField(field, name, std::to_string(static_cast<int>(d)),
                      "is not a SlideDirection");
    }
  }
  return ValidateTrainingFields(c, field);
}

void PutModelSpec(io::BinaryWriter* writer, const ModelSpec& spec) {
  const ModelConfig& c = spec.config;
  const core::FilterMixerOptions& m = spec.mixer;
  writer->PutString(spec.name);
  for (const int64_t v : {c.num_items, c.num_users, c.max_len, c.hidden_dim,
                          c.num_layers, c.num_heads}) {
    writer->PutI64(v);
  }
  for (const float v : {c.dropout, c.emb_dropout, c.cl_weight,
                        c.cl_temperature}) {
    writer->PutF32(v);
  }
  writer->PutU64(c.seed);
  writer->PutF64(m.alpha);
  writer->PutF64(m.gamma);
  writer->PutU8(m.use_dynamic);
  writer->PutU8(m.use_static);
  writer->PutU8(static_cast<uint8_t>(m.dynamic_direction));
  writer->PutU8(static_cast<uint8_t>(m.static_direction));
}

Status SaveCheckpoint(const SequentialRecommender& model,
                      const std::string& path, io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  io::NamedTensors named;
  for (const auto& [name, variable] : model.NamedParameters()) {
    named.emplace_back(name, variable.value());
  }
  io::BinaryWriter writer;
  PutModelSpec(&writer, SpecOf(model));
  io::PutNamedTensors(&writer, named);
  return io::WriteEnvelope(env, path, kMagicV3, writer.buffer());
}

Result<ModelSpec> ReadCheckpointSpec(const std::string& path, io::Env* env) {
  ModelSpec spec;
  io::NamedTensors named;
  SLIME_RETURN_IF_ERROR(ReadCheckpoint(path, env, &spec, &named));
  const Status valid = ValidateModelSpec(spec);
  if (!valid.ok()) {
    return Status::InvalidArgument("checkpoint " + path + " header: " +
                                   valid.message());
  }
  return spec;
}

Status LoadCheckpoint(SequentialRecommender* model, const std::string& path,
                      io::Env* env) {
  ModelSpec header;
  io::NamedTensors named;
  SLIME_RETURN_IF_ERROR(ReadCheckpoint(path, env, &header, &named));
  const auto file = SharedFields(header);
  const auto own = SharedFields(SpecOf(*model));
  for (size_t i = 0; i < file.size(); ++i) {
    if (file[i].second != own[i].second) {
      return Status::InvalidArgument(
          "checkpoint " + path + " " + file[i].first + " " +
          file[i].second + " differs from the model's " + own[i].second);
    }
  }
  const Status valid = ValidateTrainingFields(header.config, nullptr);
  if (!valid.ok()) {
    return Status::InvalidArgument("checkpoint " + path + " header: " +
                                   valid.message());
  }
  return io::AssignParameters(model, named, "checkpoint");
}

}  // namespace models
}  // namespace slime
