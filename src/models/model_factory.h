#ifndef SLIME4REC_MODELS_MODEL_FACTORY_H_
#define SLIME4REC_MODELS_MODEL_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/slime4rec.h"
#include "io/env.h"
#include "io/serializer.h"
#include "models/recommender.h"

namespace slime {
namespace models {

/// Names of the eleven models of Table II, in the paper's column order.
std::vector<std::string> AllModelNames();

/// Instantiates a model by its Table II name ("BPR-MF", "GRU4Rec",
/// "Caser", "SASRec", "BERT4Rec", "FMLP-Rec", "CL4SRec", "ContrastVAE",
/// "CoSeRec", "DuoRec", "SLIME4Rec"). For SLIME4Rec, `slime_options`
/// configures the filter mixer; it is ignored for every other model.
std::unique_ptr<SequentialRecommender> CreateModel(
    const std::string& name, const ModelConfig& config,
    const core::FilterMixerOptions& slime_options = {});

/// CreateModel's arguments: the model a checkpoint's header names.
struct ModelSpec {
  std::string name;
  ModelConfig config;
  /// SLIME4Rec's filter mixer; the defaults for every other model, which
  /// is what CreateModel passes them.
  core::FilterMixerOptions mixer;
};

/// The spec `model` was built from: its name, its config and, for a
/// Slime4Rec, its mixer.
ModelSpec SpecOf(const SequentialRecommender& model);

/// Checks a spec from outside the program (train's flags, a checkpoint
/// header) for every value a model would abort on or turn into NaN: the
/// name is one CreateModel builds; every size is at least 1 (num_layers at
/// least 0, Caser's max_len at least 4); hidden_dim divides by num_heads
/// for the attention models; both dropouts are in [0, 1), cl_weight is
/// finite and >= 0, cl_temperature finite and > 0; alpha is in (0, 1],
/// gamma in [0, 1], at least one of DFS/SFS is on and both directions are
/// SlideDirection values. A bad value is InvalidArgument naming its
/// ModelSpec field, which is also stored in `*field`.
Status ValidateModelSpec(const ModelSpec& spec, std::string* field = nullptr);

/// The header codec: `spec`'s name, every ModelConfig field and every
/// mixer field, in declaration order (layout at SaveCheckpoint).
void PutModelSpec(io::BinaryWriter* writer, const ModelSpec& spec);

/// Model checkpoint, format "SLM3", in io::WriteEnvelope's CRC envelope.
///
/// Layout (little-endian):
///   magic    "SLM3" (4 bytes)
///   header   name            u32 length + bytes
///            num_items, num_users, max_len, hidden_dim, num_layers,
///            num_heads       i64 each
///            dropout, emb_dropout, cl_weight, cl_temperature   f32 each
///            seed            u64
///            alpha, gamma    f64 each
///            use_dynamic, use_static, dynamic_direction,
///            static_direction   u8 each
///   entries  io::PutNamedTensors: every parameter by qualified name
///   crc32    u32 over magic + header + entries
///
/// The header is SpecOf(model), so header and parameters always agree.
/// The save is atomic (io::WriteEnvelope). The older "SLM1" and "SLM2"
/// formats held parameters only; a load reports them as a Corruption
/// naming the magic it found.
Status SaveCheckpoint(const SequentialRecommender& model,
                      const std::string& path, io::Env* env = nullptr);

/// The header of the checkpoint at `path`, once the whole file has passed
/// the envelope, header and entry checks (Corruption) and
/// ValidateModelSpec (InvalidArgument): CreateModel builds it without
/// aborting. A missing file is an IOError.
Result<ModelSpec> ReadCheckpointSpec(const std::string& path,
                                     io::Env* env = nullptr);

/// Loads the checkpoint at `path` into `model`. Before any parameter is
/// written, the header's name, num_items, num_users, max_len, hidden_dim,
/// num_layers, num_heads and every mixer field must equal SpecOf(*model)'s,
/// and its training-only fields (dropouts, cl_weight, cl_temperature,
/// seed), which eval-mode scoring does not read and so are not compared,
/// must pass ValidateModelSpec's checks of them; a difference or a bad
/// value is InvalidArgument naming the field. Then io::AssignParameters.
/// A failed load leaves every parameter unmodified.
Status LoadCheckpoint(SequentialRecommender* model, const std::string& path,
                      io::Env* env = nullptr);

}  // namespace models
}  // namespace slime

#endif  // SLIME4REC_MODELS_MODEL_FACTORY_H_
