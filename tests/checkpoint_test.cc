#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "core/slime4rec.h"
#include "data/batcher.h"
#include "io/checkpoint.h"
#include "io/env.h"
#include "io/serializer.h"
#include "models/model_factory.h"

namespace slime {
namespace models {
namespace {

using io::Env;
using io::WriteEnvelope;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

core::Slime4RecConfig SmallConfig() {
  core::Slime4RecConfig c;
  c.num_items = 15;
  c.num_users = 5;
  c.max_len = 8;
  c.hidden_dim = 8;
  c.num_layers = 2;
  c.mixer.alpha = 0.5;
  c.seed = 3;
  return c;
}

data::Batch OneBatch() {
  data::Batch b;
  b.size = 2;
  b.max_len = 8;
  b.user_ids = {0, 1};
  b.targets = {3, 7};
  b.raw_prefixes = {{1, 2}, {4, 5, 6}};
  for (const auto& raw : b.raw_prefixes) {
    const auto padded = data::PadTruncate(raw, 8);
    b.input_ids.insert(b.input_ids.end(), padded.begin(), padded.end());
  }
  return b;
}

TEST(CheckpointTest, RoundTripRestoresExactScores) {
  const std::string path = TempPath("ckpt_roundtrip.bin");
  core::Slime4RecConfig config = SmallConfig();
  Tensor scores_before;
  {
    core::Slime4Rec model(config);
    model.SetTraining(false);
    scores_before = model.ScoreAll(OneBatch());
    ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  }
  {
    config.seed = 999;  // different init, must be fully overwritten
    core::Slime4Rec model(config);
    ASSERT_TRUE(LoadCheckpoint(&model, path).ok());
    model.SetTraining(false);
    const Tensor scores_after = model.ScoreAll(OneBatch());
    ASSERT_TRUE(scores_before.SameShape(scores_after));
    for (int64_t i = 0; i < scores_before.numel(); ++i) {
      EXPECT_FLOAT_EQ(scores_before[i], scores_after[i]);
    }
  }
  std::remove(path.c_str());
}

TEST(CheckpointTest, MissingFileIsIOError) {
  core::Slime4Rec model(SmallConfig());
  const Status st = LoadCheckpoint(&model, "/nonexistent/x.bin");
  EXPECT_EQ(st.code(), Status::Code::kIOError);
}

TEST(CheckpointTest, BadMagicIsCorruption) {
  const std::string path = TempPath("ckpt_badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "NOPE we are not a checkpoint";
  }
  core::Slime4Rec model(SmallConfig());
  const Status st = LoadCheckpoint(&model, path);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointTest, TruncatedFileIsCorruption) {
  const std::string path = TempPath("ckpt_truncated.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  // Chop the file in half.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  core::Slime4Rec fresh(SmallConfig());
  const Status st = LoadCheckpoint(&fresh, path);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

TEST(CheckpointTest, ArchitectureMismatchIsInvalidArgument) {
  const std::string path = TempPath("ckpt_mismatch.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  // Different layer count -> different parameter set.
  core::Slime4RecConfig other = SmallConfig();
  other.num_layers = 4;
  other.mixer.alpha = 0.25;
  core::Slime4Rec wrong(other);
  const Status st = LoadCheckpoint(&wrong, path);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  std::remove(path.c_str());
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(CheckpointTest, FlippedPayloadByteIsCorruption) {
  // A single bit flip anywhere in the file must be caught by the CRC
  // footer, not silently loaded as slightly-wrong weights.
  const std::string path = TempPath("ckpt_bitflip.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  std::string bytes = ReadAll(path);
  bytes[bytes.size() / 2] ^= 0x01;
  WriteAll(path, bytes);
  core::Slime4Rec fresh(SmallConfig());
  const Status st = LoadCheckpoint(&fresh, path);
  EXPECT_EQ(st.code(), Status::Code::kCorruption);
  EXPECT_NE(st.message().find("CRC"), std::string::npos) << st.message();
  std::remove(path.c_str());
}

TEST(CheckpointTest, TrailingGarbageIsCorruption) {
  const std::string path = TempPath("ckpt_trailing.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  WriteAll(path, ReadAll(path) + "junk appended after the footer");
  core::Slime4Rec fresh(SmallConfig());
  EXPECT_EQ(LoadCheckpoint(&fresh, path).code(), Status::Code::kCorruption);
  std::remove(path.c_str());
}

/// The entry layout SaveCheckpoint writes, for hand-built files.
std::string EntryPayload(
    const std::vector<std::pair<std::string, Tensor>>& entries) {
  io::BinaryWriter writer;
  writer.PutU64(entries.size());
  for (const auto& [name, value] : entries) {
    writer.PutString(name);
    writer.PutTensor(value);
  }
  return writer.buffer();
}

/// The model header SaveCheckpoint writes for `spec`.
std::string HeaderBytes(const ModelSpec& spec) {
  io::BinaryWriter writer;
  PutModelSpec(&writer, spec);
  return writer.buffer();
}

std::vector<std::pair<std::string, Tensor>> Entries(const nn::Module& m) {
  std::vector<std::pair<std::string, Tensor>> entries;
  for (const auto& [name, variable] : m.NamedParameters()) {
    entries.emplace_back(name, variable.value());
  }
  return entries;
}

/// Deep copies of every parameter value, to compare bytes after a load.
std::vector<Tensor> Snapshot(const nn::Module& m) {
  std::vector<Tensor> values;
  for (const auto& variable : m.Parameters()) {
    values.push_back(variable.value().Clone());
  }
  return values;
}

void ExpectUnchanged(const nn::Module& m, const std::vector<Tensor>& before) {
  const auto params = m.NamedParameters();
  ASSERT_EQ(params.size(), before.size());
  for (size_t i = 0; i < params.size(); ++i) {
    const Tensor& now = params[i].second.value();
    ASSERT_EQ(now.numel(), before[i].numel()) << params[i].first;
    EXPECT_EQ(std::memcmp(now.data(), before[i].data(),
                          static_cast<size_t>(now.numel()) * sizeof(float)),
              0)
        << params[i].first;
  }
}

/// Loads a CRC-valid file that fails validation into a model whose
/// weights differ from the file's; the load must fail with `code` and
/// leave every parameter byte-identical.
void ExpectRejectedUntouched(const std::string& path, Status::Code code) {
  core::Slime4RecConfig config = SmallConfig();
  config.seed = 1234;
  core::Slime4Rec fresh(config);
  const std::vector<Tensor> before = Snapshot(fresh);
  const Status st = LoadCheckpoint(&fresh, path);
  EXPECT_EQ(st.code(), code) << st.ToString();
  ExpectUnchanged(fresh, before);
  std::remove(path.c_str());
}

TEST(CheckpointTest, Slm1FileIsRejectedAsCorruption) {
  // The pre-CRC format: magic "SLM1", the same entry layout, no footer.
  const std::string path = TempPath("ckpt_legacy.bin");
  core::Slime4Rec model(SmallConfig());
  WriteAll(path, "SLM1" + EntryPayload(Entries(model)));
  ExpectRejectedUntouched(path, Status::Code::kCorruption);
}

TEST(CheckpointTest, Slm2FileIsCorruptionNamingItsFormat) {
  // The parameters-only format: magic "SLM2", the entries, a CRC footer.
  // Nothing in it says which model it holds, so it is not read.
  const std::string path = TempPath("ckpt_slm2.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(WriteEnvelope(Env::Default(), path, "SLM2",
                            EntryPayload(Entries(model)))
                  .ok());
  core::Slime4Rec fresh(SmallConfig());
  const Status st = LoadCheckpoint(&fresh, path);
  EXPECT_EQ(st.code(), Status::Code::kCorruption) << st.ToString();
  EXPECT_NE(st.message().find("'SLM2'"), std::string::npos) << st.message();
  EXPECT_EQ(ReadCheckpointSpec(path).status().code(),
            Status::Code::kCorruption);
  ExpectRejectedUntouched(path, Status::Code::kCorruption);
}

TEST(CheckpointTest, RepeatedNameIsRejectedAndModelUntouched) {
  // The first entry written twice in place of the last: the count matches
  // the model, but the last parameter is never mentioned.
  const std::string path = TempPath("ckpt_repeated.bin");
  core::Slime4Rec model(SmallConfig());
  auto entries = Entries(model);
  entries.back() = entries.front();
  ASSERT_TRUE(WriteEnvelope(Env::Default(), path, "SLM3",
                            HeaderBytes(SpecOf(model)) + EntryPayload(entries))
                  .ok());
  ExpectRejectedUntouched(path, Status::Code::kInvalidArgument);
}

TEST(CheckpointTest, ShapeMismatchInLastEntryLeavesEarlierEntriesUntouched) {
  const std::string path = TempPath("ckpt_last_shape.bin");
  core::Slime4Rec model(SmallConfig());
  auto entries = Entries(model);
  entries.back().second = Tensor::Zeros({entries.back().second.numel() + 1});
  ASSERT_TRUE(WriteEnvelope(Env::Default(), path, "SLM3",
                            HeaderBytes(SpecOf(model)) + EntryPayload(entries))
                  .ok());
  core::Slime4Rec fresh(SmallConfig());
  const Status st = LoadCheckpoint(&fresh, path);
  EXPECT_NE(st.message().find("shape mismatch for '" + entries.back().first),
            std::string::npos)
      << st.message();
  ExpectRejectedUntouched(path, Status::Code::kInvalidArgument);
}

TEST(CheckpointTest, BytesAfterLastEntryAreRejectedAndModelUntouched) {
  // A CRC-valid envelope whose payload runs on past the last entry: the
  // entries themselves would load, the file as a whole must not.
  const std::string path = TempPath("ckpt_after_last.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(WriteEnvelope(Env::Default(), path, "SLM3",
                            HeaderBytes(SpecOf(model)) +
                                EntryPayload(Entries(model)) + "8 bytes!")
                  .ok());
  ExpectRejectedUntouched(path, Status::Code::kCorruption);
}

TEST(CheckpointTest, NewFilesCarryV3MagicHeaderAndNoTempResidue) {
  const std::string path = TempPath("ckpt_v3magic.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  const std::string bytes = ReadAll(path);
  const std::string header = HeaderBytes(SpecOf(model));
  const std::string entries = EntryPayload(Entries(model));
  ASSERT_EQ(bytes.size(), 4 + header.size() + entries.size() + 4);
  EXPECT_EQ(bytes.substr(0, 4), "SLM3");
  EXPECT_EQ(bytes.substr(4, header.size()), header);
  EXPECT_EQ(bytes.substr(4 + header.size(), entries.size()), entries);
  // The staging file must be gone after a successful atomic save.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(CheckpointTest, AllElevenModelsRoundTrip) {
  // Serialisation must cover every model's parameter structure, and the
  // header must rebuild the model it came from.
  for (const auto& name : AllModelNames()) {
    ModelConfig c;
    c.num_items = 12;
    c.num_users = 6;
    c.max_len = 8;
    c.hidden_dim = 8;
    c.num_layers = 1;
    c.num_heads = 2;
    c.seed = 17;
    auto model = CreateModel(name, c);
    const std::string path = TempPath("ckpt_zoo.bin");
    ASSERT_TRUE(SaveCheckpoint(*model, path).ok()) << name;
    const Result<ModelSpec> spec = ReadCheckpointSpec(path);
    ASSERT_TRUE(spec.ok()) << name << ": " << spec.status().ToString();
    EXPECT_EQ(HeaderBytes(spec.value()), HeaderBytes(SpecOf(*model))) << name;
    ModelSpec other = spec.value();
    other.config.seed = 18;  // different init, must be fully overwritten
    auto model2 = CreateModel(other.name, other.config, other.mixer);
    ASSERT_TRUE(LoadCheckpoint(model2.get(), path).ok()) << name;
    const auto p1 = model->NamedParameters();
    const auto p2 = model2->NamedParameters();
    ASSERT_EQ(p1.size(), p2.size()) << name;
    for (size_t i = 0; i < p1.size(); ++i) {
      const Tensor& t1 = p1[i].second.value();
      const Tensor& t2 = p2[i].second.value();
      ASSERT_EQ(t1.shape(), t2.shape()) << name << " " << p1[i].first;
      EXPECT_EQ(std::memcmp(t1.data(), t2.data(),
                            static_cast<size_t>(t1.numel()) * sizeof(float)),
                0)
          << name << " " << p1[i].first;
    }
    std::remove(path.c_str());
  }
}

/// One bad header value: the field it sets, the model the file claims to
/// hold and the change to that model's spec.
struct BadHeader {
  const char* field;
  std::string model;
  std::function<void(ModelSpec*)> mutate;
};

std::unique_ptr<SequentialRecommender> Build(const ModelSpec& spec) {
  return CreateModel(spec.name, spec.config, spec.mixer);
}

TEST(CheckpointHeaderTest, BadValuesAreTypedNameTheFieldAndTouchNothing) {
  const std::vector<BadHeader> cases = {
      {"name", "SLIME4Rec", [](ModelSpec* s) { s->name = "Nope"; }},
      {"alpha", "SLIME4Rec", [](ModelSpec* s) { s->mixer.alpha = 1.5; }},
      {"gamma", "SLIME4Rec", [](ModelSpec* s) { s->mixer.gamma = -1.0; }},
      {"dynamic_direction", "SLIME4Rec",
       [](ModelSpec* s) {
         s->mixer.dynamic_direction = static_cast<core::SlideDirection>(2);
       }},
      {"dropout", "SLIME4Rec",
       [](ModelSpec* s) {
         s->config.dropout = std::numeric_limits<float>::quiet_NaN();
       }},
      {"max_len", "SLIME4Rec", [](ModelSpec* s) { s->config.max_len = 0; }},
      {"num_heads", "SASRec", [](ModelSpec* s) { s->config.num_heads = 3; }},
  };
  for (const BadHeader& bad : cases) {
    SCOPED_TRACE(bad.field);
    ModelSpec good{bad.model, SmallConfig(), SmallConfig().mixer};
    if (bad.model != "SLIME4Rec") good.mixer = {};
    ModelSpec header = good;
    bad.mutate(&header);
    const std::string path = TempPath("ckpt_bad_header.bin");
    ASSERT_TRUE(WriteEnvelope(Env::Default(), path, "SLM3",
                              HeaderBytes(header) +
                                  EntryPayload(Entries(*Build(good))))
                    .ok());
    // Building from the file: the validator names the field.
    const Status spec = ReadCheckpointSpec(path).status();
    EXPECT_EQ(spec.code(), Status::Code::kInvalidArgument) << spec.ToString();
    EXPECT_NE(spec.message().find(bad.field), std::string::npos)
        << spec.message();
    // Loading into a model: typed, names the field, copies nothing.
    ModelSpec target = good;
    target.config.seed = 1234;
    auto model = Build(target);
    const std::vector<Tensor> before = Snapshot(*model);
    const Status st = LoadCheckpoint(model.get(), path);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(bad.field), std::string::npos)
        << st.message();
    ExpectUnchanged(*model, before);
    std::remove(path.c_str());
  }
}

TEST(CheckpointHeaderTest, ShapeAndMixerFieldsMustMatchTrainingFieldsNeedNot) {
  const std::string path = TempPath("ckpt_header_match.bin");
  core::Slime4Rec saved(SmallConfig());
  ASSERT_TRUE(SaveCheckpoint(saved, path).ok());
  const std::vector<std::pair<const char*, std::function<void(ModelSpec*)>>>
      shared = {
          {"name", [](ModelSpec* s) { s->name = "FMLP-Rec"; }},
          {"num_items", [](ModelSpec* s) { s->config.num_items = 16; }},
          {"num_users", [](ModelSpec* s) { s->config.num_users = 6; }},
          {"max_len", [](ModelSpec* s) { s->config.max_len = 9; }},
          {"hidden_dim", [](ModelSpec* s) { s->config.hidden_dim = 4; }},
          {"num_layers", [](ModelSpec* s) { s->config.num_layers = 3; }},
          {"num_heads", [](ModelSpec* s) { s->config.num_heads = 4; }},
          {"alpha", [](ModelSpec* s) { s->mixer.alpha = 0.9; }},
          {"gamma", [](ModelSpec* s) { s->mixer.gamma = 0.0; }},
          {"use_dynamic", [](ModelSpec* s) { s->mixer.use_dynamic = false; }},
          {"use_static", [](ModelSpec* s) { s->mixer.use_static = false; }},
          {"dynamic_direction",
           [](ModelSpec* s) {
             s->mixer.dynamic_direction = core::SlideDirection::kLowToHigh;
           }},
          {"static_direction",
           [](ModelSpec* s) {
             s->mixer.static_direction = core::SlideDirection::kLowToHigh;
           }},
      };
  for (const auto& [field, mutate] : shared) {
    SCOPED_TRACE(field);
    ModelSpec spec = SpecOf(saved);
    mutate(&spec);
    auto model = Build(spec);
    const std::vector<Tensor> before = Snapshot(*model);
    const Status st = LoadCheckpoint(model.get(), path);
    EXPECT_EQ(st.code(), Status::Code::kInvalidArgument) << st.ToString();
    EXPECT_NE(st.message().find(std::string(" ") + field + " "),
              std::string::npos)
        << st.message();
    ExpectUnchanged(*model, before);
  }
  // Eval-mode scoring reads none of the training-only fields: a retrain
  // under another seed or dropout loads.
  const std::vector<std::function<void(ModelSpec*)>> training_only = {
      [](ModelSpec* s) { s->config.dropout = 0.3f; },
      [](ModelSpec* s) { s->config.emb_dropout = 0.0f; },
      [](ModelSpec* s) { s->config.cl_weight = 0.0f; },
      [](ModelSpec* s) { s->config.cl_temperature = 1.0f; },
      [](ModelSpec* s) { s->config.seed = 99; },
  };
  for (const auto& mutate : training_only) {
    ModelSpec spec = SpecOf(saved);
    mutate(&spec);
    auto model = Build(spec);
    ASSERT_TRUE(LoadCheckpoint(model.get(), path).ok());
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace models
}  // namespace slime
