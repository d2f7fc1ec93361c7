#include "io/checkpoint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/slime4rec.h"
#include "data/batcher.h"
#include "io/env.h"
#include "io/serializer.h"
#include "models/model_factory.h"
#include "nn/linear.h"

namespace slime {
namespace io {
namespace {

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

TEST(CheckpointTest, ShapeMismatchIsInvalidArgument) {
  const std::string path = TempPath("ckpt_shape.bin");
  Rng rng(1);
  nn::Linear small(4, 4, &rng);
  ASSERT_TRUE(SaveCheckpoint(small, path).ok());
  nn::Linear big(8, 8, &rng);
  const Status st = LoadCheckpoint(&big, path);
  EXPECT_EQ(st.code(), Status::Code::kInvalidArgument);
  EXPECT_NE(st.message().find("shape mismatch"), std::string::npos);
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
  BinaryWriter writer;
  writer.PutU64(entries.size());
  for (const auto& [name, value] : entries) {
    writer.PutString(name);
    writer.PutTensor(value);
  }
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

TEST(CheckpointTest, RepeatedNameIsRejectedAndModelUntouched) {
  // The first entry written twice in place of the last: the count matches
  // the model, but the last parameter is never mentioned.
  const std::string path = TempPath("ckpt_repeated.bin");
  core::Slime4Rec model(SmallConfig());
  auto entries = Entries(model);
  entries.back() = entries.front();
  ASSERT_TRUE(
      WriteEnvelope(Env::Default(), path, "SLM2", EntryPayload(entries))
          .ok());
  ExpectRejectedUntouched(path, Status::Code::kInvalidArgument);
}

TEST(CheckpointTest, ShapeMismatchInLastEntryLeavesEarlierEntriesUntouched) {
  const std::string path = TempPath("ckpt_last_shape.bin");
  core::Slime4Rec model(SmallConfig());
  auto entries = Entries(model);
  entries.back().second = Tensor::Zeros({entries.back().second.numel() + 1});
  ASSERT_TRUE(
      WriteEnvelope(Env::Default(), path, "SLM2", EntryPayload(entries))
          .ok());
  ExpectRejectedUntouched(path, Status::Code::kInvalidArgument);
}

TEST(CheckpointTest, BytesAfterLastEntryAreRejectedAndModelUntouched) {
  // A CRC-valid envelope whose payload runs on past the last entry: the
  // entries themselves would load, the file as a whole must not.
  const std::string path = TempPath("ckpt_after_last.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(WriteEnvelope(Env::Default(), path, "SLM2",
                            EntryPayload(Entries(model)) + "8 bytes!")
                  .ok());
  ExpectRejectedUntouched(path, Status::Code::kCorruption);
}

TEST(CheckpointTest, NewFilesCarryV2MagicAndNoTempResidue) {
  const std::string path = TempPath("ckpt_v2magic.bin");
  core::Slime4Rec model(SmallConfig());
  ASSERT_TRUE(SaveCheckpoint(model, path).ok());
  const std::string bytes = ReadAll(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 4), "SLM2");
  // The staging file must be gone after a successful atomic save.
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  std::remove(path.c_str());
}

TEST(CheckpointTest, AllElevenModelsRoundTrip) {
  // Serialisation must cover every model's parameter structure.
  for (const auto& name : models::AllModelNames()) {
    models::ModelConfig c;
    c.num_items = 12;
    c.num_users = 6;
    c.max_len = 8;
    c.hidden_dim = 8;
    c.num_layers = 1;
    c.num_heads = 2;
    c.seed = 17;
    auto model = models::CreateModel(name, c);
    const std::string path = TempPath("ckpt_zoo.bin");
    ASSERT_TRUE(SaveCheckpoint(*model, path).ok()) << name;
    auto model2 = models::CreateModel(name, c);
    ASSERT_TRUE(LoadCheckpoint(model2.get(), path).ok()) << name;
    const auto p1 = model->NamedParameters();
    const auto p2 = model2->NamedParameters();
    ASSERT_EQ(p1.size(), p2.size()) << name;
    for (size_t i = 0; i < p1.size(); ++i) {
      for (int64_t j = 0; j < p1[i].second.numel(); ++j) {
        ASSERT_FLOAT_EQ(p1[i].second.value()[j], p2[i].second.value()[j])
            << name << " " << p1[i].first;
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace io
}  // namespace slime
