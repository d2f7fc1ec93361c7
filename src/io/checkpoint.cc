#include "io/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <set>
#include <string_view>
#include <utility>
#include <vector>

#include "io/serializer.h"
#include "tensor/tensor.h"

namespace slime {
namespace io {
namespace {

constexpr std::string_view kMagicV2 = "SLM2";

/// Parses the entry layout (count + named tensors) into `module`. Every
/// entry is validated against the live model first (known and unrepeated
/// name, equal shape, complete data); only then are the parameters written,
/// so a rejected file leaves the model untouched.
Status ParseBody(nn::Module* module, std::string_view body,
                 const std::string& path) {
  BinaryReader reader(body);
  uint64_t count = 0;
  if (!reader.GetU64(&count)) {
    return Status::Corruption("truncated checkpoint header in " + path);
  }
  auto params = module->NamedParameters();
  std::map<std::string, autograd::Variable*> by_name;
  for (auto& [name, variable] : params) {
    by_name[name] = &variable;
  }
  if (count != by_name.size()) {
    return Status::InvalidArgument(
        "checkpoint has " + std::to_string(count) + " parameters, model has " +
        std::to_string(by_name.size()));
  }
  // Each validated entry's parameter and its bytes within `body`.
  std::vector<std::pair<Tensor*, std::string_view>> staged;
  staged.reserve(count);
  std::set<std::string> seen;
  for (uint64_t i = 0; i < count; ++i) {
    std::string name;
    if (!reader.GetString(&name, /*max_len=*/4096)) {
      return Status::Corruption("bad parameter name length in " + path);
    }
    uint32_t rank = 0;
    if (!reader.GetU32(&rank) || rank > 16) {
      return Status::Corruption("bad parameter header for '" + name + "'");
    }
    std::vector<int64_t> shape(rank);
    for (auto& d : shape) {
      if (!reader.GetI64(&d) || d < 0) {
        return Status::Corruption("bad shape for '" + name + "'");
      }
    }
    const auto it = by_name.find(name);
    if (it == by_name.end()) {
      return Status::InvalidArgument("model has no parameter '" + name + "'");
    }
    if (!seen.insert(name).second) {
      return Status::InvalidArgument("checkpoint lists parameter '" + name +
                                     "' twice");
    }
    Tensor& value = it->second->mutable_value();
    if (value.shape() != shape) {
      return Status::InvalidArgument(
          "shape mismatch for '" + name + "': checkpoint " +
          ShapeToString(shape) + " vs model " + value.ShapeString());
    }
    std::string_view data;
    if (!reader.GetView(static_cast<size_t>(value.numel()) * sizeof(float),
                        &data)) {
      return Status::Corruption("truncated data for '" + name + "'");
    }
    staged.emplace_back(&value, data);
  }
  for (const auto& [value, data] : staged) {
    std::memcpy(value->data(), data.data(), data.size());
  }
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const nn::Module& module, const std::string& path,
                      Env* env) {
  if (env == nullptr) env = Env::Default();
  const auto params = module.NamedParameters();
  BinaryWriter writer;
  writer.PutU64(params.size());
  for (const auto& [name, variable] : params) {
    writer.PutString(name);
    writer.PutTensor(variable.value());
  }
  return WriteEnvelope(env, path, kMagicV2, writer.buffer());
}

Status LoadCheckpoint(nn::Module* module, const std::string& path, Env* env) {
  if (env == nullptr) env = Env::Default();
  // Envelope verification reports truncation, a foreign magic and bit flips
  // as Corruption before any parsing happens.
  Result<std::string> payload = ReadEnvelope(env, path, kMagicV2);
  if (!payload.ok()) return payload.status();
  return ParseBody(module, payload.value(), path);
}

}  // namespace io
}  // namespace slime
