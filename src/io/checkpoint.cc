#include "io/checkpoint.h"

#include <cstdint>
#include <cstring>
#include <map>
#include <string_view>

namespace slime {
namespace io {

void PutNamedTensors(BinaryWriter* writer, const NamedTensors& named) {
  writer->PutU64(named.size());
  for (const auto& [name, tensor] : named) {
    writer->PutString(name);
    writer->PutTensor(tensor);
  }
}

bool GetNamedTensors(BinaryReader* reader, NamedTensors* named) {
  uint64_t count = 0;
  if (!reader->GetU64(&count) || count > (uint64_t{1} << 20)) return false;
  named->resize(count);
  for (auto& [name, tensor] : *named) {
    if (!reader->GetString(&name, /*max_len=*/4096) ||
        !reader->GetTensor(&tensor)) {
      return false;
    }
  }
  return true;
}

Status AssignParameters(nn::Module* module, const NamedTensors& named,
                        const std::string& source) {
  auto params = module->NamedParameters();
  if (named.size() != params.size()) {
    return Status::InvalidArgument(
        source + " has " + std::to_string(named.size()) +
        " parameters, model has " + std::to_string(params.size()));
  }
  std::map<std::string_view, size_t> index;
  for (size_t i = 0; i < params.size(); ++i) index[params[i].first] = i;
  // The listed tensor for each model parameter; with the counts equal, a
  // list of known, unrepeated names fills every slot.
  std::vector<const Tensor*> listed(params.size(), nullptr);
  for (const auto& [name, tensor] : named) {
    const auto it = index.find(name);
    if (it == index.end()) {
      return Status::InvalidArgument("model has no parameter '" + name + "'");
    }
    if (listed[it->second] != nullptr) {
      return Status::InvalidArgument(source + " lists parameter '" + name +
                                     "' twice");
    }
    const Tensor& value = params[it->second].second.value();
    if (value.shape() != tensor.shape()) {
      return Status::InvalidArgument(
          "shape mismatch for '" + name + "': " + source + " " +
          tensor.ShapeString() + " vs model " + value.ShapeString());
    }
    listed[it->second] = &tensor;
  }
  for (size_t i = 0; i < params.size(); ++i) {
    Tensor& value = params[i].second.mutable_value();
    std::memcpy(value.data(), listed[i]->data(),
                static_cast<size_t>(value.numel()) * sizeof(float));
  }
  return Status::OK();
}

}  // namespace io
}  // namespace slime
