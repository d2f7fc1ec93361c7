#ifndef SLIME4REC_IO_CHECKPOINT_H_
#define SLIME4REC_IO_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/serializer.h"
#include "nn/module.h"

namespace slime {
namespace io {

/// The parameter entry list: model checkpoints ("SLM3",
/// models::SaveCheckpoint) and train-state snapshots ("SLT1",
/// train::SaveTrainState) store their parameters in it, inside the CRC
/// envelope of io/serializer.h.
///
/// Layout (little-endian):
///   count   uint64        number of parameter entries
///   entries repeated:
///     name_len uint32, name bytes
///     rank     uint32, dims int64[rank]
///     data     float32[numel]
///
/// Names are the Module::NamedParameters() qualified names, so an entry
/// list loads only into an identically-structured module: mismatches are
/// reported, not silently ignored.

/// Parameter values by qualified name, in Module::NamedParameters() order.
using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// The entry layout above. Get fails on bad input.
void PutNamedTensors(BinaryWriter* writer, const NamedTensors& named);
bool GetNamedTensors(BinaryReader* reader, NamedTensors* named);

/// Puts `named` into `module`. Every parameter must be listed exactly once
/// with an identical shape, and nothing else; all of it is checked before
/// the first copy, so a rejected list (InvalidArgument, naming `source`)
/// leaves every parameter unmodified.
Status AssignParameters(nn::Module* module, const NamedTensors& named,
                        const std::string& source);

}  // namespace io
}  // namespace slime

#endif  // SLIME4REC_IO_CHECKPOINT_H_
