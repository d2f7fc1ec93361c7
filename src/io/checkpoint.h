#ifndef SLIME4REC_IO_CHECKPOINT_H_
#define SLIME4REC_IO_CHECKPOINT_H_

#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "io/env.h"
#include "io/serializer.h"
#include "nn/module.h"

namespace slime {
namespace io {

/// Binary checkpoint format for model parameters.
///
/// Layout (little-endian), written by SaveCheckpoint:
///   magic   "SLM2" (4 bytes)
///   count   uint64        number of parameter entries
///   entries repeated:
///     name_len uint32, name bytes
///     rank     uint32, dims int64[rank]
///     data     float32[numel]
///   crc32   uint32        CRC-32 (IEEE) over magic + all preceding bytes
///
/// Files are written crash-safely: the bytes are staged at
/// `path + ".tmp"`, read back and CRC-verified (catching short writes and
/// post-write bit flips), and only then atomically renamed over `path`, so
/// a failed or interrupted save always leaves the previous checkpoint
/// intact. On load, truncation, a foreign magic, bytes after the last
/// entry and any flipped bit all surface as Status::Corruption rather than
/// misread parameters; so does a file in the pre-CRC "SLM1" format.
///
/// Names are the Module::NamedParameters() qualified names, so a
/// checkpoint written by a model loads only into an identically-structured
/// model — mismatches are reported, not silently ignored.

/// Parameter values by qualified name, in Module::NamedParameters() order.
using NamedTensors = std::vector<std::pair<std::string, Tensor>>;

/// The entry layout above (count, then each name and tensor); train-state
/// snapshots store their parameters in it too. Get fails on bad input.
void PutNamedTensors(BinaryWriter* writer, const NamedTensors& named);
bool GetNamedTensors(BinaryReader* reader, NamedTensors* named);

/// Puts `named` into `module`. Every parameter must be listed exactly once
/// with an identical shape, and nothing else; all of it is checked before
/// the first copy, so a rejected list (InvalidArgument, naming `source`)
/// leaves every parameter unmodified.
Status AssignParameters(nn::Module* module, const NamedTensors& named,
                        const std::string& source);

/// Writes every parameter of `module` to `path` (atomic).
/// `env` defaults to Env::Default(); tests pass a FaultInjectionEnv.
Status SaveCheckpoint(const nn::Module& module, const std::string& path,
                      Env* env = nullptr);

/// Loads a checkpoint into `module` through AssignParameters; a damaged
/// file fails with Corruption and leaves every parameter unmodified.
Status LoadCheckpoint(nn::Module* module, const std::string& path,
                      Env* env = nullptr);

}  // namespace io
}  // namespace slime

#endif  // SLIME4REC_IO_CHECKPOINT_H_
