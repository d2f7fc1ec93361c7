#ifndef SLIME4REC_IO_CHECKPOINT_H_
#define SLIME4REC_IO_CHECKPOINT_H_

#include <string>

#include "common/status.h"
#include "io/env.h"
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
/// intact. On load, truncation, a foreign magic and any flipped bit all
/// surface as Status::Corruption rather than misread parameters; so does a
/// file in the pre-CRC "SLM1" format.
///
/// Names are the Module::NamedParameters() qualified names, so a
/// checkpoint written by a model loads only into an identically-structured
/// model — mismatches are reported, not silently ignored.

/// Writes every parameter of `module` to `path` (atomic).
/// `env` defaults to Env::Default(); tests pass a FaultInjectionEnv.
Status SaveCheckpoint(const nn::Module& module, const std::string& path,
                      Env* env = nullptr);

/// Loads a checkpoint into `module`. Every parameter in the module must be
/// present in the file exactly once with an identical shape, and vice versa;
/// any mismatch fails with InvalidArgument/Corruption and leaves every
/// parameter unmodified.
Status LoadCheckpoint(nn::Module* module, const std::string& path,
                      Env* env = nullptr);

}  // namespace io
}  // namespace slime

#endif  // SLIME4REC_IO_CHECKPOINT_H_
