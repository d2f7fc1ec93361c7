#ifndef SLIME4REC_IO_SERIALIZER_H_
#define SLIME4REC_IO_SERIALIZER_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"
#include "io/env.h"
#include "tensor/tensor.h"

namespace slime {
namespace io {

/// Little-endian binary serialisation buffer. All multi-byte values are
/// written via memcpy of the in-memory representation; the library only
/// targets little-endian hosts (checked nowhere else either), and the
/// checkpoint CRC would reject a cross-endian file rather than misread it.
class BinaryWriter {
 public:
  void PutU8(uint8_t v) { PutPod(v); }
  void PutU32(uint32_t v) { PutPod(v); }
  void PutU64(uint64_t v) { PutPod(v); }
  void PutI64(int64_t v) { PutPod(v); }
  void PutF32(float v) { PutPod(v); }
  void PutF64(double v) { PutPod(v); }

  /// u32 length prefix + raw bytes.
  void PutString(std::string_view s);

  /// u32 rank, i64 dims, f32 payload.
  void PutTensor(const Tensor& t);

  void PutRaw(const void* data, size_t n);

  const std::string& buffer() const { return buffer_; }

 private:
  template <typename T>
  void PutPod(T v) {
    PutRaw(&v, sizeof(T));
  }

  std::string buffer_;
};

/// Bounds-checked reader over a serialised buffer. Every Get returns false
/// once the buffer is exhausted or a limit is violated; callers translate
/// that into Status::Corruption with context.
class BinaryReader {
 public:
  explicit BinaryReader(std::string_view data) : data_(data) {}

  bool GetU8(uint8_t* v) { return GetPod(v); }
  bool GetU32(uint32_t* v) { return GetPod(v); }
  bool GetU64(uint64_t* v) { return GetPod(v); }
  bool GetI64(int64_t* v) { return GetPod(v); }
  bool GetF32(float* v) { return GetPod(v); }
  bool GetF64(double* v) { return GetPod(v); }

  /// Reads a u32-length-prefixed string; fails if the length exceeds
  /// `max_len` (guards against interpreting garbage as a huge allocation).
  bool GetString(std::string* s, uint32_t max_len = 1u << 20);

  /// Reads a tensor written by PutTensor (rank limit 16, non-negative dims).
  bool GetTensor(Tensor* t);

  bool GetRaw(void* dst, size_t n);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  template <typename T>
  bool GetPod(T* v) {
    return GetRaw(v, sizeof(T));
  }

  std::string_view data_;
  size_t pos_ = 0;
};

/// Crash-safe on-disk envelope shared by model checkpoints and train-state
/// snapshots:
///
///   magic   4 bytes (caller-chosen, versioned)
///   payload arbitrary bytes
///   crc32   uint32 over magic + payload
///
/// WriteEnvelope stages the file at `path + ".tmp"`, reads it back and
/// verifies size and bytes (catching short writes and post-write corruption
/// before they can clobber the previous good file), then atomically renames
/// over `path` — the shared io::AtomicWriteFile protocol. On any failure the
/// previous `path` contents are untouched. `sync_after` additionally fsyncs
/// the renamed file: state-store snapshots need the envelope on stable
/// storage before the WAL behind it may be truncated.
Status WriteEnvelope(Env* env, const std::string& path,
                     std::string_view magic, std::string_view payload,
                     bool sync_after = false);

/// Reads and verifies an envelope, returning the payload. Truncation, a
/// magic mismatch and CRC failure all surface as Status::Corruption; a
/// missing file is an IOError.
Result<std::string> ReadEnvelope(Env* env, const std::string& path,
                                 std::string_view magic);

}  // namespace io
}  // namespace slime

#endif  // SLIME4REC_IO_SERIALIZER_H_
