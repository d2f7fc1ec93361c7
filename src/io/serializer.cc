#include "io/serializer.h"

#include <cstring>
#include <vector>

#include "common/crc32.h"
#include "io/atomic_write.h"

namespace slime {
namespace io {

void BinaryWriter::PutRaw(const void* data, size_t n) {
  buffer_.append(static_cast<const char*>(data), n);
}

void BinaryWriter::PutString(std::string_view s) {
  PutU32(static_cast<uint32_t>(s.size()));
  PutRaw(s.data(), s.size());
}

void BinaryWriter::PutTensor(const Tensor& t) {
  PutU32(static_cast<uint32_t>(t.dim()));
  for (int64_t d : t.shape()) PutI64(d);
  PutRaw(t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
}

bool BinaryReader::GetRaw(void* dst, size_t n) {
  if (n > data_.size() - pos_) return false;
  std::memcpy(dst, data_.data() + pos_, n);
  pos_ += n;
  return true;
}

bool BinaryReader::GetString(std::string* s, uint32_t max_len) {
  uint32_t len = 0;
  if (!GetU32(&len) || len > max_len || len > remaining()) return false;
  s->assign(data_.data() + pos_, len);
  pos_ += len;
  return true;
}

bool BinaryReader::GetTensor(Tensor* t) {
  uint32_t rank = 0;
  if (!GetU32(&rank) || rank > 16) return false;
  std::vector<int64_t> shape(rank);
  int64_t numel = 1;
  for (auto& d : shape) {
    // Dim caps keep `numel` far from overflow on corrupt input.
    if (!GetI64(&d) || d < 0 || d > (int64_t{1} << 32)) return false;
    numel *= d;
    if (numel > (int64_t{1} << 40)) return false;
  }
  if (static_cast<size_t>(numel) * sizeof(float) > remaining()) return false;
  Tensor out(std::move(shape));
  if (!GetRaw(out.data(), static_cast<size_t>(numel) * sizeof(float))) {
    return false;
  }
  *t = std::move(out);
  return true;
}

Status WriteEnvelope(Env* env, const std::string& path,
                     std::string_view magic, std::string_view payload,
                     bool sync_after) {
  SLIME_CHECK_EQ(magic.size(), 4u);
  std::string file;
  file.reserve(magic.size() + payload.size() + sizeof(uint32_t));
  file.append(magic);
  file.append(payload);
  const uint32_t crc = Crc32(file);
  file.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return AtomicWriteFile(env, path, file, sync_after);
}

Result<std::string> ReadEnvelope(Env* env, const std::string& path,
                                 std::string_view magic) {
  SLIME_CHECK_EQ(magic.size(), 4u);
  Result<std::string> file = env->ReadFile(path);
  if (!file.ok()) return file.status();
  const std::string& bytes = file.value();
  if (bytes.size() < magic.size() + sizeof(uint32_t)) {
    return Status::Corruption("truncated file " + path + " (" +
                              std::to_string(bytes.size()) + " bytes)");
  }
  if (std::string_view(bytes).substr(0, 4) != magic) {
    return Status::Corruption("bad magic in " + path + ": expected '" +
                              std::string(magic) + "', found '" +
                              bytes.substr(0, 4) + "'");
  }
  const size_t body = bytes.size() - sizeof(uint32_t);
  uint32_t stored = 0;
  std::memcpy(&stored, bytes.data() + body, sizeof(stored));
  const uint32_t actual = Crc32(bytes.data(), body);
  if (stored != actual) {
    return Status::Corruption(
        "CRC mismatch in " + path +
        " (file truncated or bytes flipped): stored " +
        std::to_string(stored) + ", computed " + std::to_string(actual));
  }
  return bytes.substr(magic.size(), body - magic.size());
}

}  // namespace io
}  // namespace slime
