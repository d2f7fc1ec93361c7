#include "io/env.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>

namespace slime {
namespace io {

namespace {

bool IsRegularFile(const std::string& path) {
  struct ::stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISREG(st.st_mode);
}

}  // namespace

Result<std::string> Env::ReadFile(const std::string& path) {
  if (!IsRegularFile(path)) {
    return Status::IOError("cannot open " + path +
                           " for reading (not a regular file)");
  }
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::IOError("cannot open " + path + " for reading");
  }
  std::string contents((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::IOError("read failed for " + path);
  }
  return contents;
}

Status Env::WriteFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open " + path + " for writing");
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    return Status::IOError("write failed for " + path);
  }
  return Status::OK();
}

Status Env::AppendFile(const std::string& path, std::string_view contents) {
  std::ofstream out(path, std::ios::binary | std::ios::app);
  if (!out) {
    return Status::IOError("cannot open " + path + " for appending");
  }
  out.write(contents.data(), static_cast<std::streamsize>(contents.size()));
  out.flush();
  if (!out) {
    return Status::IOError("append failed for " + path);
  }
  return Status::OK();
}

Status Env::SyncFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + " for sync");
  }
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) {
    return Status::IOError("fsync failed for " + path);
  }
  return Status::OK();
}

Status Env::RenameFile(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    return Status::IOError("rename " + from + " -> " + to + " failed");
  }
  return Status::OK();
}

Status Env::RemoveFile(const std::string& path) {
  std::remove(path.c_str());
  return Status::OK();
}

bool Env::FileExists(const std::string& path) {
  // Regular files only: a directory is not a loadable checkpoint, and
  // ResolveResumePath relies on this to map directories to their snapshot.
  return IsRegularFile(path);
}

Env* Env::Default() {
  static Env env;
  return &env;
}

void FaultInjectionEnv::ArmFault(Fault fault, int64_t nth) {
  fault_ = fault;
  fire_at_ = nth;
}

namespace {

FaultInjectionEnv::Fault const kReadFaults[] = {
    FaultInjectionEnv::Fault::kFailRead, FaultInjectionEnv::Fault::kShortRead,
    FaultInjectionEnv::Fault::kCorruptRead};

bool IsReadFault(FaultInjectionEnv::Fault f) {
  for (const auto r : kReadFaults) {
    if (f == r) return true;
  }
  return false;
}

}  // namespace

bool FaultInjectionEnv::ShouldFire(OpKind op) {
  bool matches = false;
  switch (op) {
    case OpKind::kRead:
      matches = IsReadFault(fault_);
      break;
    case OpKind::kRename:
      matches = fault_ == Fault::kFailRename;
      break;
    case OpKind::kSync:
      matches = fault_ == Fault::kFailSync;
      break;
    case OpKind::kWrite:
      matches = fault_ != Fault::kNone && fault_ != Fault::kFailRename &&
                fault_ != Fault::kFailSync && !IsReadFault(fault_);
      break;
  }
  if (!matches) return false;
  if (--fire_at_ > 0) return false;
  return true;
}

size_t FaultInjectionEnv::TornPrefix(size_t size) const {
  if (torn_tail_bytes_ < 0) return size / 2;
  return std::min(static_cast<size_t>(torn_tail_bytes_), size);
}

Result<std::string> FaultInjectionEnv::ReadFile(const std::string& path) {
  if (!ShouldFire(OpKind::kRead)) {
    return base_->ReadFile(path);
  }
  const Fault fault = fault_;
  Disarm();
  switch (fault) {
    case Fault::kFailRead:
      return Status::IOError("injected read failure for " + path);
    case Fault::kShortRead: {
      Result<std::string> full = base_->ReadFile(path);
      if (!full.ok()) return full;
      // Half the bytes arrive; the env itself reports success.
      std::string& bytes = full.value();
      bytes.resize(bytes.size() / 2);
      return full;
    }
    case Fault::kCorruptRead: {
      Result<std::string> full = base_->ReadFile(path);
      if (!full.ok()) return full;
      std::string& bytes = full.value();
      if (!bytes.empty()) bytes[bytes.size() / 2] ^= 0x40;
      return full;
    }
    default:
      return base_->ReadFile(path);
  }
}

Status FaultInjectionEnv::WriteFile(const std::string& path,
                                    std::string_view contents) {
  if (!ShouldFire(OpKind::kWrite)) {
    return base_->WriteFile(path, contents);
  }
  const Fault fault = fault_;
  Disarm();
  switch (fault) {
    case Fault::kFailWrite:
      return Status::IOError("injected write failure for " + path);
    case Fault::kShortWrite:
      // Half the bytes land; the env itself reports success.
      return base_->WriteFile(path, contents.substr(0, contents.size() / 2));
    case Fault::kTornTailWrite:
      return base_->WriteFile(path,
                              contents.substr(0, TornPrefix(contents.size())));
    case Fault::kCorruptAfterWrite: {
      std::string copy(contents);
      if (!copy.empty()) copy[copy.size() / 2] ^= 0x40;
      return base_->WriteFile(path, copy);
    }
    case Fault::kCrashDuringWrite: {
      // Leave a partially-written file behind, then "die".
      (void)base_->WriteFile(path,
                             contents.substr(0, TornPrefix(contents.size())));
      throw InjectedCrash{path};
    }
    default:
      return base_->WriteFile(path, contents);
  }
}

Status FaultInjectionEnv::AppendFile(const std::string& path,
                                     std::string_view contents) {
  if (!ShouldFire(OpKind::kWrite)) {
    return base_->AppendFile(path, contents);
  }
  const Fault fault = fault_;
  Disarm();
  switch (fault) {
    case Fault::kFailWrite:
      return Status::IOError("injected append failure for " + path);
    case Fault::kShortWrite:
      return base_->AppendFile(path, contents.substr(0, contents.size() / 2));
    case Fault::kTornTailWrite:
      // A prefix lands and the env reports success: the torn tail is only
      // discoverable by the next recovery scan.
      return base_->AppendFile(path,
                               contents.substr(0, TornPrefix(contents.size())));
    case Fault::kCorruptAfterWrite: {
      std::string copy(contents);
      if (!copy.empty()) copy[copy.size() / 2] ^= 0x40;
      return base_->AppendFile(path, copy);
    }
    case Fault::kCrashDuringWrite: {
      (void)base_->AppendFile(path,
                              contents.substr(0, TornPrefix(contents.size())));
      throw InjectedCrash{path};
    }
    default:
      return base_->AppendFile(path, contents);
  }
}

Status FaultInjectionEnv::SyncFile(const std::string& path) {
  ++syncs_seen_;
  if (!ShouldFire(OpKind::kSync)) {
    return base_->SyncFile(path);
  }
  Disarm();
  // The data may well be in the OS cache, but the barrier was never
  // established: callers must not acknowledge anything as durable.
  return Status::IOError("injected sync failure for " + path);
}

Status FaultInjectionEnv::RenameFile(const std::string& from,
                                     const std::string& to) {
  if (!ShouldFire(OpKind::kRename)) {
    return base_->RenameFile(from, to);
  }
  Disarm();
  return Status::IOError("injected rename failure for " + from);
}

Status FaultInjectionEnv::RemoveFile(const std::string& path) {
  return base_->RemoveFile(path);
}

bool FaultInjectionEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

}  // namespace io
}  // namespace slime
