#ifndef SLIME4REC_IO_ENV_H_
#define SLIME4REC_IO_ENV_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/status.h"

namespace slime {
namespace io {

/// Filesystem seam for everything the checkpoint/snapshot/WAL layer touches.
/// Production code uses Env::Default() (plain POSIX files); tests substitute
/// a FaultInjectionEnv to deterministically exercise crash, short-write and
/// corruption paths without real hardware faults (the LevelDB/RocksDB
/// fault-injection pattern).
///
/// Most operations are whole-file: checkpoints are small enough that staging
/// a full buffer is cheaper than streaming, and whole-file writes make the
/// atomic temp-file + rename protocol trivial to reason about. The two
/// exceptions are AppendFile and SyncFile, added for the write-ahead log:
/// a WAL is append-only by definition, and its durability contract ("acked
/// events survive a kill") needs an explicit sync barrier that WriteFile's
/// buffered semantics deliberately do not provide.
class Env {
 public:
  virtual ~Env() = default;

  /// Reads the entire file into a string.
  virtual Result<std::string> ReadFile(const std::string& path);

  /// Creates/truncates `path` and writes `contents`. Durable on return as
  /// far as the OS buffer cache is concerned; no fsync (matching the rest
  /// of the library's single-node, experiment-oriented durability needs).
  virtual Status WriteFile(const std::string& path, std::string_view contents);

  /// Appends `contents` to the end of `path`, creating the file if it does
  /// not exist. Same buffered durability as WriteFile: pair with SyncFile
  /// for a real barrier.
  virtual Status AppendFile(const std::string& path,
                            std::string_view contents);

  /// Durability barrier: flushes `path`'s data to stable storage (fsync).
  /// Everything written or appended to `path` before this call survives a
  /// process kill once it returns OK.
  virtual Status SyncFile(const std::string& path);

  /// Atomically replaces `to` with `from` (POSIX rename semantics: either
  /// the old `to` or the complete new file exists, never a mix).
  virtual Status RenameFile(const std::string& from, const std::string& to);

  /// Deletes a file; missing files are not an error (idempotent cleanup).
  virtual Status RemoveFile(const std::string& path);

  virtual bool FileExists(const std::string& path);

  /// The process-wide default environment (plain filesystem).
  static Env* Default();
};

/// Thrown by FaultInjectionEnv for Fault::kCrashDuringWrite: simulates the
/// process being killed mid-write (or mid-append). A partially-written file
/// is left on disk, exactly as a real kill would.
struct InjectedCrash {
  std::string path;
};

/// Wraps a base Env and injects one fault at the Nth matching operation of
/// the fault's kind (write faults count WriteFile + AppendFile calls, rename
/// faults count RenameFile calls, read faults count ReadFile calls, sync
/// faults count SyncFile calls). Faults are one-shot: after firing, the env
/// behaves normally until re-armed. Counting restarts at every ArmFault
/// call, so `ArmFault(f, 1)` means "the very next matching operation".
class FaultInjectionEnv : public Env {
 public:
  enum class Fault {
    kNone,
    /// WriteFile/AppendFile fails up front; nothing is written.
    kFailWrite,
    /// WriteFile/AppendFile silently writes only the first half of the
    /// buffer and reports success — the save path must catch this itself.
    kShortWrite,
    /// WriteFile/AppendFile succeeds, then one payload byte on disk is
    /// flipped — models post-write bit rot; only a checksum can catch it.
    kCorruptAfterWrite,
    /// WriteFile/AppendFile writes a prefix of the buffer (half by default,
    /// exactly `torn_tail_bytes` when set), then throws InjectedCrash.
    kCrashDuringWrite,
    /// AppendFile writes only a prefix (half by default, exactly
    /// `torn_tail_bytes` when set) and reports success — a silent torn
    /// tail, the lying-disk cousin of kCrashDuringWrite. On WriteFile it
    /// behaves like kShortWrite.
    kTornTailWrite,
    /// SyncFile fails: the barrier cannot be established, so nothing since
    /// the last successful sync may be acknowledged as durable.
    kFailSync,
    /// RenameFile fails; source and destination are left untouched.
    kFailRename,
    /// ReadFile fails up front (EIO-style media error).
    kFailRead,
    /// ReadFile silently returns only the first half of the file and
    /// reports success — truncation the reader must detect itself.
    kShortRead,
    /// ReadFile succeeds but one payload byte in the returned buffer is
    /// flipped — at-rest bit rot surfacing on the read path; only a
    /// checksum or a validating parser can catch it.
    kCorruptRead,
  };

  explicit FaultInjectionEnv(Env* base = Env::Default()) : base_(base) {}

  /// Arms `fault` to fire on the `nth` (1-based) matching operation from
  /// now.
  void ArmFault(Fault fault, int64_t nth = 1);
  void Disarm() { fault_ = Fault::kNone; }

  /// For kCrashDuringWrite and kTornTailWrite: exactly how many bytes of
  /// the faulted buffer land on disk (clamped to the buffer size). -1
  /// restores the default of half the buffer. Byte-granular control is what
  /// lets the kill-at-any-byte recovery property test sweep every crash
  /// offset in a WAL record or snapshot.
  void set_torn_tail_bytes(int64_t n) { torn_tail_bytes_ = n; }

  /// SyncFile calls observed since construction.
  int64_t syncs_seen() const { return syncs_seen_; }

  Result<std::string> ReadFile(const std::string& path) override;
  Status WriteFile(const std::string& path,
                   std::string_view contents) override;
  Status AppendFile(const std::string& path,
                    std::string_view contents) override;
  Status SyncFile(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status RemoveFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;

 private:
  enum class OpKind { kRead, kWrite, kRename, kSync };

  bool ShouldFire(OpKind op);
  /// Bytes of `size` that survive a torn write: torn_tail_bytes_ when set,
  /// otherwise half.
  size_t TornPrefix(size_t size) const;

  Env* base_;
  Fault fault_ = Fault::kNone;
  int64_t fire_at_ = 0;  // remaining matching ops before firing
  int64_t torn_tail_bytes_ = -1;
  int64_t syncs_seen_ = 0;
};

}  // namespace io
}  // namespace slime

#endif  // SLIME4REC_IO_ENV_H_
