#ifndef SLIME4REC_DATA_VALIDATION_H_
#define SLIME4REC_DATA_VALIDATION_H_

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/dataset.h"

namespace slime {

namespace io {
class Env;
}  // namespace io

namespace obs {
class MetricsRegistry;
}  // namespace obs

namespace data {

/// Hardened dataset ingestion: a streaming, overflow-safe validating parser
/// behind LoadSequenceFile (the RecBole-style "one validated data module"
/// substitute, see DESIGN.md §1). Three properties the naive loader lacked:
///
///  1. **Typed failure, never UB.** Every malformed byte maps to a Status
///     (Corruption / ResourceExhausted / InvalidArgument / IOError); parsing
///     uses std::from_chars, so an out-of-range integer is reported as
///     exactly that instead of iostream failbit soup.
///  2. **Hard resource caps.** File size, line bytes, sequence length, user
///     count and vocabulary id are all bounded up front — one line saying
///     "99999999999" can no longer inflate num_items and OOM the embedding
///     table. Cap violations are kResourceExhausted, data damage is
///     kCorruption; the caller can tell "your file is corrupt" apart from
///     "your file is too big for this configuration".
///  3. **Salvage with an audit trail.** Under ValidationPolicy::kRepair the
///     parser drops bad tokens/lines, dedupes consecutive repeats and
///     (optionally) renumbers sparse vocabularies instead of dying on the
///     first bad byte — and accounts for every repair in a
///     QuarantineReport (per-error-class counts, first-N offending lines,
///     "data.*" metrics, optional JSONL dump).
///
/// The file is read through io::Env, so FaultInjectionEnv read faults
/// (kFailRead / kShortRead / kCorruptRead) apply to datasets exactly as
/// they do to checkpoints — the chaos harness relies on this.

/// What to do when a line fails validation.
enum class ValidationPolicy {
  /// First error aborts the load with a typed Status naming the line.
  kStrict,
  /// Drop bad tokens/lines, dedupe consecutive repeats, optionally
  /// renumber a sparse vocabulary; every repair is counted in the
  /// QuarantineReport. Resource caps (users / file bytes) still abort.
  kRepair,
};

/// Parses "strict" / "repair" (the CLI's --data-policy values).
Result<ValidationPolicy> ParseValidationPolicy(const std::string& text);
const char* ToString(ValidationPolicy policy);

/// Everything that can be wrong with a token or line, for quarantine
/// accounting. Order is the JSONL/metrics export order.
enum class ErrorClass {
  /// Token is not a base-10 integer (or has trailing garbage).
  kNonNumericToken = 0,
  /// Token is an integer that does not fit in int64 (std::from_chars
  /// result_out_of_range).
  kItemIdOutOfRange,
  /// Token parsed but is < 1 (0 is the padding id, negatives are garbage).
  kNonPositiveItemId,
  /// Token parsed but exceeds ValidationLimits::max_item_id.
  kItemIdAboveCap,
  /// Token equals its predecessor (repair dedupes these).
  kConsecutiveRepeat,
  /// Line longer than ValidationLimits::max_line_bytes (dropped unparsed).
  kOverlongLine,
  /// Tokens beyond ValidationLimits::max_sequence_length (truncated).
  kOverlongSequence,
  /// A non-blank line whose every token was dropped (line contributes no
  /// user).
  kEmptyAfterRepair,
};
inline constexpr int kNumErrorClasses = 8;
/// Snake-case name used in JSONL and metric names, e.g.
/// "non_numeric_token".
const char* ToString(ErrorClass error);

/// Hard resource caps enforced by the validating parser. Exceeding a cap is
/// kResourceExhausted in strict mode; in repair mode per-line caps
/// quarantine the offending line/tokens while the whole-dataset caps
/// (max_file_bytes, max_users) still abort — no policy may OOM the process.
struct ValidationLimits {
  /// Whole-file size cap (io::Env reads are whole-file).
  int64_t max_file_bytes = 1LL << 30;  // 1 GiB
  /// Longest accepted line, in bytes; longer lines are never tokenised.
  int64_t max_line_bytes = 1 << 20;  // 1 MiB
  /// Maximum users (non-blank kept lines).
  int64_t max_users = 10'000'000;
  /// Maximum items per user sequence.
  int64_t max_sequence_length = 100'000;
  /// Maximum accepted item id — the vocabulary cap. This bounds the
  /// embedding-table height downstream models allocate.
  int64_t max_item_id = 50'000'000;
};

/// Offending-line samples retained in a QuarantineReport.
constexpr int64_t kMaxQuarantineSamples = 32;

/// One quarantined token/line sample (the first kMaxQuarantineSamples
/// offenders are kept).
struct QuarantineSample {
  int64_t line = 0;  // 1-based line number
  ErrorClass error = ErrorClass::kNonNumericToken;
  /// Offending token (or a note for line-level errors), sanitised to
  /// printable ASCII and truncated for safe logging.
  std::string token;
};

/// Per-load accounting of everything the validator saw, kept, dropped and
/// rewrote. Returned for both policies: under kStrict it describes the
/// first (fatal) error, under kRepair the full salvage.
struct QuarantineReport {
  std::string path;
  std::string dataset;
  ValidationPolicy policy = ValidationPolicy::kStrict;

  int64_t lines_total = 0;    // all lines, including blank ones
  int64_t lines_kept = 0;     // lines that contributed a user
  int64_t lines_dropped = 0;  // non-blank lines dropped entirely
  int64_t tokens_total = 0;
  int64_t tokens_kept = 0;
  int64_t tokens_dropped = 0;

  /// Per-error-class counts, indexed by ErrorClass.
  std::array<int64_t, kNumErrorClasses> counts{};
  /// First-N offending samples, in file order.
  std::vector<QuarantineSample> samples;

  /// Vocabulary summary. When repair renumbered a sparse vocabulary,
  /// `vocab_renumbered` is true and `num_items` is the dense size;
  /// `max_item_id_seen` always reports the raw maximum kept id.
  bool vocab_renumbered = false;
  int64_t max_item_id_seen = 0;
  int64_t num_items = 0;

  int64_t count(ErrorClass error) const {
    return counts[static_cast<size_t>(error)];
  }
  /// Sum over all error classes.
  int64_t total_errors() const;

  /// JSONL rendering: one "quarantine_summary" line followed by one
  /// "quarantine_sample" line per kept sample (schema in docs/DATA.md).
  std::string ToJsonl() const;
};

/// Knobs for LoadSequenceFileValidated.
struct ValidationOptions {
  ValidationPolicy policy = ValidationPolicy::kStrict;
  ValidationLimits limits;
  /// Under kRepair: when the kept vocabulary is sparse (gaps between 1 and
  /// the max id), remap ids order-preservingly onto 1..K so num_items is
  /// the true vocabulary size instead of the largest id. Embedding tables
  /// then size to the data, not to its worst outlier.
  bool renumber_sparse_vocab = true;
  /// Filesystem seam; nullptr = io::Env::Default(). FaultInjectionEnv read
  /// faults apply.
  io::Env* env = nullptr;
  /// Optional "data.*" metrics (lines/tokens kept and dropped, one counter
  /// per error class). nullptr disables.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Loads a plain-text sequence file (see data/loader.h for the format)
/// through the validating parser. On success the returned dataset respects
/// every cap in `options.limits`. On failure the Status is typed:
/// IOError (unreadable), Corruption (malformed data, message names the
/// line), ResourceExhausted (cap exceeded), InvalidArgument (no usable
/// sequences). `report`, when non-null, is filled for both outcomes.
Result<InteractionDataset> LoadSequenceFileValidated(
    const std::string& path, const std::string& name,
    const ValidationOptions& options, QuarantineReport* report = nullptr);

/// Writes `report.ToJsonl()` crash-safely (stage + verify + atomic rename,
/// the checkpoint protocol) through `env` (nullptr = Env::Default()).
Status WriteQuarantineJsonl(const QuarantineReport& report,
                            const std::string& path, io::Env* env = nullptr);

}  // namespace data
}  // namespace slime

#endif  // SLIME4REC_DATA_VALIDATION_H_
