#include "data/validation.h"

#include <algorithm>
#include <charconv>
#include <string_view>
#include <unordered_map>

#include "io/atomic_write.h"
#include "io/env.h"
#include "observability/export.h"
#include "observability/metrics.h"

namespace slime {
namespace data {

namespace {

/// Longest token excerpt kept in a quarantine sample.
constexpr size_t kMaxSampleTokenBytes = 24;

/// Token delimiters inside a line ('\n' terminates the line itself). '\r'
/// is a delimiter so CRLF files parse as their LF twins.
bool IsDelimiter(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f';
}

/// Printable-ASCII excerpt of an offending token, safe to embed in logs and
/// JSONL regardless of what bytes the file actually contained.
std::string SanitizeToken(std::string_view token) {
  std::string out;
  const size_t n = std::min(token.size(), kMaxSampleTokenBytes);
  out.reserve(n + 3);
  for (size_t i = 0; i < n; ++i) {
    const char c = token[i];
    const auto u = static_cast<unsigned char>(c);
    out += (u >= 0x20 && u <= 0x7e) ? c : '?';
  }
  if (token.size() > kMaxSampleTokenBytes) out += "...";
  return out;
}

std::string At(int64_t line_no, const std::string& path) {
  return "at line " + std::to_string(line_no) + " of " + path;
}

/// Folds one load's report into the registry ("data.*" namespace). Called
/// on every exit path so failed loads are visible too.
void PublishMetrics(const QuarantineReport& report,
                    obs::MetricsRegistry* registry, bool ok) {
  if (registry == nullptr) return;
  registry->counter(ok ? "data.loads_ok" : "data.loads_failed").Increment();
  registry->counter("data.lines_total").Increment(report.lines_total);
  registry->counter("data.lines_kept").Increment(report.lines_kept);
  registry->counter("data.lines_dropped").Increment(report.lines_dropped);
  registry->counter("data.tokens_kept").Increment(report.tokens_kept);
  registry->counter("data.tokens_dropped").Increment(report.tokens_dropped);
  for (int i = 0; i < kNumErrorClasses; ++i) {
    if (report.counts[static_cast<size_t>(i)] > 0) {
      registry
          ->counter(std::string("data.quarantined.") +
                    ToString(static_cast<ErrorClass>(i)))
          .Increment(report.counts[static_cast<size_t>(i)]);
    }
  }
}

}  // namespace

Result<ValidationPolicy> ParseValidationPolicy(const std::string& text) {
  if (text == "strict") return ValidationPolicy::kStrict;
  if (text == "repair") return ValidationPolicy::kRepair;
  return Status::InvalidArgument("unknown validation policy '" + text +
                                 "' (expected strict or repair)");
}

const char* ToString(ValidationPolicy policy) {
  return policy == ValidationPolicy::kStrict ? "strict" : "repair";
}

const char* ToString(ErrorClass error) {
  switch (error) {
    case ErrorClass::kNonNumericToken:
      return "non_numeric_token";
    case ErrorClass::kItemIdOutOfRange:
      return "item_id_out_of_range";
    case ErrorClass::kNonPositiveItemId:
      return "non_positive_item_id";
    case ErrorClass::kItemIdAboveCap:
      return "item_id_above_cap";
    case ErrorClass::kConsecutiveRepeat:
      return "consecutive_repeat";
    case ErrorClass::kOverlongLine:
      return "overlong_line";
    case ErrorClass::kOverlongSequence:
      return "overlong_sequence";
    case ErrorClass::kEmptyAfterRepair:
      return "empty_after_repair";
  }
  return "unknown";
}

int64_t QuarantineReport::total_errors() const {
  int64_t total = 0;
  for (const int64_t c : counts) total += c;
  return total;
}

std::string QuarantineReport::ToJsonl() const {
  std::string out;
  out += "{\"type\":\"quarantine_summary\",\"dataset\":\"";
  out += obs::JsonEscape(dataset);
  out += "\",\"path\":\"";
  out += obs::JsonEscape(path);
  out += "\",\"policy\":\"";
  out += ToString(policy);
  out += "\",\"lines\":{\"total\":" + std::to_string(lines_total) +
         ",\"kept\":" + std::to_string(lines_kept) +
         ",\"dropped\":" + std::to_string(lines_dropped) + "}";
  out += ",\"tokens\":{\"total\":" + std::to_string(tokens_total) +
         ",\"kept\":" + std::to_string(tokens_kept) +
         ",\"dropped\":" + std::to_string(tokens_dropped) + "}";
  out += ",\"errors\":{";
  for (int i = 0; i < kNumErrorClasses; ++i) {
    if (i > 0) out += ',';
    out += '"';
    out += ToString(static_cast<ErrorClass>(i));
    out += "\":" + std::to_string(counts[static_cast<size_t>(i)]);
  }
  out += "},\"vocab\":{\"renumbered\":";
  out += vocab_renumbered ? "true" : "false";
  out += ",\"max_item_id_seen\":" + std::to_string(max_item_id_seen) +
         ",\"num_items\":" + std::to_string(num_items) + "}}\n";
  for (const QuarantineSample& s : samples) {
    out += "{\"type\":\"quarantine_sample\",\"line\":" +
           std::to_string(s.line) + ",\"class\":\"";
    out += ToString(s.error);
    out += "\",\"token\":\"";
    out += obs::JsonEscape(s.token);
    out += "\"}\n";
  }
  return out;
}

Result<InteractionDataset> LoadSequenceFileValidated(
    const std::string& path, const std::string& name,
    const ValidationOptions& options, QuarantineReport* report) {
  QuarantineReport local;
  QuarantineReport& rep = report != nullptr ? *report : local;
  rep = QuarantineReport();
  rep.path = path;
  rep.dataset = name;
  rep.policy = options.policy;

  const ValidationLimits& lim = options.limits;
  const bool repair = options.policy == ValidationPolicy::kRepair;
  io::Env* env = options.env != nullptr ? options.env : io::Env::Default();

  // Records one offence; the first kMaxQuarantineSamples get a sample.
  const auto note = [&rep](int64_t line_no, ErrorClass error,
                           std::string_view token) {
    ++rep.counts[static_cast<size_t>(error)];
    if (static_cast<int64_t>(rep.samples.size()) < kMaxQuarantineSamples) {
      rep.samples.push_back({line_no, error, SanitizeToken(token)});
    }
  };
  const auto fail = [&rep, &options](Status st) -> Status {
    PublishMetrics(rep, options.metrics, /*ok=*/false);
    return st;
  };

  Result<std::string> file = env->ReadFile(path);
  if (!file.ok()) return fail(file.status());
  const std::string& contents = file.value();
  if (static_cast<int64_t>(contents.size()) > lim.max_file_bytes) {
    return fail(Status::ResourceExhausted(
        path + " is " + std::to_string(contents.size()) +
        " bytes (max_file_bytes " + std::to_string(lim.max_file_bytes) +
        ")"));
  }

  std::vector<std::vector<int64_t>> sequences;
  int64_t max_item = 0;
  int64_t line_no = 0;
  size_t pos = 0;
  while (pos < contents.size()) {
    const size_t nl = contents.find('\n', pos);
    const size_t line_end = nl == std::string::npos ? contents.size() : nl;
    const std::string_view line(contents.data() + pos, line_end - pos);
    pos = nl == std::string::npos ? contents.size() : nl + 1;
    ++line_no;
    ++rep.lines_total;

    if (static_cast<int64_t>(line.size()) > lim.max_line_bytes) {
      // Never tokenised: the cap exists so a gigabyte-long line costs one
      // length comparison, not a gigabyte of token scanning.
      std::string excerpt = "<";
      excerpt += std::to_string(line.size());
      excerpt += " bytes>";
      note(line_no, ErrorClass::kOverlongLine, excerpt);
      if (!repair) {
        return fail(Status::ResourceExhausted(
            "line " + At(line_no, path) + " is " +
            std::to_string(line.size()) + " bytes (max_line_bytes " +
            std::to_string(lim.max_line_bytes) + ")"));
      }
      ++rep.lines_dropped;
      continue;
    }

    std::vector<int64_t> seq;
    bool saw_token = false;
    size_t t = 0;
    while (t < line.size()) {
      while (t < line.size() && IsDelimiter(line[t])) ++t;
      if (t >= line.size()) break;
      size_t te = t;
      while (te < line.size() && !IsDelimiter(line[te])) ++te;
      const std::string_view token = line.substr(t, te - t);
      t = te;
      saw_token = true;
      ++rep.tokens_total;

      int64_t id = 0;
      const auto [ptr, ec] =
          std::from_chars(token.data(), token.data() + token.size(), id);
      bool bad = true;
      ErrorClass error = ErrorClass::kNonNumericToken;
      if (ec == std::errc::result_out_of_range) {
        error = ErrorClass::kItemIdOutOfRange;
        if (!repair) {
          note(line_no, error, token);
          ++rep.tokens_dropped;
          return fail(Status::Corruption("item id out of range " +
                                         At(line_no, path) + ": '" +
                                         SanitizeToken(token) + "'"));
        }
      } else if (ec != std::errc() || ptr != token.data() + token.size()) {
        error = ErrorClass::kNonNumericToken;
        if (!repair) {
          note(line_no, error, token);
          ++rep.tokens_dropped;
          return fail(Status::Corruption("non-numeric token " +
                                         At(line_no, path) + ": '" +
                                         SanitizeToken(token) + "'"));
        }
      } else if (id < 1) {
        error = ErrorClass::kNonPositiveItemId;
        if (!repair) {
          note(line_no, error, token);
          ++rep.tokens_dropped;
          return fail(Status::Corruption("non-positive item id " +
                                         At(line_no, path) + ": '" +
                                         SanitizeToken(token) + "'"));
        }
      } else if (id > lim.max_item_id) {
        error = ErrorClass::kItemIdAboveCap;
        if (!repair) {
          note(line_no, error, token);
          ++rep.tokens_dropped;
          return fail(Status::ResourceExhausted(
              "item id " + std::to_string(id) + " " + At(line_no, path) +
              " exceeds max_item_id " + std::to_string(lim.max_item_id)));
        }
      } else if (repair && !seq.empty() && seq.back() == id) {
        // Strict mode keeps consecutive repeats: they are representable
        // data. Repair treats them as the stutter artefact they almost
        // always are and dedupes.
        error = ErrorClass::kConsecutiveRepeat;
      } else if (static_cast<int64_t>(seq.size()) >=
                 lim.max_sequence_length) {
        error = ErrorClass::kOverlongSequence;
        if (!repair) {
          note(line_no, error, token);
          ++rep.tokens_dropped;
          return fail(Status::ResourceExhausted(
              "sequence " + At(line_no, path) +
              " exceeds max_sequence_length " +
              std::to_string(lim.max_sequence_length)));
        }
      } else {
        bad = false;
      }
      if (bad) {
        note(line_no, error, token);
        ++rep.tokens_dropped;
        continue;
      }
      seq.push_back(id);
      ++rep.tokens_kept;
      max_item = std::max(max_item, id);
    }

    if (seq.empty()) {
      if (saw_token) {
        // Non-blank line whose every token was quarantined (repair only;
        // strict returns on the first bad token). Blank lines are simply
        // skipped, as the naive loader always did.
        note(line_no, ErrorClass::kEmptyAfterRepair, "");
        ++rep.lines_dropped;
      }
      continue;
    }
    if (static_cast<int64_t>(sequences.size()) >= lim.max_users) {
      // A hard whole-dataset cap under both policies: "repairing" an
      // oversized dataset by silently dropping the tail would be a lie.
      return fail(Status::ResourceExhausted(
          path + " has more than max_users (" +
          std::to_string(lim.max_users) + ") sequences"));
    }
    sequences.push_back(std::move(seq));
    ++rep.lines_kept;
  }

  if (sequences.empty()) {
    return fail(Status::InvalidArgument("no sequences in " + path));
  }

  rep.max_item_id_seen = max_item;
  int64_t num_items = max_item;
  if (repair && options.renumber_sparse_vocab) {
    std::vector<int64_t> ids;
    for (const auto& seq : sequences) {
      ids.insert(ids.end(), seq.begin(), seq.end());
    }
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    if (static_cast<int64_t>(ids.size()) < max_item) {
      // Order-preserving dense renumbering: the k-th smallest kept id
      // becomes k. Models allocate embeddings for ids that exist instead
      // of for every gap below the maximum.
      std::unordered_map<int64_t, int64_t> remap;
      remap.reserve(ids.size());
      for (size_t i = 0; i < ids.size(); ++i) {
        remap[ids[i]] = static_cast<int64_t>(i) + 1;
      }
      for (auto& seq : sequences) {
        for (int64_t& v : seq) v = remap[v];
      }
      num_items = static_cast<int64_t>(ids.size());
      rep.vocab_renumbered = true;
    }
  }
  rep.num_items = num_items;
  PublishMetrics(rep, options.metrics, /*ok=*/true);
  return InteractionDataset(name, std::move(sequences), num_items);
}

Status WriteQuarantineJsonl(const QuarantineReport& report,
                            const std::string& path, io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  const std::string payload = report.ToJsonl();
  return io::AtomicWriteFile(env, path, payload);
}

}  // namespace data
}  // namespace slime
