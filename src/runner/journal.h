#pragma once

// Crash-safe append-only JSONL journal for the exploration runner.
//
// One line per completed candidate evaluation, each a self-validating
// JSON object:
//
//   {"crc32":"9ae4c1d2","record":{...}}
//
// where crc32 is the CRC-32 (IEEE) of the exact serialized `record`
// substring. The writer appends one line per record and flushes to the
// OS after every append, so a SIGKILL loses at most the line being
// written — and that torn line is detectable. The reader is built for
// hostile input: a truncated final line, a bit-flipped payload, or any
// other malformed line is skipped with a warning, never an exception —
// resume must always be able to salvage every intact record. A writer
// that resumes a journal first cuts its torn final line off, so its
// appends never continue the fragment.
//
// The journal layer stores opaque record payloads; the schema (job
// keys, metrics, duplicate detection) belongs to the explorer
// (runner/explore.h). Small helpers for the flat JSON dialect the
// runner writes (string/int/double fields, no nesting inside records)
// live here so writer and reader stay in one place.

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lopass::runner {

// CRC-32 (IEEE 802.3, reflected) of a byte string.
std::uint32_t Crc32(std::string_view data);

// JSON string escaping for the subset we emit (quotes, backslash,
// control characters).
std::string JsonEscape(std::string_view s);

// Field extraction from one flat record object (no nested objects /
// arrays inside). Returns nullopt when the key is missing or the value
// has the wrong shape. JsonStringField undoes every JsonEscape escape,
// \u00XX included, so a string field round-trips byte for byte; a
// malformed \u escape is the wrong shape.
std::optional<std::string> JsonStringField(std::string_view record, std::string_view key);
std::optional<double> JsonNumberField(std::string_view record, std::string_view key);
std::optional<std::int64_t> JsonIntField(std::string_view record, std::string_view key);

// Appends checksummed records to a journal file, flushing after every
// line. Throws lopass::Error if the file cannot be opened or written —
// losing the journal silently would defeat its purpose.
//
// Append is thread-safe: a mutex serializes the write+flush pair, so
// concurrent producers can never interleave bytes of two lines. (The
// exploration runner still appends every record from its one
// committing thread for deterministic ordering; the lock is the safety
// net that keeps even a misuse from corrupting the journal, and what
// the concurrent-producer fuzz test hammers.)
class JournalWriter {
 public:
  // `truncate` starts a fresh journal; otherwise appends to what is
  // there (the resume path), after cutting the file back to one byte
  // past its last newline so the first append starts a line.
  JournalWriter(const std::string& path, bool truncate);
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  // `record_json` must be one serialized JSON object without newlines.
  void Append(const std::string& record_json);

  std::uint64_t lines_written() const {
    return lines_written_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mu_;
  std::FILE* file_ = nullptr;
  std::string path_;
  std::atomic<std::uint64_t> lines_written_{0};
};

struct JournalLoad {
  // Verified record payloads (the `record` substring of each line), in
  // file order.
  std::vector<std::string> records;
  // One human-readable warning per skipped line (truncated tail,
  // checksum mismatch, malformed wrapper), plus — whenever anything
  // was skipped — one final summary line ("skipped N corrupt records")
  // so a resume reports its total loss in one place.
  std::vector<std::string> warnings;
  // Skip count behind the summary.
  std::size_t corrupt = 0;
};

// Reads every line of the journal at `path`, verifying wrapper shape
// and checksum. A missing file yields an empty load (fresh start), and
// a path that is not a regular file throws Error; corrupt lines are
// skipped and warned about, never fatal. Duplicate
// records are the explorer's to resolve: it keeps the first record of
// each job key.
JournalLoad LoadJournal(const std::string& path);

// Serializes one wrapper line (checksum + record) the writer/reader
// agree on. Exposed for tests that need to craft corrupt journals.
std::string WrapRecord(const std::string& record_json);

}  // namespace lopass::runner
