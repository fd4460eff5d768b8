// Supervised exploration runner: journal integrity under corruption
// (truncation, bit flips, duplicates), cooperative cancellation, and
// the retry / circuit-breaker / chaos supervision loop — including the
// contract the crash tests lean on: a resumed or chaos run renders a
// report byte-identical to a clean one.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/cancel.h"
#include "common/error.h"
#include "common/fault.h"
#include "common/prng.h"
#include "runner/explore.h"
#include "runner/journal.h"

namespace lopass::runner {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "lopass_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << content;
}

// --- journal ----------------------------------------------------------

TEST(Crc32Test, KnownAnswer) {
  // The CRC-32 (IEEE) check value from the standard test vector.
  EXPECT_EQ(Crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(Crc32(""), 0u);
}

TEST(JournalTest, RoundTripsRecords) {
  const std::string path = TempPath("journal_roundtrip.jsonl");
  {
    JournalWriter writer(path, /*truncate=*/true);
    writer.Append("{\"app\":\"3d\",\"saving\":-35.21}");
    writer.Append("{\"app\":\"MPG\",\"detail\":\"quote \\\" inside\"}");
    EXPECT_EQ(writer.lines_written(), 2u);
  }
  const JournalLoad load = LoadJournal(path);
  EXPECT_TRUE(load.warnings.empty());
  ASSERT_EQ(load.records.size(), 2u);
  EXPECT_EQ(load.records[0], "{\"app\":\"3d\",\"saving\":-35.21}");
  std::remove(path.c_str());
}

TEST(JournalTest, MissingFileIsFreshStart) {
  const JournalLoad load = LoadJournal(TempPath("journal_does_not_exist.jsonl"));
  EXPECT_TRUE(load.records.empty());
  EXPECT_TRUE(load.warnings.empty());
}

TEST(JournalTest, APathThatIsNotARegularFileIsRefused) {
  // A directory stands for every non-regular path, a device such as
  // /dev/zero included, whose read would never reach an end.
  const std::string path = TempPath("journal_dir");
  std::filesystem::create_directories(path);
  EXPECT_THROW((void)LoadJournal(path), Error);
  EXPECT_THROW(JournalWriter(path, /*truncate=*/false), Error);
  std::filesystem::remove(path);
}

TEST(JournalTest, TruncatedFinalLineIsSkippedWithWarning) {
  const std::string path = TempPath("journal_truncated.jsonl");
  const std::string full = WrapRecord("{\"a\":1}") + "\n" + WrapRecord("{\"a\":2}") + "\n";
  // Chop the second line mid-record, as a SIGKILL mid-append would.
  WriteFile(path, full.substr(0, full.size() - 6));
  const JournalLoad load = LoadJournal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0], "{\"a\":1}");
  // One warning for the torn line, plus the reader's skip summary.
  ASSERT_EQ(load.warnings.size(), 2u);
  EXPECT_NE(load.warnings[0].find("truncated final line"), std::string::npos);
  EXPECT_EQ(load.corrupt, 1u);
  EXPECT_NE(load.warnings[1].find("skipped 1 corrupt records"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTest, BitFlippedRecordFailsItsChecksum) {
  const std::string path = TempPath("journal_bitflip.jsonl");
  std::string line = WrapRecord("{\"a\":1,\"b\":2}");
  line[line.size() - 5] ^= 0x01;  // flip a bit inside the record payload
  WriteFile(path, WrapRecord("{\"a\":0}") + "\n" + line + "\n");
  const JournalLoad load = LoadJournal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0], "{\"a\":0}");
  ASSERT_EQ(load.warnings.size(), 2u);
  EXPECT_NE(load.warnings[0].find("checksum mismatch"), std::string::npos);
  EXPECT_NE(load.warnings[1].find("skipped 1 corrupt records"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTest, MalformedWrapperIsSkippedWithWarning) {
  const std::string path = TempPath("journal_malformed.jsonl");
  WriteFile(path, "not json at all\n" + WrapRecord("{\"ok\":1}") + "\n");
  const JournalLoad load = LoadJournal(path);
  ASSERT_EQ(load.records.size(), 1u);
  EXPECT_EQ(load.records[0], "{\"ok\":1}");
  EXPECT_EQ(load.warnings.size(), 2u);
  EXPECT_NE(load.warnings[1].find("skipped 1 corrupt records"), std::string::npos);
  std::remove(path.c_str());
}

TEST(JournalTest, FieldExtraction) {
  const std::string rec =
      "{\"app\":\"ckey\",\"seed\":\"0xdead\",\"saving_pct\":-12.5,\"errors\":3,"
      "\"detail\":\"a \\\"q\\\" b\"}";
  EXPECT_EQ(JsonStringField(rec, "app").value(), "ckey");
  EXPECT_EQ(JsonStringField(rec, "detail").value(), "a \"q\" b");
  EXPECT_DOUBLE_EQ(JsonNumberField(rec, "saving_pct").value(), -12.5);
  EXPECT_EQ(JsonIntField(rec, "errors").value(), 3);
  EXPECT_FALSE(JsonStringField(rec, "missing").has_value());
  EXPECT_FALSE(JsonIntField(rec, "app").has_value());

  // Control bytes leave JsonEscape as \u00XX and must come back as the
  // same bytes; a malformed \u escape is the wrong shape.
  const std::string control = "bell\x07 ff\x0c end";
  const std::string escaped = "{\"detail\":\"" + JsonEscape(control) + "\"}";
  EXPECT_EQ(escaped, "{\"detail\":\"bell\\u0007 ff\\u000c end\"}");
  EXPECT_EQ(JsonStringField(escaped, "detail").value(), control);
  EXPECT_EQ(JsonStringField("{\"d\":\"\\u001B\"}", "d").value(), "\x1b");
  for (const char* bad : {"{\"d\":\"\\u00\"}", "{\"d\":\"\\u00zz\"}",
                          "{\"d\":\"\\u+07f\"}", "{\"d\":\"\\u00e9\"}"}) {
    EXPECT_FALSE(JsonStringField(bad, "d").has_value()) << bad;
  }
}

TEST(JournalTest, JobRecordRoundTripsControlBytes) {
  JobResult job;
  job.app = "3d";
  job.resource_set = "rs\t1";
  job.seed = 0xdeadbeefull;
  job.status = JobStatus::kDegraded;
  job.attempts = 2;
  job.fault_spec = "sim:2";
  job.initial_energy_j = 0.1;
  job.partitioned_energy_j = 1.0 / 3.0;
  job.saving_percent = -12.5;
  job.errors = 1;
  job.detail = "bell\x07 ff\x0c \"q\" back\\slash\nend";
  const std::string json = JobRecordJson(job);
  JobResult parsed;
  ASSERT_TRUE(ParseJobRecord(json, parsed));
  EXPECT_EQ(parsed.detail, job.detail);
  EXPECT_EQ(parsed.resource_set, job.resource_set);
  EXPECT_EQ(JobRecordJson(parsed), json);
}

// --- journal property tests (seeded fuzz) -----------------------------

// Random printable record payloads: flat JSON-ish strings with no
// newline (the one shape constraint Append demands).
std::string RandomPayload(Prng& prng) {
  static constexpr char kAlphabet[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      " {}[]:,.\"\\_-+";
  const std::size_t length = 1 + prng.next_below(60);
  std::string payload = "{\"p\":\"";
  for (std::size_t i = 0; i < length; ++i) {
    char c = kAlphabet[prng.next_below(sizeof(kAlphabet) - 1)];
    if (c == '"' || c == '\\') c = 'x';  // keep the wrapper parseable
    payload.push_back(c);
  }
  payload += "\"}";
  return payload;
}

TEST(JournalPropertyTest, RandomBatchesRoundTripExactly) {
  const std::string path = TempPath("journal_prop_roundtrip.jsonl");
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Prng prng(seed);
    const std::size_t count = 1 + prng.next_below(40);
    std::vector<std::string> written;
    written.reserve(count);
    {
      JournalWriter writer(path, /*truncate=*/true);
      for (std::size_t i = 0; i < count; ++i) {
        written.push_back(RandomPayload(prng));
        writer.Append(written.back());
      }
      EXPECT_EQ(writer.lines_written(), count);
    }
    const JournalLoad load = LoadJournal(path);
    EXPECT_TRUE(load.warnings.empty()) << "seed " << seed;
    ASSERT_EQ(load.records.size(), count) << "seed " << seed;
    for (std::size_t i = 0; i < count; ++i) {
      EXPECT_EQ(load.records[i], written[i]) << "seed " << seed << " record " << i;
    }
  }
  std::remove(path.c_str());
}

TEST(JournalPropertyTest, RandomTruncationRecoversExactlyTheIntactPrefix) {
  // For any cut point, the reader must return precisely the records
  // whose full line (terminating newline included) survived, warn once
  // iff the cut tore a line, and never throw.
  const std::string path = TempPath("journal_prop_truncate.jsonl");
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Prng prng(seed ^ 0xdecafbadull);
    const std::size_t count = 1 + prng.next_below(12);
    std::vector<std::string> written;
    std::vector<std::size_t> line_end;  // offset one past each '\n'
    std::string content;
    for (std::size_t i = 0; i < count; ++i) {
      written.push_back(RandomPayload(prng));
      content += WrapRecord(written.back()) + "\n";
      line_end.push_back(content.size());
    }
    const std::size_t cut = prng.next_below(content.size() + 1);
    WriteFile(path, content.substr(0, cut));

    std::size_t intact = 0;
    while (intact < count && line_end[intact] <= cut) ++intact;
    const bool torn =
        cut != 0 && cut != (intact == 0 ? std::size_t{0} : line_end[intact - 1]);

    const JournalLoad load = LoadJournal(path);
    ASSERT_EQ(load.records.size(), intact) << "seed " << seed << " cut " << cut;
    for (std::size_t i = 0; i < intact; ++i) {
      EXPECT_EQ(load.records[i], written[i]) << "seed " << seed;
    }
    // A torn tail produces the warning itself plus the skip summary.
    EXPECT_EQ(load.warnings.size(), torn ? 2u : 0u)
        << "seed " << seed << " cut " << cut;
  }
  std::remove(path.c_str());
}

TEST(JournalPropertyTest, SingleBitFlipsNeverCorruptOtherLines) {
  // Flip one bit in a random subset of lines (never creating or
  // destroying a newline): every untouched record must load intact and
  // in order, every flipped line must produce exactly one warning.
  const std::string path = TempPath("journal_prop_bitflip.jsonl");
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    Prng prng(seed ^ 0xb17f11b5ull);
    const std::size_t count = 2 + prng.next_below(10);
    std::vector<std::string> written;
    std::vector<std::string> lines;
    for (std::size_t i = 0; i < count; ++i) {
      written.push_back(RandomPayload(prng));
      lines.push_back(WrapRecord(written.back()));
    }

    std::vector<bool> flipped(count, false);
    std::string content;
    for (std::size_t i = 0; i < count; ++i) {
      std::string line = lines[i];
      if (prng.next_below(2) == 1) {
        // Re-draw until the flip neither hits nor produces 0x0a.
        for (;;) {
          const std::size_t at = prng.next_below(line.size());
          const char mutated =
              static_cast<char>(line[at] ^ (1 << prng.next_below(8)));
          if (mutated == '\n' || line[at] == '\n') continue;
          line[at] = mutated;
          break;
        }
        flipped[i] = true;
      }
      content += line + "\n";
    }
    WriteFile(path, content);

    const JournalLoad load = LoadJournal(path);
    std::size_t expected_intact = 0, expected_flipped = 0;
    for (std::size_t i = 0; i < count; ++i) {
      (flipped[i] ? expected_flipped : expected_intact)++;
    }
    // One warning per flipped line, plus one skip summary iff any.
    EXPECT_EQ(load.warnings.size(),
              expected_flipped + (expected_flipped > 0 ? 1u : 0u))
        << "seed " << seed;
    EXPECT_EQ(load.corrupt, expected_flipped) << "seed " << seed;
    ASSERT_EQ(load.records.size(), expected_intact) << "seed " << seed;
    std::size_t at = 0;
    for (std::size_t i = 0; i < count; ++i) {
      if (flipped[i]) continue;
      EXPECT_EQ(load.records[at++], written[i]) << "seed " << seed << " line " << i;
    }
  }
  std::remove(path.c_str());
}

// --- cancellation -----------------------------------------------------

TEST(CancelTokenTest, DefaultNeverFires) {
  CancelToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_NO_THROW(token.Check("test"));
  EXPECT_NO_THROW(CheckCancel(nullptr, "test"));
}

TEST(CancelTokenTest, CancelFiresImmediately) {
  CancelToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  try {
    token.Check("unit test");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("cancelled in unit test"), std::string::npos);
  }
}

TEST(CancelTokenTest, DeadlineFiresAfterElapsing) {
  CancelToken token;
  token.SetDeadlineAfterMs(5);
  EXPECT_FALSE(token.cancelled());
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_TRUE(token.cancelled());
  try {
    token.Check("sweep");
    FAIL() << "expected CancelledError";
  } catch (const CancelledError& e) {
    EXPECT_NE(std::string(e.what()).find("deadline exceeded in sweep"),
              std::string::npos);
  }
  token.SetDeadlineAfterMs(0);  // disarms
  EXPECT_FALSE(token.cancelled());
}

TEST(TransientClassificationTest, OnlyInjectedFaultsAreTransient) {
  // The type routes a thrown failure: every isolation layer absorbs an
  // Error, and none absorbs a deadline.
  static_assert(std::is_base_of_v<Error, InjectedFault>);
  static_assert(!std::is_base_of_v<Error, CancelledError>);
  EXPECT_TRUE(fault::IsTransientMessage("schedule failed: injected fault at site 'x'"));
  EXPECT_FALSE(fault::IsTransientMessage("schedule failed: no resource for mul"));
}

// --- the supervision loop --------------------------------------------

ExploreOptions EngineSweep() {
  ExploreOptions options;
  options.apps = {"engine"};
  options.scale = 1;
  return options;
}

TEST(ExploreTest, CleanSweepIsDeterministic) {
  const ExploreReport a = RunExplore(EngineSweep());
  const ExploreReport b = RunExplore(EngineSweep());
  ASSERT_EQ(a.jobs.size(), 4u);  // engine's four designer resource sets
  EXPECT_EQ(a.failed(), 0);
  EXPECT_EQ(a.degraded(), 0);
  for (const JobResult& job : a.jobs) {
    EXPECT_EQ(job.status, JobStatus::kOk);
    EXPECT_EQ(job.attempts, 1);
    EXPECT_FALSE(job.replayed);
  }
  EXPECT_EQ(a.Render(), b.Render());
}

TEST(ExploreTest, UnknownAppIsAUsageError) {
  ExploreOptions options;
  options.apps = {"nonesuch"};
  EXPECT_THROW((void)RunExplore(options), Error);
}

TEST(ExploreTest, TransientFaultIsRetriedToSuccess) {
  // profile:1 throws out of the first attempt (before the baseline
  // exists -> fail-fast path); one-shot, so the retry runs clean.
  fault::ScopedSpec spec("profile:1");
  ExploreOptions options = EngineSweep();
  options.max_attempts = 3;
  const ExploreReport report = RunExplore(options);
  EXPECT_EQ(report.failed(), 0);
  ASSERT_EQ(report.jobs.size(), 4u);
  EXPECT_EQ(report.jobs[0].attempts, 2);  // fault consumed by job 1
  EXPECT_EQ(report.jobs[0].status, JobStatus::kOk);
  EXPECT_EQ(report.jobs[1].attempts, 1);
  bool retried = false;
  for (const Diagnostic& d : report.notes) retried |= d.code == "runner.retry";
  EXPECT_TRUE(retried);
}

TEST(ExploreTest, ExhaustedRetriesTripTheJob) {
  // Every profile hit fires: all attempts fail, retries run out.
  fault::ScopedSpec spec("profile");
  ExploreOptions options = EngineSweep();
  options.max_attempts = 2;
  const ExploreReport report = RunExplore(options);
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const JobResult& job : report.jobs) {
    EXPECT_EQ(job.status, JobStatus::kFailed);
    EXPECT_EQ(job.attempts, 2);
    EXPECT_NE(job.detail.find("injected fault at site 'profile'"), std::string::npos);
  }
}

TEST(ExploreTest, CompileFaultOpensTheBreakerWithoutSinkingTheSweep) {
  fault::ScopedSpec spec("parse");
  const ExploreReport report = RunExplore(EngineSweep());
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const JobResult& job : report.jobs) {
    EXPECT_EQ(job.status, JobStatus::kFailed);
    EXPECT_EQ(job.attempts, 1);  // permanent: no retry
  }
  bool breaker = false;
  for (const Diagnostic& d : report.notes) breaker |= d.code == "runner.breaker";
  EXPECT_TRUE(breaker);
}

TEST(ExploreTest, DeadlineDegradesInsteadOfHanging) {
  // A 0-ms-equivalent deadline: armed so tight every attempt cancels.
  // CancelledError is permanent — exactly one attempt, breaker opens.
  ExploreOptions options = EngineSweep();
  options.deadline_ms = 1;
  options.max_attempts = 3;
  const ExploreReport report = RunExplore(options);
  ASSERT_EQ(report.jobs.size(), 4u);
  for (const JobResult& job : report.jobs) {
    if (job.status != JobStatus::kFailed) continue;  // fast machines may finish
    EXPECT_EQ(job.attempts, 1) << "deadline failures must not be retried";
    EXPECT_NE(job.detail.find("deadline exceeded"), std::string::npos);
  }
}

TEST(ExploreTest, ChaosReportMatchesCleanReport) {
  const ExploreReport clean = RunExplore(EngineSweep());
  for (const std::uint64_t chaos_seed : {7ull, 99ull}) {
    ExploreOptions options = EngineSweep();
    options.chaos_seed = chaos_seed;
    options.max_attempts = 4;  // room to absorb two one-shot faults
    const ExploreReport chaos = RunExplore(options);
    EXPECT_EQ(chaos.Render(), clean.Render()) << "chaos seed " << chaos_seed;
    bool scheduled = false;
    for (const Diagnostic& d : chaos.notes) scheduled |= d.code == "runner.chaos";
    EXPECT_TRUE(scheduled);
  }
}

TEST(ExploreTest, ResumeReplaysCommittedPrefixByteIdentically) {
  const std::string path = TempPath("explore_resume.jsonl");
  ExploreOptions options = EngineSweep();
  options.journal_path = path;
  const ExploreReport full = RunExplore(options);
  ASSERT_EQ(full.jobs.size(), 4u);
  const std::string clean = ReadFile(path);

  // Keep only the first two committed records, as if the process had
  // been killed mid-sweep, then resume.
  std::istringstream journal(ReadFile(path));
  std::string line1, line2;
  std::getline(journal, line1);
  std::getline(journal, line2);
  WriteFile(path, line1 + "\n" + line2 + "\n");

  ExploreOptions resume = options;
  resume.resume = true;
  const ExploreReport resumed = RunExplore(resume);
  ASSERT_EQ(resumed.jobs.size(), 4u);
  EXPECT_TRUE(resumed.jobs[0].replayed);
  EXPECT_TRUE(resumed.jobs[1].replayed);
  EXPECT_FALSE(resumed.jobs[2].replayed);
  EXPECT_EQ(resumed.Render(), full.Render());
  // The journal holds all four records again, byte for byte.
  EXPECT_EQ(ReadFile(path), clean);
  std::remove(path.c_str());
}

TEST(ExploreTest, ResumeAfterATornAppendRestoresTheCleanJournal) {
  // A SIGKILL mid-append leaves a torn final line. Resume must cut it
  // off before appending, so the first resumed record starts a line of
  // its own: the journal ends up byte-equal to the clean run's, and a
  // second resume replays every job without a warning. Cut inside the
  // first, a middle and the last line.
  const std::string path = TempPath("explore_torn.jsonl");
  ExploreOptions options = EngineSweep();
  options.journal_path = path;
  const ExploreReport full = RunExplore(options);
  const std::string clean = ReadFile(path);
  std::vector<std::size_t> line_start;
  for (std::size_t at = 0; at < clean.size(); at = clean.find('\n', at) + 1) {
    line_start.push_back(at);
  }
  ASSERT_EQ(line_start.size(), 4u);

  ExploreOptions resume = options;
  resume.resume = true;
  for (const std::size_t line : {0u, 2u, 3u}) {
    WriteFile(path, clean.substr(0, line_start[line] + 60));
    const ExploreReport resumed = RunExplore(resume);
    EXPECT_EQ(resumed.Render(), full.Render()) << "cut in line " << line;
    EXPECT_EQ(ReadFile(path), clean) << "cut in line " << line;

    const ExploreReport again = RunExplore(resume);
    EXPECT_EQ(again.Render(), full.Render()) << "cut in line " << line;
    for (const JobResult& job : again.jobs) {
      EXPECT_TRUE(job.replayed) << job.app << "/" << job.resource_set;
    }
    for (const Diagnostic& d : again.notes) {
      EXPECT_NE(d.code, "runner.journal") << "cut in line " << line << ": " << d.message;
    }
  }
  std::remove(path.c_str());
}

TEST(ExploreTest, AdjacentDuplicateLineIsSkippedByTheRunner) {
  const std::string path = TempPath("explore_duplicate.jsonl");
  ExploreOptions options = EngineSweep();
  options.journal_path = path;
  const ExploreReport full = RunExplore(options);

  // Duplicate the first committed line in place (a crash between append
  // and fsync replayed by a journaling filesystem lands the same bytes
  // twice, adjacent). The reader loads both; the runner's by-key check
  // keeps the first and warns.
  const std::string content = ReadFile(path);
  const std::string first = content.substr(0, content.find('\n') + 1);
  WriteFile(path, first + content);
  const JournalLoad load = LoadJournal(path);
  EXPECT_EQ(load.records.size(), 5u);
  EXPECT_TRUE(load.warnings.empty());

  ExploreOptions resume = options;
  resume.resume = true;
  const ExploreReport resumed = RunExplore(resume);
  EXPECT_EQ(resumed.Render(), full.Render());
  bool warned = false;
  for (const Diagnostic& d : resumed.notes) {
    warned |= d.code == "runner.journal" &&
              d.message.find("duplicate journal record") != std::string::npos;
  }
  EXPECT_TRUE(warned);
  std::remove(path.c_str());
}

TEST(ExploreTest, ByKeyDuplicateRecordKeepsTheFirstWithWarning) {
  const std::string path = TempPath("explore_key_duplicate.jsonl");
  ExploreOptions options = EngineSweep();
  options.journal_path = path;
  const ExploreReport full = RunExplore(options);

  // Append a byte-DIFFERENT record for a job already in the journal:
  // the runner's by-key dedup must keep the first record and warn.
  const JournalLoad before = LoadJournal(path);
  ASSERT_EQ(before.records.size(), 4u);
  JobResult twin;
  ASSERT_TRUE(ParseJobRecord(before.records[0], twin));
  twin.attempts += 1;  // different bytes, same app/resource_set key
  {
    JournalWriter writer(path, /*truncate=*/false);
    writer.Append(JobRecordJson(twin));
  }

  ExploreOptions resume = options;
  resume.resume = true;
  const ExploreReport resumed = RunExplore(resume);
  EXPECT_EQ(resumed.Render(), full.Render());
  EXPECT_EQ(resumed.jobs[0].attempts, full.jobs[0].attempts) << "kept the first";
  bool warned = false;
  for (const Diagnostic& d : resumed.notes) {
    warned |= d.code == "runner.journal" &&
              d.message.find("duplicate journal record") != std::string::npos;
  }
  EXPECT_TRUE(warned);
  std::remove(path.c_str());
}

TEST(ExploreTest, CorruptJournalRecordIsReEvaluatedOnResume) {
  const std::string path = TempPath("explore_corrupt.jsonl");
  ExploreOptions options = EngineSweep();
  options.journal_path = path;
  const ExploreReport full = RunExplore(options);

  // Flip a bit in the third record: resume must warn, re-run that job,
  // and still converge to the same report.
  std::string content = ReadFile(path);
  std::size_t at = 0;
  for (int i = 0; i < 2; ++i) at = content.find('\n', at) + 1;
  content[at + 40] ^= 0x01;
  WriteFile(path, content);

  ExploreOptions resume = options;
  resume.resume = true;
  const ExploreReport resumed = RunExplore(resume);
  EXPECT_EQ(resumed.Render(), full.Render());
  EXPECT_FALSE(resumed.jobs[2].replayed);
  bool warned = false;
  for (const Diagnostic& d : resumed.notes) {
    warned |= d.message.find("checksum mismatch") != std::string::npos;
  }
  EXPECT_TRUE(warned);
  std::remove(path.c_str());
}

// --- chaos schedule --------------------------------------------------

TEST(ChaosScheduleTest, IsAPureFunctionOfSeedAndKey) {
  const std::vector<std::string_view> sites = {"parse", "profile", "sim"};
  const std::string a = fault::ChaosSchedule(7, "engine/minimal", sites);
  EXPECT_EQ(a, fault::ChaosSchedule(7, "engine/minimal", sites));
  EXPECT_NE(a, fault::ChaosSchedule(8, "engine/minimal", sites));
  EXPECT_NE(a, fault::ChaosSchedule(7, "engine/rich", sites));
  // Every armed site comes from the menu, one-shot style site:N.
  std::stringstream arms(a);
  std::string arm;
  int count = 0;
  while (std::getline(arms, arm, ',')) {
    ++count;
    const std::size_t colon = arm.find(':');
    ASSERT_NE(colon, std::string::npos) << arm;
    const std::string site = arm.substr(0, colon);
    EXPECT_TRUE(site == "parse" || site == "profile" || site == "sim") << arm;
    const int hit = std::stoi(arm.substr(colon + 1));
    EXPECT_GE(hit, 1);
    EXPECT_LE(hit, 3);
  }
  EXPECT_GE(count, 1);
  EXPECT_LE(count, 2);
}

// A schedule names each site at most once: InstallInto keeps one arm
// per site, so a second arm for the same site would be journaled but
// could never fire. Over the sweep's 24 job keys and the sites the
// runner arms (kChaosSites in explore.cc).
TEST(ChaosScheduleTest, NamesEachSiteOnce) {
  const std::vector<std::string_view> sites = {"alloc", "profile", "sim",
                                               "schedule", "synth", "estimate"};
  for (std::uint64_t seed = 0; seed < 1000; ++seed) {
    for (const char* app : {"3d", "MPG", "ckey", "digs", "engine", "trick"}) {
      for (const char* rs : {"rs-tiny", "rs-small", "rs-medium", "rs-large"}) {
        const std::string key = std::string(app) + "/" + rs;
        const std::string spec = fault::ChaosSchedule(seed, key, sites);
        std::stringstream arms(spec);
        std::string arm;
        std::vector<std::string> named;
        while (std::getline(arms, arm, ',')) {
          const std::string site = arm.substr(0, arm.find(':'));
          ASSERT_EQ(std::count(named.begin(), named.end(), site), 0)
              << "seed " << seed << ", job " << key << ": " << spec;
          named.push_back(site);
        }
      }
    }
  }
  // The draw that once armed sim twice keeps its later, firing arm.
  EXPECT_EQ(fault::ChaosSchedule(7, "engine/rs-large", sites), "sim:1");
}

}  // namespace
}  // namespace lopass::runner
