// The diagnostics engine and its golden outputs: the structured
// Diagnostic/DiagnosticSink/Result<T> layer, DSL error *recovery* (all
// the errors of a bad file, with source locations, in one pass), and
// the CLI-facing fill-spec parser.

#include <gtest/gtest.h>

#include <string>

#include "common/diag.h"
#include "common/file.h"
#include "core/workload.h"
#include "dsl/lexer.h"
#include "dsl/lower.h"
#include "dsl/parser.h"

namespace lopass {
namespace {

// --- engine ------------------------------------------------------------

TEST(Diag, ToStringFormats) {
  const Diagnostic d{Severity::kError, "parse.syntax", SourceLoc{3, 7},
                     "expected ';'"};
  EXPECT_EQ(d.ToString(), "error[parse.syntax] 3:7: expected ';'");
  const Diagnostic no_loc{Severity::kWarning, "sched.cap", SourceLoc{}, "capped"};
  EXPECT_EQ(no_loc.ToString(), "warning[sched.cap]: capped");
}

TEST(Diag, SinkCountsAndSeverities) {
  DiagnosticSink sink;
  EXPECT_FALSE(sink.has_errors());
  sink.AddNote("a.b", "note");
  sink.AddWarning("a.b", "warn");
  EXPECT_FALSE(sink.has_errors());
  sink.AddError("a.b", "err", SourceLoc{2, 1});
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.error_count(), 1u);
  EXPECT_EQ(sink.diagnostics().size(), 3u);
}

TEST(Diag, SinkIsBoundedButKeepsCounting) {
  DiagnosticSink sink;
  for (std::size_t i = 0; i < kMaxDiagnostics + 3; ++i) {
    std::string message = "e";
    message += std::to_string(i);
    sink.AddError("x.y", message);
  }
  EXPECT_EQ(sink.diagnostics().size(), kMaxDiagnostics);
  EXPECT_EQ(sink.error_count(), kMaxDiagnostics + 3);
  const std::string overflow = "error[diag.overflow]: 3 finding(s) past the first " +
                               std::to_string(kMaxDiagnostics) + " were dropped";
  const std::string text = sink.ToString();
  EXPECT_EQ(text.substr(text.rfind('\n') + 1), overflow);

  // Take() ends with the same error, once, and empties the sink.
  const std::vector<Diagnostic> taken = sink.Take();
  ASSERT_EQ(taken.size(), kMaxDiagnostics + 1);
  std::string last_kept = "e";
  last_kept += std::to_string(kMaxDiagnostics - 1);
  EXPECT_EQ(taken[kMaxDiagnostics - 1].message, last_kept);
  EXPECT_EQ(taken.back().ToString(), overflow);
  EXPECT_EQ(sink.error_count(), 0u);
  EXPECT_TRUE(sink.Take().empty());
}

TEST(Diag, ResultValueAndFailure) {
  Result<int> ok = 42;
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 42);
  EXPECT_EQ(ok.ValueOrThrow(), 42);

  Result<int> bad = Result<int>::Failure(
      Diagnostic{Severity::kError, "t.f", SourceLoc{1, 2}, "nope"});
  EXPECT_FALSE(bad.ok());
  ASSERT_EQ(bad.diagnostics().size(), 1u);
  EXPECT_THROW(bad.ValueOrThrow(), Error);
}

// --- golden malformed-DSL diagnostics ----------------------------------

std::vector<Diagnostic> CompileDiags(const std::string& src) {
  Result<dsl::LoweredProgram> r = dsl::CompileToResult(src);
  EXPECT_FALSE(r.ok()) << "expected compilation to fail";
  return r.diagnostics();
}

TEST(DiagGolden, UnterminatedStringLiteral) {
  const auto diags = CompileDiags(
      "var x;\n"
      "func main() {\n"
      "  x = \"oops;\n"
      "  return x;\n"
      "}\n");
  ASSERT_FALSE(diags.empty());
  const Diagnostic& d = diags.front();
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_EQ(d.code, "lex.invalid");
  EXPECT_EQ(d.message, "unterminated string literal");
  EXPECT_EQ(d.loc.line, 3);
  EXPECT_EQ(d.loc.col, 7);
}

TEST(DiagGolden, StringLiteralsRejectedWithLocation) {
  const auto diags = CompileDiags(
      "var x;\n"
      "func main() { x = \"hi\"; return x; }\n");
  ASSERT_FALSE(diags.empty());
  EXPECT_EQ(diags.front().code, "lex.invalid");
  EXPECT_EQ(diags.front().message,
            "string literals are not supported in the lopass DSL");
  EXPECT_EQ(diags.front().loc.line, 2);
}

TEST(DiagGolden, UnknownIdentifier) {
  const auto diags = CompileDiags(
      "var x;\n"
      "func main() {\n"
      "  x = nonesuch + 1;\n"
      "  return x;\n"
      "}\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "lower.semantic");
  EXPECT_EQ(diags[0].message, "undeclared identifier 'nonesuch'");
  EXPECT_EQ(diags[0].loc.line, 3);
}

TEST(DiagGolden, DuplicateGlobal) {
  const auto diags = CompileDiags(
      "var x;\n"
      "array x[4];\n"
      "func main() { return 0; }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "lower.semantic");
  EXPECT_EQ(diags[0].message, "duplicate global 'x'");
  EXPECT_EQ(diags[0].loc.line, 2);
}

TEST(DiagGolden, DuplicateFunction) {
  const auto diags = CompileDiags(
      "func main() { return 0; }\n"
      "\n"
      "func main() { return 1; }\n");
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].code, "lower.semantic");
  EXPECT_EQ(diags[0].message, "duplicate function 'main'");
  EXPECT_EQ(diags[0].loc.line, 3);
}

TEST(DiagGolden, RecoveryReportsEverySyntaxError) {
  // Two independent statement-level syntax errors: recovery must
  // synchronize past the first and still find the second.
  const auto diags = CompileDiags(
      "var a; var b;\n"
      "func main() {\n"
      "  a = 1 +;\n"
      "  b = 2;\n"
      "  b = * 3;\n"
      "  return a + b;\n"
      "}\n");
  ASSERT_GE(diags.size(), 2u);
  for (const Diagnostic& d : diags) {
    EXPECT_EQ(d.severity, Severity::kError);
    EXPECT_EQ(d.code, "parse.syntax");
  }
  EXPECT_EQ(diags[0].loc.line, 3);
  EXPECT_EQ(diags[1].loc.line, 5);
}

TEST(DiagGolden, RecoveryKeepsEveryErrorPastSixtyFour) {
  std::string src;
  ASSERT_TRUE(ReadFile(std::string(LOPASS_TEST_DATA_DIR) + "/eighty_syntax_errors.lp", src,
                       "input"));
  const auto diags = CompileDiags(src);
  ASSERT_EQ(diags.size(), 80u);
  for (std::size_t i = 0; i < diags.size(); ++i) {
    EXPECT_EQ(diags[i].code, "parse.syntax");
    EXPECT_EQ(diags[i].loc.line, static_cast<int>(i) + 6);
  }
}

TEST(DiagGolden, RecoveryNeverLoopsOnGarbage) {
  // Pathological soup: must terminate with diagnostics, not hang.
  const auto diags = CompileDiags("func { } } ) ( ; ; @ # $ func var }{");
  EXPECT_FALSE(diags.empty());
}

TEST(DiagGolden, CompileThrowsTheRecoveredDiagnostics) {
  try {
    (void)dsl::Compile("func main( { return 0; }");
    ADD_FAILURE() << "expected dsl::Compile to throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("error[parse.syntax] 1:"), std::string::npos)
        << e.what();
  }
  DiagnosticSink sink;
  (void)dsl::Tokenize("func main() { @ }", sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.diagnostics()[0].ToString(), "error[lex.invalid] 1:15: unexpected character '@'");
}

// --- fill-spec parsing (the CLI's --fill) ------------------------------

TEST(FillSpec, RampAndRandParse) {
  Result<core::FillSpec> ramp = core::ParseFillSpec("a=ramp:4:3");
  ASSERT_TRUE(ramp.ok());
  EXPECT_EQ(ramp.value().name, "a");
  EXPECT_EQ(ramp.value().values, (std::vector<std::int64_t>{0, 3, 6, 9}));

  Result<core::FillSpec> rand = core::ParseFillSpec("sig=rand:16:-5:5:99");
  ASSERT_TRUE(rand.ok());
  EXPECT_EQ(rand.value().values.size(), 16u);
  for (std::int64_t v : rand.value().values) {
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
  // Deterministic per seed.
  Result<core::FillSpec> again = core::ParseFillSpec("sig=rand:16:-5:5:99");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(rand.value().values, again.value().values);
}

TEST(FillSpec, GoldenBadSpecs) {
  struct Case {
    const char* spec;
    const char* message;
  };
  const Case cases[] = {
      {"noequals", "fill spec 'noequals' is missing '=' (want NAME=KIND:...)"},
      {"a=wave:4", "unknown fill kind 'wave' for 'a' (want rand or ramp)"},
      {"a=rand:4:1", "rand fill for 'a' wants rand:COUNT:LO:HI[:SEED], got 'rand:4:1'"},
      {"a=rand:many:0:9", "rand fill for 'a': COUNT 'many' is not an integer"},
      {"a=rand:4:9:0", "rand fill for 'a': LO 9 exceeds HI 0"},
      {"a=ramp:-3", "ramp fill for 'a': COUNT -3 out of range [0, 16777216]"},
      {"a=ramp:4:x", "ramp fill for 'a': STEP 'x' is not an integer"},
      {"=ramp:4", "fill spec '=ramp:4' has an empty array name"},
  };
  for (const Case& c : cases) {
    Result<core::FillSpec> r = core::ParseFillSpec(c.spec);
    ASSERT_FALSE(r.ok()) << c.spec;
    ASSERT_EQ(r.diagnostics().size(), 1u) << c.spec;
    EXPECT_EQ(r.diagnostics()[0].code, "cli.fill") << c.spec;
    EXPECT_EQ(r.diagnostics()[0].message, c.message) << c.spec;
  }
}

}  // namespace
}  // namespace lopass
