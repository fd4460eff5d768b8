// Mutation oracle for the frontend's totality: token-level mutants of
// every shipped DSL program go through the compiler, lint and, when
// they compile, the partitioning flow. Each must end in diagnostics or
// a lopass::Error, never in an internal invariant (a LOPASS_CHECK that
// source text reached).

#include <algorithm>
#include <cinttypes>
#include <cstddef>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/manager.h"
#include "apps/app.h"
#include "common/error.h"
#include "common/prng.h"
#include "core/partitioner.h"
#include "dsl/lexer.h"
#include "dsl/lower.h"

namespace lopass {
namespace {

using dsl::Token;
using dsl::TokKind;

constexpr std::string_view kInvariant = "internal invariant violated";
constexpr int kMutantsPerProgram = 40;
// Fuel for the flow's simulations: enough for most mutants to finish
// with an empty workload, small enough to stop the ones that loop.
constexpr std::uint64_t kSimFuel = 200'000;

struct Program {
  std::string name;
  std::string source;
};

// The shipped `.lp` files, read from the tree, then the six
// applications' sources.
std::vector<Program> Corpus() {
  std::vector<Program> corpus;
  for (const char* dir :
       {LOPASS_EXAMPLES_DIR, LOPASS_TEST_DATA_DIR, LOPASS_TEST_DATA_DIR "/lint"}) {
    std::vector<std::filesystem::path> files;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.path().extension() == ".lp") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const auto& path : files) {
      std::ifstream in(path);
      std::ostringstream text;
      text << in.rdbuf();
      corpus.push_back({path.filename().string(), text.str()});
    }
  }
  for (const apps::Application& app : apps::AllApplications()) {
    corpus.push_back({"app:" + app.name, app.dsl_source});
  }
  return corpus;
}

// How `t` is written in source. A literal past INT64_MAX (a hex one)
// is written in hex, so it lexes back to the same value.
std::string Spelling(const Token& t) {
  switch (t.kind) {
    case TokKind::kIdent:
      return t.text;
    case TokKind::kInt: {
      if (t.value >= 0) return std::to_string(t.value);
      char hex[24];
      std::snprintf(hex, sizeof hex, "0x%" PRIx64, static_cast<std::uint64_t>(t.value));
      return hex;
    }
    default: {
      const std::string quoted = dsl::TokKindName(t.kind);
      return quoted.substr(1, quoted.size() - 2);
    }
  }
}

// Writes the tokens back as source, one line per source line, so a
// mutant's diagnostics point near the line they came from.
std::string Render(const std::vector<Token>& toks) {
  std::string out;
  int line = toks.empty() ? 1 : toks.front().line;
  for (const Token& t : toks) {
    out += t.line != line ? '\n' : ' ';
    line = t.line;
    out += Spelling(t);
  }
  out += '\n';
  return out;
}

// The names the file declares: the identifier after each `var`,
// `array` and `func`.
std::vector<std::string> DeclaredNames(const std::vector<Token>& toks) {
  std::set<std::string> names;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const TokKind k = toks[i].kind;
    if ((k == TokKind::kVar || k == TokKind::kArray || k == TokKind::kFunc) &&
        toks[i + 1].kind == TokKind::kIdent) {
      names.insert(toks[i + 1].text);
    }
  }
  return {names.begin(), names.end()};
}

// One mutation of `toks`: delete, replace, insert or swap a token, or
// replace an identifier with another declared name.
std::vector<Token> Mutate(std::vector<Token> toks, const std::vector<std::string>& names,
                          Prng& rng) {
  const auto pick = [&] { return static_cast<std::size_t>(rng.next_below(toks.size())); };
  // A moved token takes the line of the place it lands.
  const auto moved = [](Token t, const Token& at) {
    t.line = at.line;
    return t;
  };
  const std::size_t at = pick();
  switch (rng.next_below(5)) {
    case 0:
      toks.erase(toks.begin() + static_cast<std::ptrdiff_t>(at));
      break;
    case 1:
      toks[at] = moved(toks[pick()], toks[at]);
      break;
    case 2:
      toks.insert(toks.begin() + static_cast<std::ptrdiff_t>(at), moved(toks[pick()], toks[at]));
      break;
    case 3: {
      const std::size_t other = pick();
      const Token a = toks[at];
      const Token b = toks[other];
      toks[at] = moved(b, a);
      toks[other] = moved(a, b);
      break;
    }
    default: {
      std::vector<std::size_t> idents;
      for (std::size_t i = 0; i < toks.size(); ++i) {
        if (toks[i].kind == TokKind::kIdent) idents.push_back(i);
      }
      if (idents.empty() || names.empty()) break;
      toks[idents[rng.next_below(idents.size())]].text = names[rng.next_below(names.size())];
      break;
    }
  }
  return toks;
}

// Runs one mutant through every stage. Returns the first message that
// names an internal invariant, or "" when there is none.
std::string InvariantReached(const std::string& source) {
  std::string found;
  const auto note = [&found](const std::string& message) {
    if (found.empty() && message.find(kInvariant) != std::string::npos) found = message;
  };
  const auto note_all = [&note](const std::vector<Diagnostic>& diags) {
    for (const Diagnostic& d : diags) note(d.message);
  };

  note_all(analysis::LintProgram(source, analysis::AnalysisManager{}).diagnostics);
  Result<dsl::LoweredProgram> compiled = dsl::CompileToResult(source);
  note_all(compiled.diagnostics());
  if (!compiled.ok()) return found;

  core::PartitionOptions options;
  options.max_sim_instrs = kSimFuel;
  try {
    const core::Partitioner partitioner(compiled.value().module, compiled.value().regions,
                                        options);
    note_all(partitioner.Run(core::Workload{}).diagnostics);
  } catch (const Error& e) {
    note(e.what());
  }
  return found;
}

TEST(MutationOracle, NoMutantReachesAnInternalInvariant) {
  const std::vector<Program> corpus = Corpus();
  ASSERT_GE(corpus.size(), 30u);
  Prng rng(32);
  int mutants = 0;
  int reached = 0;
  for (const Program& program : corpus) {
    DiagnosticSink lex_sink;
    std::vector<Token> toks = dsl::Tokenize(program.source, lex_sink);
    toks.pop_back();  // kEof
    ASSERT_FALSE(toks.empty()) << program.name;
    const std::vector<std::string> names = DeclaredNames(toks);
    for (int i = 0; i < kMutantsPerProgram; ++i) {
      const std::string mutant = Render(Mutate(toks, names, rng));
      ++mutants;
      const std::string message = InvariantReached(mutant);
      if (message.empty()) continue;
      // Print the first few in full; count the rest.
      if (++reached <= 3) {
        ADD_FAILURE() << "mutant " << mutants << " of " << program.name << ": " << message
                      << "\n--- source ---\n"
                      << mutant;
      }
    }
  }
  EXPECT_EQ(reached, 0) << "of " << mutants << " mutants";
}

}  // namespace
}  // namespace lopass
