// chiron_lint coverage: every rule fires on its fixture with the exact
// rule ID and line, well-formed suppressions neutralize, malformed ones
// are themselves violations, the scoping whitelists hold, the binary's
// exit-code contract (0 clean / 1 violations / 2 usage error) is honored,
// and — the invariant the whole tool exists for — the real src/ tree is
// lint-clean.
//
// CHIRON_LINT_FIXTURES, CHIRON_LINT_BIN and CHIRON_SRC_DIR are injected
// by tests/CMakeLists.txt.
#include "lint/lint.h"

#include <gtest/gtest.h>
#include <sys/wait.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.h"
#include "lint/config.h"
#include "lint/out.h"
#include "test_util.h"

namespace {

using chiron::lint::Violation;

std::filesystem::path fixture(const std::string& rel) {
  return std::filesystem::path(CHIRON_LINT_FIXTURES) / rel;
}

std::vector<Violation> lint_fixture(const std::string& rel) {
  return chiron::lint::lint_tree(fixture(rel));
}

// Runs the chiron_lint binary on `path` and returns its exit code.
int lint_binary_exit(const std::string& path) {
  const std::string cmd =
      std::string(CHIRON_LINT_BIN) + " '" + path + "' >/dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// First violation in `vs` carrying `rule`, or nullptr.
const Violation* find_rule(const std::vector<Violation>& vs,
                           const std::string& rule) {
  for (const auto& v : vs) {
    if (v.rule == rule) return &v;
  }
  return nullptr;
}

TEST(LintRules, Nd1FiresOnRand) {
  const auto v = lint_fixture("nd_rand.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "ND1");
  EXPECT_EQ(v[0].line, 5);
  EXPECT_EQ(lint_binary_exit(fixture("nd_rand.cpp").string()), 1);
}

TEST(LintRules, Th1FiresOnRawThread) {
  const auto v = lint_fixture("th_thread.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "TH1");
  EXPECT_EQ(v[0].line, 6);
  EXPECT_EQ(lint_binary_exit(fixture("th_thread.cpp").string()), 1);
}

TEST(LintRules, Um1FiresOnUnorderedIterationInResultPath) {
  const auto v = lint_fixture("core/um_iter.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "UM1");
  EXPECT_EQ(v[0].line, 8);
  EXPECT_EQ(lint_binary_exit(fixture("core/um_iter.cpp").string()), 1);
}

TEST(LintRules, Um1FiresInServeResultPath) {
  // serve/ joined the UM1 result paths: served prices must not depend on
  // hash-map iteration order either.
  const auto v = lint_fixture("serve/um_iter.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "UM1");
  EXPECT_EQ(lint_binary_exit(fixture("serve/um_iter.cpp").string()), 1);
}

TEST(LintRules, Um1FiresInAdversaryResultPath) {
  // src/adversary feeds audit schedules and reputation weights straight
  // into payments, so it is a UM1 result path like faults/ and core/.
  const auto v = lint_fixture("adversary/um_iter.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "UM1");
  EXPECT_EQ(lint_binary_exit(fixture("adversary/um_iter.cpp").string()), 1);
}

TEST(LintRules, Um1FiresInSysmodelResultPath) {
  // sysmodel/ prices every round — payments and Eqn 15/16 aggregates go
  // straight into rewards, so it is a UM1 result path like core/.
  const auto v = lint_fixture("sysmodel/um_iter.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "UM1");
  EXPECT_EQ(lint_binary_exit(fixture("sysmodel/um_iter.cpp").string()), 1);
}

TEST(LintRules, Hg1FiresOnUnguardedHeader) {
  const auto v = lint_fixture("hdr_unguarded.h");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "HG1");
  EXPECT_EQ(v[0].line, 1);
  EXPECT_EQ(lint_binary_exit(fixture("hdr_unguarded.h").string()), 1);
}

TEST(LintRules, Fp1FiresOnSilentNarrowingInAccountingTu) {
  const auto v = lint_fixture("core/env.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "FP1");
  EXPECT_EQ(v[0].line, 8);
  EXPECT_EQ(lint_binary_exit(fixture("core/env.cpp").string()), 1);
}

TEST(LintRules, Sp1FiresOnReasonlessSuppressionAndDoesNotSuppress) {
  const auto v = lint_fixture("sp_missing_reason.cpp");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rule, "SP1");
  EXPECT_EQ(v[0].line, 7);
  EXPECT_EQ(v[1].rule, "ND1") << "a reasonless allow() must not suppress";
  EXPECT_EQ(v[1].line, 7);
  EXPECT_EQ(lint_binary_exit(fixture("sp_missing_reason.cpp").string()), 1);
}

TEST(LintScoping, WellFormedSuppressionNeutralizes) {
  EXPECT_TRUE(lint_fixture("clean/suppressed_ok.cpp").empty());
  EXPECT_EQ(lint_binary_exit(fixture("clean/suppressed_ok.cpp").string()), 0);
}

TEST(LintScoping, RuntimeDirectoryMayUseRawThreads) {
  EXPECT_TRUE(lint_fixture("runtime/thread_ok.cpp").empty());
}

TEST(LintScoping, ObsClockTuMayReadSteadyClock) {
  // obs/clock.cpp is the single sanctioned wall-clock TU; the identical
  // line anywhere else stays an ND1 violation.
  EXPECT_TRUE(lint_fixture("obs/clock.cpp").empty());
  const auto v = chiron::lint::lint_source(
      "obs/metrics.cpp", "#include <chrono>\nauto t = std::chrono::steady_clock::now();\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "ND1");
}

TEST(LintScoping, CommentsAndStringsNeverMatch) {
  EXPECT_TRUE(lint_fixture("clean/comments_and_strings.cpp").empty());
}

TEST(LintScoping, NarrowingRuleOnlyAppliesToAccountingTus) {
  // The same narrowing body outside core/env.cpp|core/mechanism.cpp is
  // out of FP1's scope.
  const auto v = chiron::lint::lint_source(
      "nn/linear.cpp", "double d();\nfloat f() { float r = d(); return r; }\n");
  EXPECT_TRUE(v.empty());
}

TEST(LintRules, Lk1FiresOnGemmCallUnderLock) {
  const auto v = lint_fixture("serve/lock_gemm.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "LK1");
  EXPECT_EQ(v[0].line, 10);
  EXPECT_NE(v[0].message.find("matmul"), std::string::npos);
  EXPECT_NE(v[0].message.find("mu_"), std::string::npos);
  EXPECT_EQ(lint_binary_exit(fixture("serve/lock_gemm.cpp").string()), 1);
}

TEST(LintRules, Lk2FiresOnUndeclaredLock) {
  const auto v = lint_fixture("serve/lock_order.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "LK2");
  EXPECT_EQ(v[0].line, 9);
  EXPECT_NE(v[0].message.find("io_mu_"), std::string::npos);
  EXPECT_EQ(lint_binary_exit(fixture("serve/lock_order.cpp").string()), 1);
}

TEST(LintRules, Lk2FiresOnHierarchyInversion) {
  // Custom hierarchy: outer_mu_ must be taken before inner_mu_. Acquiring
  // outer_mu_ while inner_mu_ is held inverts the declared order.
  chiron::lint::Config config = chiron::lint::default_config();
  config.lock_hierarchy = {"outer_mu_", "inner_mu_"};
  const auto v = chiron::lint::lint_source(
      "serve/inverted.cpp",
      "#include <mutex>\n"
      "std::mutex outer_mu_;\n"
      "std::mutex inner_mu_;\n"
      "void f() {\n"
      "  std::lock_guard<std::mutex> a(inner_mu_);\n"
      "  std::lock_guard<std::mutex> b(outer_mu_);\n"
      "}\n",
      config);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "LK2");
  EXPECT_EQ(v[0].line, 6);
  EXPECT_NE(v[0].message.find("inverts"), std::string::npos);
  // The same two acquisitions in declared order are clean.
  const auto ok = chiron::lint::lint_source(
      "serve/ordered.cpp",
      "#include <mutex>\n"
      "std::mutex outer_mu_;\n"
      "std::mutex inner_mu_;\n"
      "void f() {\n"
      "  std::lock_guard<std::mutex> a(outer_mu_);\n"
      "  std::lock_guard<std::mutex> b(inner_mu_);\n"
      "}\n",
      config);
  EXPECT_TRUE(ok.empty());
}

TEST(LintRules, Lk1ClearsWhenGuardScopeCloses) {
  // The guard dies with its scope: a compute call after the closing brace
  // is legal.
  const auto v = chiron::lint::lint_source(
      "serve/scoped.cpp",
      "#include <mutex>\n"
      "std::mutex mu_;\n"
      "void f() {\n"
      "  { std::lock_guard<std::mutex> lock(mu_); }\n"
      "  matmul(nullptr, nullptr, nullptr);\n"
      "}\n");
  EXPECT_TRUE(v.empty());
}

TEST(LintRules, Al1FiresInsideHotRegion) {
  const auto v = lint_fixture("hot/alloc.cpp");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "AL1");
  EXPECT_EQ(v[0].line, 7);
  EXPECT_NE(v[0].message.find("push_back"), std::string::npos);
  EXPECT_NE(v[0].message.find("fixture-loop"), std::string::npos);
  EXPECT_EQ(lint_binary_exit(fixture("hot/alloc.cpp").string()), 1);
}

TEST(LintRules, Al1AllocationOutsideRegionIsFine) {
  const auto v = chiron::lint::lint_source(
      "nn/buf.cpp",
      "#include <vector>\n"
      "void f(std::vector<double>& xs) {\n"
      "  xs.push_back(1.0);\n"
      "  // chiron-hot-begin(loop)\n"
      "  double s = 0;\n"
      "  // chiron-hot-end(loop)\n"
      "  xs.push_back(s);\n"
      "}\n");
  EXPECT_TRUE(v.empty());
}

TEST(LintRules, Al1SuppressionNeutralizes) {
  const auto v = chiron::lint::lint_source(
      "nn/buf.cpp",
      "void f(Tensor& t) {\n"
      "  // chiron-hot-begin(loop)\n"
      "  t.resize(shape);  // chiron-lint: allow(AL1): resize reuses capacity\n"
      "  // chiron-hot-end(loop)\n"
      "}\n");
  EXPECT_TRUE(v.empty());
}

TEST(LintRules, Sp1FiresOnMalformedHotMarkers) {
  // Unclosed region.
  auto v = chiron::lint::lint_source(
      "x.cpp", "// chiron-hot-begin(loop)\nint a;\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "SP1");
  EXPECT_NE(v[0].message.find("never closed"), std::string::npos);
  // Mismatched end name: the end is rejected AND the region stays open,
  // so both SP1s surface (mismatch at line 3, never-closed at line 1).
  v = chiron::lint::lint_source(
      "x.cpp",
      "// chiron-hot-begin(loop)\nint a;\n// chiron-hot-end(other)\n");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rule, "SP1");
  EXPECT_NE(v[0].message.find("never closed"), std::string::npos);
  EXPECT_EQ(v[1].rule, "SP1");
  EXPECT_NE(v[1].message.find("does not match"), std::string::npos);
  // Bare marker without a name.
  v = chiron::lint::lint_source("x.cpp", "// chiron-hot-begin\nint a;\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "SP1");
  // Prose mentioning the marker mid-comment is not a marker.
  v = chiron::lint::lint_source(
      "x.cpp", "// regions use chiron-hot-begin(name) markers\nint a;\n");
  EXPECT_TRUE(v.empty());
}

TEST(LintCrossTu, Ly1FiresOnCoreToServeBackedge) {
  const auto v = chiron::lint::lint_tree(fixture(""));
  const Violation* ly1 = find_rule(v, "LY1");
  ASSERT_NE(ly1, nullptr);
  EXPECT_EQ(ly1->file, "core/uses_serve.cpp");
  EXPECT_EQ(ly1->line, 4);
  EXPECT_NE(ly1->message.find("backedge"), std::string::npos);
  EXPECT_NE(ly1->message.find("serve/svc.h"), std::string::npos);
}

TEST(LintCrossTu, Ly2FiresOnIncludeCycle) {
  const auto v = chiron::lint::lint_tree(fixture(""));
  const Violation* ly2 = find_rule(v, "LY2");
  ASSERT_NE(ly2, nullptr);
  EXPECT_EQ(ly2->file, "common/cycle_b.h");
  EXPECT_EQ(ly2->line, 4);
  EXPECT_NE(ly2->message.find(
                "common/cycle_a.h -> common/cycle_b.h -> common/cycle_a.h"),
            std::string::npos);
}

TEST(LintCrossTu, TreeOutputIsDeterministic) {
  const auto a = chiron::lint::lint_tree(fixture(""));
  const auto b = chiron::lint::lint_tree(fixture(""));
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(chiron::lint::to_string(a[i]), chiron::lint::to_string(b[i]));
  }
}

TEST(LintConfig, LayersTomlRoundTripsAndMatchesBuiltIn) {
  const chiron::lint::Config shipped =
      chiron::lint::load_config(CHIRON_LAYERS_TOML);
  // parse(to_toml(c)) == c, compared through the canonical serialization.
  const std::string canon = chiron::lint::to_toml(shipped);
  EXPECT_EQ(chiron::lint::to_toml(chiron::lint::parse_config(canon)), canon);
  // The built-in fallback must stay in lockstep with the checked-in file.
  EXPECT_EQ(chiron::lint::to_toml(chiron::lint::default_config()), canon);
}

TEST(LintConfig, MalformedTomlIsAnInvariantError) {
  EXPECT_THROW(chiron::lint::parse_config("layers = {bad}\n"),
               chiron::InvariantError);
  EXPECT_THROW(chiron::lint::parse_config("[layers]\ncore = notanumber\n"),
               chiron::InvariantError);
}

TEST(LintOutput, JsonListsEveryFinding) {
  const auto v = lint_fixture("nd_rand.cpp");
  const std::string json = chiron::lint::to_json(v);
  EXPECT_NE(json.find("\"rule\":\"ND1\""), std::string::npos);
  EXPECT_NE(json.find("\"line\":5"), std::string::npos);
  EXPECT_EQ(chiron::lint::to_json({}), "[]\n");
}

TEST(LintOutput, SarifHasRequiredStructure) {
  const auto v = chiron::lint::lint_tree(fixture(""));
  ASSERT_FALSE(v.empty());
  const std::string sarif = chiron::lint::to_sarif(v);
  // The SARIF 2.1.0 minimal profile: schema + version, one run with a
  // named driver, every rule registered, one result per violation with a
  // physical location.
  EXPECT_NE(sarif.find("\"$schema\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
  EXPECT_NE(sarif.find("\"version\": \"2.1.0\""), std::string::npos);
  EXPECT_NE(sarif.find("\"name\": \"chiron_lint\""), std::string::npos);
  for (const auto& id : chiron::lint::rule_ids()) {
    EXPECT_NE(sarif.find("{\"id\": \"" + id + "\"}"), std::string::npos);
  }
  std::size_t results = 0;
  for (std::size_t pos = sarif.find("\"ruleId\""); pos != std::string::npos;
       pos = sarif.find("\"ruleId\"", pos + 1)) {
    ++results;
  }
  EXPECT_EQ(results, v.size());
  EXPECT_EQ(sarif.find("\"startLine\": 0"), std::string::npos)
      << "SARIF regions are 1-based";
}

TEST(LintBaseline, DiffSubtractsExactlyTheBaselinedFindings) {
  const auto v = chiron::lint::lint_tree(fixture(""));
  ASSERT_GE(v.size(), 2u);
  // A baseline of everything → no new findings.
  const auto full =
      chiron::lint::parse_baseline(chiron::lint::write_baseline(v));
  EXPECT_TRUE(chiron::lint::diff_baseline(v, full).empty());
  // Remove one fingerprint → exactly that finding is new again.
  auto partial = full;
  const chiron::lint::Fingerprint dropped = partial.back();
  partial.pop_back();
  const auto fresh = chiron::lint::diff_baseline(v, partial);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[0].file, dropped.file);
  EXPECT_EQ(fresh[0].rule, dropped.rule);
  EXPECT_EQ(fresh[0].message, dropped.message);
  // An empty baseline subtracts nothing.
  EXPECT_EQ(chiron::lint::diff_baseline(v, {}).size(), v.size());
}

TEST(LintBaseline, MangledBaselineIsAnInvariantError) {
  EXPECT_THROW(chiron::lint::parse_baseline("not json"),
               chiron::InvariantError);
  EXPECT_THROW(chiron::lint::parse_baseline("[{\"file\":\"x\"}]"),
               chiron::InvariantError)
      << "an entry without a rule must be rejected";
  EXPECT_THROW(chiron::lint::parse_baseline("[] trailing"),
               chiron::InvariantError);
  EXPECT_TRUE(chiron::lint::parse_baseline("[]\n").empty());
}

TEST(LintBaseline, BinaryGatesOnNewFindingsOnly) {
  const std::filesystem::path base =
      chiron::testing_util::temp_path("lint_base.json");
  std::string cmd = std::string(CHIRON_LINT_BIN) + " '" +
                    fixture("").string() + "' --write-baseline '" +
                    base.string() + "' >/dev/null 2>&1";
  int status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0);
  cmd = std::string(CHIRON_LINT_BIN) + " '" + fixture("").string() +
        "' --baseline '" + base.string() + "' >/dev/null 2>&1";
  status = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(status));
  EXPECT_EQ(WEXITSTATUS(status), 0)
      << "a fully baselined tree must gate clean";
  std::filesystem::remove(base);
}

TEST(LintBinary, WholeFixtureTreeReportsEveryRule) {
  const auto v = chiron::lint::lint_tree(fixture(""));
  std::vector<std::string> ids;
  ids.reserve(v.size());
  for (const auto& viol : v) ids.push_back(viol.rule);
  for (const auto& rule : chiron::lint::rule_ids()) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), rule), ids.end())
        << "fixture tree is missing a " << rule << " violation";
  }
  EXPECT_EQ(lint_binary_exit(fixture("").string()), 1);
}

TEST(LintBinary, MissingPathIsAUsageError) {
  EXPECT_EQ(lint_binary_exit(fixture("no_such_dir").string()), 2);
}

TEST(LintBinary, BinaryInputIsANamedUsageError) {
  // A NUL byte marks the file as non-source; linting it must fail loudly
  // (exit 2 with a named error), never report a silent zero findings.
  const std::filesystem::path p =
      chiron::testing_util::temp_path("lint_bin.cpp");
  {
    std::ofstream out(p, std::ios::binary);
    out << "int x;\0garbage" << std::string(1, '\0') << "more";
  }
  EXPECT_EQ(lint_binary_exit(p.string()), 2);
  try {
    chiron::lint::lint_file(p, "bin.cpp");
    FAIL() << "binary input must throw";
  } catch (const chiron::InvariantError& e) {
    EXPECT_NE(std::string(e.what()).find("binary input"), std::string::npos);
  }
  std::filesystem::remove(p);
}

TEST(LintSuppress, CrlfLineEndingsAreTolerated) {
  const auto v = chiron::lint::lint_source(
      "x.cpp",
      "int f() {\r\n"
      "  return rand();  // chiron-lint: allow(ND1): fixture reason\r\n"
      "}\r\n");
  EXPECT_TRUE(v.empty()) << "a CRLF tail must not invalidate the reason";
}

TEST(LintSuppress, TrailingWhitespaceAfterReasonIsTolerated) {
  const auto v = chiron::lint::lint_source(
      "x.cpp",
      "int f() { return rand(); }  // chiron-lint: allow(ND1): reason \t \n");
  EXPECT_TRUE(v.empty());
}

TEST(LintSuppress, SuppressionOnLastLineWithoutNewlineWorks) {
  const auto v = chiron::lint::lint_source(
      "x.cpp",
      "int f() { return rand(); }  // chiron-lint: allow(ND1): last line");
  EXPECT_TRUE(v.empty());
}

TEST(LintSuppress, StandaloneSuppressionCoversNextLineOnly) {
  const auto v = chiron::lint::lint_source(
      "x.cpp",
      "// chiron-lint: allow(ND1): covers the next line\n"
      "int f() { return rand(); }\n"
      "int g() { return rand(); }\n");
  ASSERT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0].rule, "ND1");
  EXPECT_EQ(v[0].line, 3);
}

TEST(LintSuppress, UnknownRuleInAllowIsSp1AndSuppressesNothing) {
  const auto v = chiron::lint::lint_source(
      "x.cpp",
      "int f() { return rand(); }  // chiron-lint: allow(ZZ9): why not\n");
  ASSERT_EQ(v.size(), 2u);
  EXPECT_EQ(v[0].rule, "SP1");
  EXPECT_NE(v[0].message.find("unknown rule 'ZZ9'"), std::string::npos);
  EXPECT_EQ(v[1].rule, "ND1");
}

TEST(LintTree, RealSourceTreeIsClean) {
  const auto v = chiron::lint::lint_tree(CHIRON_SRC_DIR);
  for (const auto& viol : v) ADD_FAILURE() << chiron::lint::to_string(viol);
  EXPECT_EQ(lint_binary_exit(CHIRON_SRC_DIR), 0);
}

}  // namespace
