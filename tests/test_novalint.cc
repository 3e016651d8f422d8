/**
 * @file
 * nova-lint rule tests: every rule must fire on its violating fixture
 * at the expected location, stay quiet on the clean fixture, and honour
 * the suppression-comment syntax.
 *
 * Fixtures live in tests/lint_fixtures (NOVA_LINT_FIXTURE_DIR). Expected
 * lines are located by searching the fixture text for a marker substring
 * so the fixtures can be edited without breaking line-number literals.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint.hh"
#include "sarif.hh"

namespace
{

using nova::lint::Diagnostic;
using nova::lint::lintFiles;
using nova::lint::SourceFile;

std::string
readFixture(const std::string &name)
{
    const std::string path = std::string(NOVA_LINT_FIXTURE_DIR) + "/" + name;
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "missing fixture " << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::vector<Diagnostic>
lintFixtures(const std::vector<std::string> &names)
{
    std::vector<SourceFile> files;
    for (const std::string &name : names)
        files.push_back({name, readFixture(name)});
    return lintFiles(files);
}

/** 1-based line of the first occurrence of `marker` in `text`. */
int
lineOf(const std::string &text, const std::string &marker)
{
    const std::size_t at = text.find(marker);
    EXPECT_NE(at, std::string::npos) << "marker not found: " << marker;
    if (at == std::string::npos)
        return -1;
    return 1 + static_cast<int>(
                   std::count(text.begin(), text.begin() + at, '\n'));
}

/** Expect exactly one diagnostic, with the given rule at marker's line. */
void
expectSingle(const std::string &fixture, const std::string &rule,
             const std::string &marker)
{
    SCOPED_TRACE(fixture);
    const std::string text = readFixture(fixture);
    const auto diags = lintFiles({{fixture, text}});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, rule);
    EXPECT_EQ(diags[0].file, fixture);
    EXPECT_EQ(diags[0].line, lineOf(text, marker));
}

void
expectClean(const std::vector<std::string> &fixtures)
{
    const auto diags = lintFixtures(fixtures);
    for (const Diagnostic &d : diags)
        ADD_FAILURE() << nova::lint::formatDiagnostic(d);
}

TEST(NovaLint, CaptureDefaultFires)
{
    expectSingle("capture_default_bad.cc", "capture-default", "[&]");
}

TEST(NovaLint, CaptureDefaultClean)
{
    expectClean({"capture_default_ok.cc"});
}

TEST(NovaLint, UnorderedIterationFires)
{
    expectSingle("unordered_iteration_bad.cc", "unordered-iteration",
                 "for (const auto &kv : pending)");
}

TEST(NovaLint, UnorderedIterationClean)
{
    expectClean({"unordered_iteration_ok.cc"});
}

TEST(NovaLint, WallClockFires)
{
    const std::string text = readFixture("wall_clock_bad.cc");
    const auto diags = lintFiles({{"wall_clock_bad.cc", text}});
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "wall-clock");
    EXPECT_EQ(diags[0].line, lineOf(text, "random_device rd"));
    EXPECT_EQ(diags[1].rule, "wall-clock");
    EXPECT_EQ(diags[1].line, lineOf(text, "steady_clock::now"));
}

TEST(NovaLint, WallClockClean)
{
    expectClean({"wall_clock_ok.cc"});
}

TEST(NovaLint, RawNewFires)
{
    expectSingle("raw_new_bad.cc", "raw-new", "new Widget");
}

TEST(NovaLint, RawNewClean)
{
    expectClean({"raw_new_ok.cc"});
}

TEST(NovaLint, TickArithFires)
{
    expectSingle("tick_arith_bad.cc", "tick-arith", "eq.now() + 100");
}

TEST(NovaLint, TickArithClean)
{
    expectClean({"tick_arith_ok.cc"});
}

TEST(NovaLint, UnregisteredStatFires)
{
    const std::string hh = readFixture("unregistered_stat_bad.hh");
    const std::string cc = readFixture("unregistered_stat_bad.cc");
    const auto diags = lintFiles({{"unregistered_stat_bad.hh", hh},
                                  {"unregistered_stat_bad.cc", cc}});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "unregistered-stat");
    EXPECT_EQ(diags[0].file, "unregistered_stat_bad.hh");
    EXPECT_EQ(diags[0].line, lineOf(hh, "Scalar misses"));
    EXPECT_NE(diags[0].message.find("'misses'"), std::string::npos);
}

TEST(NovaLint, UnregisteredStatClean)
{
    expectClean({"unregistered_stat_ok.hh", "unregistered_stat_ok.cc"});
}

TEST(NovaLint, UsingNamespaceStdFires)
{
    expectSingle("using_namespace_std_bad.hh", "using-namespace-std",
                 "using namespace std");
}

TEST(NovaLint, UsingNamespaceStdClean)
{
    expectClean({"using_namespace_std_ok.hh"});
}

TEST(NovaLint, VirtualDtorFires)
{
    expectSingle("virtual_dtor_bad.hh", "virtual-dtor", "class Model");
}

TEST(NovaLint, VirtualDtorClean)
{
    expectClean({"virtual_dtor_ok.hh"});
}

TEST(NovaLint, AssertSideEffectFires)
{
    expectSingle("assert_side_effect_bad.cc", "assert-side-effect",
                 "NOVA_ASSERT(i++");
}

TEST(NovaLint, AssertSideEffectClean)
{
    expectClean({"assert_side_effect_ok.cc"});
}

TEST(NovaLint, IncludeGuardFires)
{
    expectSingle("include_guard_bad.hh", "include-guard",
                 "#ifndef LINT_FIXTURE_WRONG_GUARD_H");
}

TEST(NovaLint, IncludeGuardClean)
{
    expectClean({"include_guard_ok.hh"});
}

TEST(NovaLint, SilentCatchFires)
{
    const std::string text = readFixture("silent_catch_bad.cc");
    const auto diags = lintFiles({{"silent_catch_bad.cc", text}});
    ASSERT_EQ(diags.size(), 2u);
    EXPECT_EQ(diags[0].rule, "silent-catch");
    EXPECT_EQ(diags[0].line, lineOf(text, "catch (...)"));
    EXPECT_NE(diags[0].message.find("catch (...)"), std::string::npos);
    EXPECT_EQ(diags[1].rule, "silent-catch");
    EXPECT_EQ(diags[1].line, lineOf(text, "catch (const std::exception"));
    EXPECT_NE(diags[1].message.find("empty catch body"),
              std::string::npos);
}

TEST(NovaLint, SilentCatchClean)
{
    expectClean({"silent_catch_ok.cc"});
}

TEST(NovaLint, SilentCatchCatchAllWithRethrowIsFine)
{
    const SourceFile f{
        "inline.cc",
        "void f() {\n"
        "    try {\n"
        "        g();\n"
        "    } catch (...) {\n"
        "        cleanup();\n"
        "        throw;\n"
        "    }\n"
        "}\n"};
    const auto diags = lintFiles({f});
    for (const Diagnostic &d : diags)
        ADD_FAILURE() << nova::lint::formatDiagnostic(d);
}

TEST(NovaLint, ShardSafetyStaticFires)
{
    expectSingle("shard_safety_static_bad.cc", "shard-safety",
                 "std::uint64_t deliveredCount = 0;");
}

TEST(NovaLint, ShardSafetyScheduleFires)
{
    expectSingle("shard_safety_schedule_bad.cc", "shard-safety",
                 "sched.shard(1).schedule(when");
}

TEST(NovaLint, ShardSafetyAnnotatedClean)
{
    expectClean({"shard_safety_annotated_ok.cc"});
}

TEST(NovaLint, ShardSafetyGuardedClean)
{
    expectClean({"shard_safety_guarded_ok.cc"});
}

TEST(NovaLint, DeterminismTaintLoopFires)
{
    expectSingle("determinism_taint_loop_bad.cc", "determinism-taint",
                 "fp = mixFingerprint(fp, kv.second);");
}

TEST(NovaLint, DeterminismTaintPropagationFires)
{
    expectSingle("determinism_taint_pointer_bad.cc", "determinism-taint",
                 "saveGroupStats(order);");
}

TEST(NovaLint, DeterminismTaintSortedClean)
{
    expectClean({"determinism_taint_sorted_ok.cc"});
}

TEST(NovaLint, DeterminismTaintOrderedClean)
{
    expectClean({"determinism_taint_ordered_ok.cc"});
}

TEST(NovaLint, DeterminismTaintPointerHashFires)
{
    const SourceFile f{
        "inline.cc",
        "#include <functional>\n"
        "struct V;\n"
        "std::size_t h(V *v) {\n"
        "    return std::hash<V *>{}(v);\n"
        "}\n"};
    const auto diags = lintFiles({f});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "determinism-taint");
    EXPECT_EQ(diags[0].line, 4);
}

TEST(NovaLint, DeterminismTaintPointerPrintFires)
{
    const SourceFile f{
        "inline.cc",
        "#include <cstdio>\n"
        "struct V;\n"
        "void dump(V *v) {\n"
        "    std::printf(\"vertex at %p\\n\", (void *)v);\n"
        "}\n"};
    const auto diags = lintFiles({f});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "determinism-taint");
    EXPECT_EQ(diags[0].line, 4);
}

TEST(NovaLint, ReductionOrderFires)
{
    expectSingle("reduction_order_bad.cc", "reduction-order",
                 "total += sh.energy;");
}

TEST(NovaLint, ReductionOrderAccumulateFires)
{
    expectSingle("reduction_order_accumulate_bad.cc", "reduction-order",
                 "std::accumulate(perShard.begin()");
}

TEST(NovaLint, ReductionOrderAnnotatedClean)
{
    expectClean({"reduction_order_annotated_ok.cc"});
}

TEST(NovaLint, ReductionOrderIntegerClean)
{
    expectClean({"reduction_order_int_ok.cc"});
}

TEST(NovaLint, RawExitFires)
{
    expectSingle("raw_exit_bad.cc", "raw-exit", "std::exit(2);");
}

TEST(NovaLint, RawExitClean)
{
    expectClean({"raw_exit_ok.cc"});
}

TEST(NovaLint, BadAnnotationFires)
{
    const std::string text = readFixture("bad_annotation_bad.cc");
    const auto diags = lintFiles({{"bad_annotation_bad.cc", text}});
    ASSERT_EQ(diags.size(), 4u);
    for (const Diagnostic &d : diags)
        EXPECT_EQ(d.rule, "bad-annotation");
    EXPECT_EQ(diags[0].line, lineOf(text, "novalint: shard-owned"));
    EXPECT_NE(diags[0].message.find("unknown"), std::string::npos);
    EXPECT_EQ(diags[1].line,
              lineOf(text, "novalint: guarded-by(missingMutex)"));
    EXPECT_NE(diags[1].message.find("no mutex"), std::string::npos);
    EXPECT_EQ(diags[2].line, 2 + lineOf(text, "std::uint64_t counterB"));
    EXPECT_NE(diags[2].message.find("parenthesized"), std::string::npos);
    EXPECT_EQ(diags[3].line,
              lineOf(text, "novalint: canonical-order"));
    EXPECT_NE(diags[3].message.find("attaches to no"), std::string::npos);
}

TEST(NovaLint, BadAnnotationClean)
{
    expectClean({"bad_annotation_ok.cc"});
}

TEST(NovaLint, SuppressionSameAndPreviousLine)
{
    expectClean({"suppress.cc"});
}

TEST(NovaLint, SuppressionMultiRuleAndWhitespace)
{
    expectClean({"suppress_multi.cc"});
}

TEST(NovaLint, SuppressionWholeFile)
{
    expectClean({"suppress_file.cc"});
}

TEST(NovaLint, SuppressionForOtherRuleDoesNotSilence)
{
    const SourceFile f{
        "inline.cc",
        "struct W { int x; };\n"
        "W *f() {\n"
        "    return new W; // novalint:allow(wall-clock)\n"
        "}\n"};
    const auto diags = lintFiles({f});
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].rule, "raw-new");
    EXPECT_EQ(diags[0].line, 3);
}

TEST(NovaLint, ViolationsInCommentsAndStringsIgnored)
{
    const SourceFile f{
        "inline.cc",
        "// return new Widget; std::random_device rd;\n"
        "/* using namespace std; [&] */\n"
        "const char *s = \"new Widget [&] steady_clock\";\n"};
    expectClean({});
    const auto diags = lintFiles({f});
    for (const Diagnostic &d : diags)
        ADD_FAILURE() << nova::lint::formatDiagnostic(d);
}

TEST(NovaLint, DiagnosticFormat)
{
    const Diagnostic d{"src/x.cc", 12, "raw-new", "msg"};
    EXPECT_EQ(nova::lint::formatDiagnostic(d),
              "src/x.cc:12: error: [raw-new] msg");
}

TEST(NovaLint, RuleCatalogComplete)
{
    const auto &names = nova::lint::ruleNames();
    EXPECT_GE(names.size(), 16u);
    const std::vector<std::string> required = {
        "capture-default", "unordered-iteration", "wall-clock", "raw-new",
        "tick-arith",      "unregistered-stat",   "using-namespace-std",
        "virtual-dtor",    "assert-side-effect",  "include-guard",
        "silent-catch",    "shard-safety",        "determinism-taint",
        "reduction-order", "bad-annotation",      "raw-exit"};
    for (const std::string &expected : required) {
        EXPECT_NE(std::find(names.begin(), names.end(), expected),
                  names.end())
            << "missing rule " << expected;
    }
}

TEST(NovaLint, RuleDescriptionsNonEmpty)
{
    for (const std::string &r : nova::lint::ruleNames())
        EXPECT_FALSE(nova::lint::ruleDescription(r).empty()) << r;
}

TEST(NovaLint, SarifShape)
{
    const std::vector<Diagnostic> diags = {
        {"src/a.cc", 12, "raw-new", "raw 'new' here"},
        {"src/b.cc", 3, "shard-safety", "message with \"quotes\"\n"},
    };
    const std::string doc = nova::lint::renderSarif(diags);
    EXPECT_NE(doc.find("\"$schema\""), std::string::npos);
    EXPECT_NE(doc.find("\"version\": \"2.1.0\""), std::string::npos);
    EXPECT_NE(doc.find("\"name\": \"nova-lint\""), std::string::npos);
    EXPECT_NE(doc.find("\"ruleId\": \"raw-new\""), std::string::npos);
    EXPECT_NE(doc.find("\"ruleId\": \"shard-safety\""),
              std::string::npos);
    EXPECT_NE(doc.find("\"startLine\": 12"), std::string::npos);
    EXPECT_NE(doc.find("\"uri\": \"src/a.cc\""), std::string::npos);
    // Quotes and newlines in messages must be JSON-escaped.
    EXPECT_NE(doc.find("message with \\\"quotes\\\"\\n"),
              std::string::npos);
    // Rule metadata is listed once per referenced rule.
    EXPECT_NE(doc.find("\"id\": \"raw-new\""), std::string::npos);
    EXPECT_NE(doc.find("\"shortDescription\""), std::string::npos);
}

TEST(NovaLint, SarifEmptyRunIsValid)
{
    const std::string doc = nova::lint::renderSarif({});
    EXPECT_NE(doc.find("\"results\": []"), std::string::npos);
    EXPECT_NE(doc.find("\"rules\": []"), std::string::npos);
}

TEST(NovaLint, RuleFilterRestrictsChecks)
{
    const std::string text = readFixture("raw_new_bad.cc");
    const auto diags =
        lintFiles({{"raw_new_bad.cc", text}}, {"wall-clock"});
    EXPECT_TRUE(diags.empty());
}

} // namespace
