#include "util/flags.h"

#include <gtest/gtest.h>

#include "engine/prune/prune.h"

namespace csce {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"tool"};
  argv.insert(argv.end(), args.begin(), args.end());
  FlagParser parser;
  Status st = parser.Parse(static_cast<int>(argv.size()), argv.data());
  EXPECT_TRUE(st.ok());
  return parser;
}

TEST(FlagsTest, KeyValuePairs) {
  FlagParser flags = Parse({"--graph=data.txt", "--limit=5"});
  EXPECT_EQ(flags.GetString("graph", ""), "data.txt");
  EXPECT_EQ(flags.GetInt("limit", 0), 5);
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
}

TEST(FlagsTest, BareSwitches) {
  FlagParser flags = Parse({"--verbose", "--quiet=false"});
  EXPECT_TRUE(flags.GetBool("verbose"));
  EXPECT_FALSE(flags.GetBool("quiet"));
  EXPECT_FALSE(flags.GetBool("absent"));
  EXPECT_TRUE(flags.GetBool("absent", true));
}

TEST(FlagsTest, BoolSpellings) {
  EXPECT_TRUE(Parse({"--x=true"}).GetBool("x"));
  EXPECT_TRUE(Parse({"--x=1"}).GetBool("x"));
  EXPECT_TRUE(Parse({"--x=yes"}).GetBool("x"));
  EXPECT_FALSE(Parse({"--x=0"}).GetBool("x"));
}

TEST(FlagsTest, Doubles) {
  FlagParser flags = Parse({"--ratio=0.25"});
  EXPECT_DOUBLE_EQ(flags.GetDouble("ratio", 0), 0.25);
  EXPECT_DOUBLE_EQ(flags.GetDouble("other", 1.5), 1.5);
}

TEST(FlagsTest, MalformedNumbersFallBack) {
  FlagParser flags = Parse({"--n=abc"});
  EXPECT_EQ(flags.GetInt("n", 42), 42);
  EXPECT_DOUBLE_EQ(flags.GetDouble("n", 2.5), 2.5);
}

TEST(FlagsTest, PositionalArguments) {
  FlagParser flags = Parse({"a.txt", "--k=v", "b.txt"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "a.txt");
  EXPECT_EQ(flags.positional()[1], "b.txt");
}

TEST(FlagsTest, DoubleDashEndsFlags) {
  FlagParser flags = Parse({"--k=v", "--", "--not-a-flag"});
  EXPECT_EQ(flags.GetString("k", ""), "v");
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "--not-a-flag");
}

TEST(FlagsTest, UnusedFlagsReported) {
  FlagParser flags = Parse({"--used=1", "--typo=2"});
  EXPECT_EQ(flags.GetInt("used", 0), 1);
  auto unused = flags.UnusedFlags();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo");
}

TEST(FlagsTest, LastValueWins) {
  FlagParser flags = Parse({"--k=1", "--k=2"});
  EXPECT_EQ(flags.GetInt("k", 0), 2);
}

TEST(FlagsTest, EmptyFlagNameRejected) {
  std::vector<const char*> argv = {"tool", "--=v"};
  FlagParser parser;
  EXPECT_EQ(parser.Parse(2, argv.data()).code(),
            StatusCode::kInvalidArgument);
}

// --- --prune pass-list parsing (csce_match, csce_serve) ------------

TEST(PruneListTest, IndividualPassesAndCombinations) {
  // The label-pair filter and failing-set backjumping are the default.
  PruneOptions p;
  EXPECT_TRUE(p.fs);
  EXPECT_TRUE(p.lpi);

  p = NoPruneOptions();
  ASSERT_TRUE(ParsePruneList("fs", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  ASSERT_TRUE(ParsePruneList("lpi", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  ASSERT_TRUE(ParsePruneList("lpi,fs", &p).ok());
  EXPECT_EQ(p, PruneOptions{});

  // Only `none` turns the default passes off; passes after it start
  // from zero.
  ASSERT_TRUE(ParsePruneList("none,fs", &p).ok());
  EXPECT_TRUE(p.fs);
  EXPECT_FALSE(p.lpi);
  ASSERT_TRUE(ParsePruneList("none,lpi", &p).ok());
  EXPECT_FALSE(p.fs);
  EXPECT_TRUE(p.lpi);
  ASSERT_TRUE(ParsePruneList("none,lpi,fs", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  ASSERT_TRUE(ParsePruneList("lpi,none", &p).ok());
  EXPECT_EQ(p, NoPruneOptions());
}

TEST(PruneListTest, AllNoneAndEmptySpellings) {
  PruneOptions p;
  ASSERT_TRUE(ParsePruneList("none", &p).ok());
  EXPECT_FALSE(p.any());
  EXPECT_EQ(p, NoPruneOptions());

  // An empty spec (what the tools parse without --prune) keeps the
  // default passes on.
  ASSERT_TRUE(ParsePruneList("", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  EXPECT_TRUE(p.lpi);
  EXPECT_TRUE(p.fs);

  // `all` would only repeat the default, so it is not a spelling.
  p = NoPruneOptions();
  Status st = ParsePruneList("all", &p);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("\"all\""), std::string::npos)
      << st.ToString();
  EXPECT_EQ(p, NoPruneOptions());
}

TEST(PruneListTest, UnknownPassRejectedAndOutUntouched) {
  PruneOptions p = NoPruneOptions();
  p.lpi = true;
  Status st = ParsePruneList("lpi,cemr", &p);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("cemr"), std::string::npos) << st.ToString();
  // Out-parameter untouched on error.
  EXPECT_TRUE(p.lpi);
  EXPECT_FALSE(p.fs);

  // Deleted passes name nothing any more, so they are rejected like
  // any unknown name, alone or inside a list.
  for (const char* removed : {"ree", "aux"}) {
    st = ParsePruneList(removed, &p);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << removed;
    EXPECT_NE(st.ToString().find("\"" + std::string(removed) + "\""),
              std::string::npos)
        << st.ToString();
    EXPECT_EQ(ParsePruneList("none," + std::string(removed), &p).code(),
              StatusCode::kInvalidArgument)
        << removed;
  }
  EXPECT_TRUE(p.lpi);
  EXPECT_FALSE(p.fs);

  EXPECT_EQ(ParsePruneList("lpi,,fs", &p).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePruneList("lpi,", &p).code(), StatusCode::kInvalidArgument);
}

TEST(PruneListTest, RoundTripsThroughToString) {
  // Canonical spellings print back verbatim, one per pass subset.
  for (const char* spec : {"none", "lpi,fs", "none,lpi", "none,fs"}) {
    PruneOptions p;
    ASSERT_TRUE(ParsePruneList(spec, &p).ok()) << spec;
    EXPECT_EQ(PruneOptionsToString(p), spec);
  }
  // Every other spelling parses back to the same options.
  for (const char* spec :
       {"", "fs", "lpi", "none,lpi,fs", "fs,none,lpi", "none,fs,fs"}) {
    PruneOptions p;
    ASSERT_TRUE(ParsePruneList(spec, &p).ok()) << spec;
    PruneOptions q;
    ASSERT_TRUE(ParsePruneList(PruneOptionsToString(p), &q).ok()) << spec;
    EXPECT_EQ(p, q) << spec;
  }
  EXPECT_EQ(PruneOptionsToString(PruneOptions{}), "lpi,fs");
}

}  // namespace
}  // namespace csce
