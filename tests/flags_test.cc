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

// --- --prune / CSCE_PRUNE pass-list parsing (csce_match, csce_serve) -

TEST(PruneListTest, IndividualPassesAndCombinations) {
  // The label-pair filter and failing-set backjumping are the default;
  // aux adds to them.
  PruneOptions p;
  EXPECT_FALSE(p.aux);
  EXPECT_TRUE(p.fs);
  EXPECT_TRUE(p.lpi);

  ASSERT_TRUE(ParsePruneList("aux", &p).ok());
  EXPECT_TRUE(p.aux);
  EXPECT_TRUE(p.fs);
  EXPECT_TRUE(p.lpi);

  p = NoPruneOptions();
  ASSERT_TRUE(ParsePruneList("fs", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  ASSERT_TRUE(ParsePruneList("lpi", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  ASSERT_TRUE(ParsePruneList("lpi,fs", &p).ok());
  EXPECT_EQ(p, PruneOptions{});

  ASSERT_TRUE(ParsePruneList("aux,fs", &p).ok());
  EXPECT_EQ(p, AllPruneOptions());
  ASSERT_TRUE(ParsePruneList("aux,lpi,fs", &p).ok());
  EXPECT_EQ(p, AllPruneOptions());

  // Only `none` turns the default passes off; passes after it start
  // from zero.
  ASSERT_TRUE(ParsePruneList("none,aux", &p).ok());
  EXPECT_TRUE(p.aux);
  EXPECT_FALSE(p.fs);
  EXPECT_FALSE(p.lpi);
  ASSERT_TRUE(ParsePruneList("none,fs", &p).ok());
  EXPECT_FALSE(p.aux);
  EXPECT_TRUE(p.fs);
  EXPECT_FALSE(p.lpi);
  ASSERT_TRUE(ParsePruneList("none,lpi", &p).ok());
  EXPECT_FALSE(p.aux);
  EXPECT_FALSE(p.fs);
  EXPECT_TRUE(p.lpi);
  ASSERT_TRUE(ParsePruneList("none,lpi,fs", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  ASSERT_TRUE(ParsePruneList("aux,none", &p).ok());
  EXPECT_EQ(p, NoPruneOptions());
}

TEST(PruneListTest, AllNoneAndEmptySpellings) {
  PruneOptions p;
  ASSERT_TRUE(ParsePruneList("all", &p).ok());
  EXPECT_EQ(p, AllPruneOptions());

  ASSERT_TRUE(ParsePruneList("none", &p).ok());
  EXPECT_FALSE(p.any());
  EXPECT_EQ(p, NoPruneOptions());

  // An empty spec (what the tools parse when neither --prune nor
  // CSCE_PRUNE is set) keeps the default passes on.
  p = NoPruneOptions();
  ASSERT_TRUE(ParsePruneList("", &p).ok());
  EXPECT_EQ(p, PruneOptions{});
  EXPECT_TRUE(p.lpi);
  EXPECT_TRUE(p.fs);
}

TEST(PruneListTest, UnknownPassRejectedAndOutUntouched) {
  PruneOptions p = NoPruneOptions();
  p.aux = true;
  Status st = ParsePruneList("aux,cemr", &p);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("cemr"), std::string::npos) << st.ToString();
  // Out-parameter untouched on error.
  EXPECT_TRUE(p.aux);
  EXPECT_FALSE(p.fs);
  EXPECT_FALSE(p.lpi);

  // `ree` names no pass, so it is rejected like any unknown name.
  st = ParsePruneList("ree", &p);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.ToString().find("ree"), std::string::npos) << st.ToString();
  EXPECT_EQ(ParsePruneList("none,aux,ree", &p).code(),
            StatusCode::kInvalidArgument);
  EXPECT_TRUE(p.aux);
  EXPECT_FALSE(p.fs);

  EXPECT_EQ(ParsePruneList("aux,,lpi", &p).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ParsePruneList("aux,", &p).code(), StatusCode::kInvalidArgument);
}

TEST(PruneListTest, RoundTripsThroughToString) {
  // Canonical spellings print back verbatim, one per pass subset.
  for (const char* spec :
       {"none", "lpi,fs", "aux,lpi,fs", "none,aux", "none,lpi", "none,fs",
        "none,aux,lpi", "none,aux,fs"}) {
    PruneOptions p;
    ASSERT_TRUE(ParsePruneList(spec, &p).ok()) << spec;
    EXPECT_EQ(PruneOptionsToString(p), spec);
  }
  // Every other spelling parses back to the same options.
  for (const char* spec : {"", "aux", "fs", "lpi", "aux,fs", "all",
                           "none,lpi,fs", "none,aux,lpi,fs", "fs,none,aux"}) {
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
