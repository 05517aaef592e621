#include "unit/common/config.h"

#include <gtest/gtest.h>

namespace unitdb {
namespace {

TEST(ConfigTest, ParseArgsBasic) {
  const char* argv[] = {"prog", "alpha=1", "--beta=2.5", "name=unit"};
  auto c = Config::ParseArgs(4, argv);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->GetInt("alpha", 0), 1);
  EXPECT_DOUBLE_EQ(c->GetDouble("beta", 0.0), 2.5);
  EXPECT_EQ(c->GetString("name"), "unit");
}

TEST(ConfigTest, ParseArgsRejectsBareToken) {
  const char* argv[] = {"prog", "oops"};
  auto c = Config::ParseArgs(2, argv);
  EXPECT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
}

TEST(ConfigTest, ParseArgsRejectsEmptyKey) {
  const char* argv[] = {"prog", "=value"};
  auto c = Config::ParseArgs(2, argv);
  EXPECT_FALSE(c.ok());
}

TEST(ConfigTest, ParseStringWithCommentsAndBlanks) {
  auto c = Config::ParseString(
      "# a comment\n"
      "a = 1\n"
      "\n"
      "b=two # trailing comment\n");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->GetInt("a", 0), 1);
  EXPECT_EQ(c->GetString("b"), "two");
}

TEST(ConfigTest, DefaultsWhenMissing) {
  Config c;
  EXPECT_EQ(c.GetInt("nope", -7), -7);
  EXPECT_DOUBLE_EQ(c.GetDouble("nope", 1.5), 1.5);
  EXPECT_EQ(c.GetString("nope", "d"), "d");
  EXPECT_FALSE(c.Has("nope"));
}

TEST(ConfigTest, SetOverwrites) {
  Config c;
  c.Set("k", "1");
  c.Set("k", "2");
  EXPECT_EQ(c.GetInt("k", 0), 2);
}

TEST(ConfigTest, KeysAreSorted) {
  Config c;
  c.Set("zebra", "1");
  c.Set("apple", "2");
  auto keys = c.Keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "apple");
  EXPECT_EQ(keys[1], "zebra");
}

TEST(ConfigTest, ValueMayContainEquals) {
  auto c = Config::ParseString("expr=a=b\n");
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(c->GetString("expr"), "a=b");
}

TEST(ConfigTest, ParseArgsRejectsDuplicateKey) {
  const char* argv[] = {"prog", "scale=1", "--scale=2"};
  auto c = Config::ParseArgs(3, argv);
  ASSERT_FALSE(c.ok());
  EXPECT_EQ(c.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(c.status().ToString().find("duplicate"), std::string::npos)
      << c.status().ToString();
  EXPECT_NE(c.status().ToString().find("scale"), std::string::npos);
}

TEST(ConfigTest, ParseStringRejectsDuplicateKey) {
  auto c = Config::ParseString(
      "fault0.kind = update-outage\n"
      "fault0.kind = load-step\n");
  ASSERT_FALSE(c.ok());
  EXPECT_NE(c.status().ToString().find("fault0.kind"), std::string::npos)
      << c.status().ToString();
  // Programmatic Set() still overwrites (see SetOverwrites above); only the
  // parsed sources reject duplicates.
}

TEST(ConfigTest, EmptyValueIsLegal) {
  auto c = Config::ParseString(
      "empty=\n"
      "blank =   \n");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(c->Has("empty"));
  EXPECT_TRUE(c->Has("blank"));
  EXPECT_EQ(c->GetString("empty", "default"), "");
  EXPECT_EQ(c->GetString("blank", "default"), "");
}

TEST(ConfigTest, ExpectKeysAcceptsKnownSubset) {
  Config c;
  c.Set("scale", "0.5");
  c.Set("seed", "7");
  EXPECT_TRUE(c.ExpectKeys({"scale", "seed", "jobs"}).ok());
  // An empty config is fine under any allowed set.
  EXPECT_TRUE(Config().ExpectKeys({"scale"}).ok());
  EXPECT_TRUE(Config().ExpectKeys({}).ok());
}

TEST(ConfigTest, ExpectKeysRejectsUnknownKey) {
  Config c;
  c.Set("scale", "0.5");
  c.Set("sede", "7");  // typo'd "seed"
  Status s = c.ExpectKeys({"scale", "seed"});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  // The message names the offender and lists the accepted keys.
  EXPECT_NE(s.ToString().find("sede"), std::string::npos) << s.ToString();
  EXPECT_NE(s.ToString().find("seed"), std::string::npos) << s.ToString();
}

TEST(ConfigTest, WholeNumbersParseCleanly) {
  Config c;
  c.Set("i", "-42");
  c.Set("d", "2.5e-3");
  EXPECT_EQ(c.GetInt("i", 0), -42);
  EXPECT_DOUBLE_EQ(c.GetDouble("d", 0.0), 2.5e-3);
  EXPECT_TRUE(c.CheckNumbers().ok());
}

// A value that is not a whole, in-range number returns the default and is
// reported by CheckNumbers, naming the key and the value.
TEST(ConfigTest, MalformedNumbersFailLoudly) {
  struct Case {
    const char* value;
    bool as_int;
  };
  for (const Case& k : {Case{"abc", true}, Case{"", true}, Case{"12x", true},
                        Case{"1.5", true}, Case{"99999999999999999999", true},
                        Case{"abc", false}, Case{"", false},
                        Case{"0.1x", false}, Case{"1e999", false}}) {
    SCOPED_TRACE(std::string(k.value) + (k.as_int ? " as int" : " as double"));
    Config c;
    c.Set("key", k.value);
    if (k.as_int) {
      EXPECT_EQ(c.GetInt("key", 7), 7);
    } else {
      EXPECT_DOUBLE_EQ(c.GetDouble("key", 7.0), 7.0);
    }
    const Status s = c.CheckNumbers();
    ASSERT_FALSE(s.ok());
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(s.message().find(std::string("key=") + k.value),
              std::string::npos)
        << s.ToString();
  }
}

TEST(ConfigTest, CheckNumbersReportsTheFirstBadValue) {
  Config c;
  c.Set("jobs", "abc");
  c.Set("scale", "0.1x");
  c.GetInt("jobs", 0);
  c.GetDouble("scale", 1.0);
  EXPECT_EQ(c.CheckNumbers().message(), "jobs=abc is not an integer");
}

}  // namespace
}  // namespace unitdb
