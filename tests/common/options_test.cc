#include "src/common/options.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

namespace pad {
namespace {

std::optional<Options> ParseArgs(std::vector<std::string> args) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("tool"));
  for (std::string& arg : args) {
    argv.push_back(arg.data());
  }
  std::string error;
  return Options::Parse(static_cast<int>(argv.size()), argv.data(), &error);
}

TEST(OptionsTest, ParsesKeyValues) {
  const auto options = ParseArgs({"users=200", "radio=lte", "wifi=true"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 0), 200);
  EXPECT_EQ(options->GetString("radio", ""), "lte");
  EXPECT_TRUE(options->GetBool("wifi", false));
}

TEST(OptionsTest, FallbacksWhenMissing) {
  const auto options = ParseArgs({});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 42), 42);
  EXPECT_DOUBLE_EQ(options->GetDouble("x", 1.5), 1.5);
  EXPECT_EQ(options->GetString("s", "d"), "d");
  EXPECT_FALSE(options->GetBool("b", false));
}

TEST(OptionsTest, MalformedTokenFails) {
  std::vector<char*> argv;
  char prog[] = "tool";
  char bad[] = "novalue";
  argv = {prog, bad};
  std::string error;
  EXPECT_FALSE(Options::Parse(2, argv.data(), &error).has_value());
  EXPECT_NE(error.find("key=value"), std::string::npos);
}

TEST(OptionsTest, ParseTextSkipsCommentsAndBlanks) {
  std::string error;
  const auto options = Options::ParseText("# comment\n\nusers = 10\nradio= 3g \n", &error);
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 0), 10);
  EXPECT_EQ(options->GetString("radio", ""), "3g");
}

TEST(OptionsTest, ParseTextRejectsBadLine) {
  std::string error;
  EXPECT_FALSE(Options::ParseText("justakey\n", &error).has_value());
}

TEST(OptionsTest, ConfigFileWithCliOverride) {
  const std::string path = ::testing::TempDir() + "/options_test.conf";
  {
    std::string error;
    FILE* f = fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    fputs("users=10\nradio=3g\n", f);
    fclose(f);
    (void)error;
  }
  const auto options = ParseArgs({"--config", path, "users=99"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(options->GetInt("users", 0), 99);     // CLI wins.
  EXPECT_EQ(options->GetString("radio", ""), "3g");  // File value survives.
}

TEST(OptionsTest, MissingConfigFileFails) {
  const auto options = ParseArgs({"--config", "/nonexistent.conf"});
  EXPECT_FALSE(options.has_value());
}

TEST(OptionsTest, BooleanSpellings) {
  const auto options = ParseArgs({"a=yes", "b=off", "c=1", "d=false"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->GetBool("a", false));
  EXPECT_FALSE(options->GetBool("b", true));
  EXPECT_TRUE(options->GetBool("c", false));
  EXPECT_FALSE(options->GetBool("d", true));
}

TEST(OptionsTest, UnusedKeysTracked) {
  const auto options = ParseArgs({"used=1", "typo_key=2"});
  ASSERT_TRUE(options.has_value());
  (void)options->GetInt("used", 0);
  const auto unused = options->UnusedKeys();
  ASSERT_EQ(unused.size(), 1u);
  EXPECT_EQ(unused[0], "typo_key");
}

TEST(OptionsTest, TypeMismatchRecordsErrorInsteadOfAborting) {
  const auto options = ParseArgs({"n=abc", "f=1.5"});
  ASSERT_TRUE(options.has_value());
  EXPECT_TRUE(options->error().empty());

  // Bad values fall back and record a diagnostic naming the key; the first
  // error sticks so a tool reports the earliest offender.
  EXPECT_EQ(7, options->GetInt("n", 7));
  EXPECT_NE(options->error().find("'n'"), std::string::npos);
  EXPECT_NE(options->error().find("not a number"), std::string::npos);
  EXPECT_EQ(0, options->GetInt("f", 0));       // 1.5 is not an integer.
  EXPECT_FALSE(options->GetBool("n", false));  // "abc" is not a boolean.
  EXPECT_NE(options->error().find("'n'"), std::string::npos);
}

TEST(OptionsTest, OutOfRangeIntegersFailBeforeTheCast) {
  // Each value would otherwise reach a double-to-int cast outside int's
  // range, which is undefined behaviour; NaN fails the range check too.
  for (const std::string value : {"1e10", "-1e10", "nan", "inf"}) {
    const auto options = ParseArgs({"users=" + value});
    ASSERT_TRUE(options.has_value());
    EXPECT_EQ(42, options->GetInt("users", 42)) << value;
    EXPECT_NE(options->error().find("option 'users' is out of range"), std::string::npos)
        << value << ": " << options->error();
  }
  // int's own extremes still read back exactly.
  const auto edges = ParseArgs({"hi=2147483647", "lo=-2147483648"});
  ASSERT_TRUE(edges.has_value());
  EXPECT_EQ(std::numeric_limits<int>::max(), edges->GetInt("hi", 0));
  EXPECT_EQ(std::numeric_limits<int>::min(), edges->GetInt("lo", 0));
  EXPECT_TRUE(edges->error().empty());
}

TEST(OptionsTest, WellTypedReadsLeaveErrorEmpty) {
  const auto options = ParseArgs({"n=3", "f=1.5", "b=true"});
  ASSERT_TRUE(options.has_value());
  EXPECT_EQ(3, options->GetInt("n", 0));
  EXPECT_DOUBLE_EQ(1.5, options->GetDouble("f", 0.0));
  EXPECT_TRUE(options->GetBool("b", false));
  EXPECT_TRUE(options->error().empty());
}

}  // namespace
}  // namespace pad
