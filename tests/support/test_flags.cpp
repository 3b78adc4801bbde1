#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/flags.hpp"

namespace {

using support::Flags;

Flags make_flags() {
  Flags flags;
  flags.define("runs", "100", "number of runs");
  flags.define("full", "false", "run the paper-exact protocol");
  flags.define("mu", "1.0", "mean task time");
  flags.define("pes", "2,8,64", "PE counts");
  flags.define("label", "default", "free-form label");
  return flags;
}

std::vector<const char*> argv_of(std::initializer_list<const char*> args) {
  return {args.begin(), args.end()};
}

TEST(Flags, DefaultsApplyWhenUnset) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("runs"), 100);
  EXPECT_FALSE(flags.get_bool("full"));
  EXPECT_DOUBLE_EQ(flags.get_double("mu"), 1.0);
}

TEST(Flags, EqualsFormParses) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs=7", "--mu=2.5", "--full=true"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("runs"), 7);
  EXPECT_DOUBLE_EQ(flags.get_double("mu"), 2.5);
  EXPECT_TRUE(flags.get_bool("full"));
}

TEST(Flags, SpaceFormParses) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs", "9", "--label", "hello"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_int("runs"), 9);
  EXPECT_EQ(flags.get("label"), "hello");
}

TEST(Flags, BareBooleanSwitch) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--full"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.get_bool("full"));
}

TEST(Flags, BooleanFlagDoesNotConsumeNextToken) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--full", "positional"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.get_bool("full"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "positional");
}

TEST(Flags, IntListParses) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--pes=2,4,1024"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_EQ(flags.get_count_list("pes"), (std::vector<std::size_t>{2, 4, 1024}));
}

TEST(Flags, CountListRejectsNegativeAndMalformedItems) {
  for (const char* bad : {"--pes=2,-8", "--pes=2,8x", "--pes=-1"}) {
    Flags flags = make_flags();
    const auto args = argv_of({"prog", bad});
    flags.parse(static_cast<int>(args.size()), args.data());
    EXPECT_THROW((void)flags.get_count_list("pes"), std::invalid_argument) << bad;
  }
}

TEST(Flags, CountsRejectNegativeAndOutOfRangeValues) {
  const auto parsed = [](const char* arg) {
    Flags flags = make_flags();
    const auto args = argv_of({"prog", arg});
    flags.parse(static_cast<int>(args.size()), args.data());
    return flags;
  };
  EXPECT_EQ(parsed("--runs=0").get_count<std::size_t>("runs"), 0u);
  EXPECT_EQ(parsed("--runs=4294967295").get_count<unsigned>("runs"), 4294967295u);
  EXPECT_EQ(parsed("--runs=9223372036854775807").get_count<std::uint64_t>("runs"),
            9223372036854775807u);
  // A cast would wrap these into huge worker/thread counts.
  EXPECT_THROW((void)parsed("--runs=-1").get_count<std::size_t>("runs"), std::invalid_argument);
  EXPECT_THROW((void)parsed("--runs=-1").get_count<unsigned>("runs"), std::invalid_argument);
  EXPECT_THROW((void)parsed("--runs=-9223372036854775808").get_count<std::size_t>("runs"),
               std::invalid_argument);
  // Too large for the target type.
  EXPECT_THROW((void)parsed("--runs=4294967296").get_count<unsigned>("runs"),
               std::invalid_argument);
  EXPECT_THROW((void)parsed("--runs=2147483648").get_count<int>("runs"), std::invalid_argument);
  // Still an integer parse first.
  EXPECT_THROW((void)parsed("--runs=3x").get_count<std::size_t>("runs"), std::invalid_argument);
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--nope=1"});
  EXPECT_THROW(flags.parse(static_cast<int>(args.size()), args.data()), std::invalid_argument);
}

TEST(Flags, MalformedNumbersThrow) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs=abc", "--mu=1.2.3"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_THROW((void)flags.get_int("runs"), std::invalid_argument);
  EXPECT_THROW((void)flags.get_double("mu"), std::invalid_argument);
}

TEST(Flags, RedefinitionThrows) {
  Flags flags = make_flags();
  EXPECT_THROW(flags.define("runs", "1", "dup"), std::invalid_argument);
}

TEST(Flags, UndefinedLookupThrows) {
  Flags flags = make_flags();
  EXPECT_THROW((void)flags.get("nothere"), std::invalid_argument);
}

TEST(Flags, HasReportsExplicitOnly) {
  Flags flags = make_flags();
  const auto args = argv_of({"prog", "--runs=5"});
  flags.parse(static_cast<int>(args.size()), args.data());
  EXPECT_TRUE(flags.has("runs"));
  EXPECT_FALSE(flags.has("mu"));
}

TEST(Flags, UsageListsAllFlags) {
  Flags flags = make_flags();
  const std::string usage = flags.usage();
  EXPECT_NE(usage.find("--runs"), std::string::npos);
  EXPECT_NE(usage.find("--full"), std::string::npos);
  EXPECT_NE(usage.find("number of runs"), std::string::npos);
}

}  // namespace
