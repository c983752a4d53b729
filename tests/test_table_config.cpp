#include <gtest/gtest.h>

#include <sstream>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/config.h"
#include "common/table.h"
#include "common/time_types.h"

namespace harmony {
namespace {

TEST(TextTable, RendersAlignedGrid) {
  TextTable t({"policy", "stale"});
  t.add_row({"ONE", "61%"});
  t.add_row({"harmony(20%)", "3.5%"});
  std::ostringstream os;
  os << t;
  const std::string s = os.str();
  EXPECT_NE(s.find("| policy "), std::string::npos);
  EXPECT_NE(s.find("harmony(20%)"), std::string::npos);
  // Three horizontal rules: top, under header, bottom.
  int rules = 0;
  std::size_t pos = 0;
  while ((pos = s.find("\n+", pos)) != std::string::npos) {
    ++rules;
    ++pos;
  }
  EXPECT_EQ(rules + (s.rfind("+", 0) == 0 ? 1 : 0), 3);
}

TEST(TextTable, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(TextTable, CsvEscapesSpecials) {
  TextTable t({"name", "note"});
  t.add_row({"x,y", "say \"hi\""});
  const std::string csv = t.to_csv();
  EXPECT_NE(csv.find("\"x,y\""), std::string::npos);
  EXPECT_NE(csv.find("\"say \"\"hi\"\"\""), std::string::npos);
}

TEST(TextTable, Formatters) {
  EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
  EXPECT_EQ(TextTable::pct(0.315), "31.5%");
  EXPECT_EQ(TextTable::money(1.5), "$1.50");
}

TEST(Config, ParsesKeyValueAndFlags) {
  const char* argv[] = {"prog", "--ops=5000", "--scale=0.5", "--verbose"};
  const Config c = Config::from_args(4, argv, {"ops", "scale", "verbose"});
  EXPECT_EQ(c.get_int("ops", 0), 5000);
  EXPECT_DOUBLE_EQ(c.get_double("scale", 1.0), 0.5);
  EXPECT_TRUE(c.get_bool("verbose", false));
}

TEST(Config, DefaultsWhenMissing) {
  const char* argv[] = {"prog"};
  const Config c = Config::from_args(1, argv, {"nope", "off"});
  EXPECT_EQ(c.get_int("nope", 7), 7);
  EXPECT_DOUBLE_EQ(c.get_double("nope", 2.5), 2.5);
  EXPECT_FALSE(c.get_bool("off", false));
}

TEST(Config, BoolSpellings) {
  const char* argv[] = {"prog", "--a=true", "--b=yes", "--c=0", "--d=off"};
  const Config c = Config::from_args(5, argv, {"a", "b", "c", "d"});
  EXPECT_TRUE(c.get_bool("a", false));
  EXPECT_TRUE(c.get_bool("b", false));
  EXPECT_FALSE(c.get_bool("c", true));
  EXPECT_FALSE(c.get_bool("d", true));
}

// A program names the flags it reads; anything else is an error.
TEST(Config, UnknownFlagExitsNamingIt) {
  const char* argv[] = {"prog", "--seeds=2", "--sedes=3"};
  const std::vector<std::string_view> flags = {"seed", "seeds"};
  EXPECT_EXIT(Config::from_args(3, argv, flags), ::testing::ExitedWithCode(2),
              "unknown flag --sedes");
}

TEST(Config, NonFlagWordExits) {
  const char* argv[] = {"prog", "positional"};
  const std::vector<std::string_view> flags = {"ops"};
  EXPECT_EXIT(Config::from_args(2, argv, flags), ::testing::ExitedWithCode(2),
              "unexpected argument 'positional'");
}

TEST(Config, ValueThatDoesNotParseInFullExits) {
  const char* argv[] = {"prog", "--ops=abc", "--scale=0.5x", "--csv=maybe"};
  const Config c = Config::from_args(4, argv, {"ops", "scale", "csv"});
  EXPECT_EXIT(c.get_int("ops", 1), ::testing::ExitedWithCode(2),
              "--ops expects an integer, got 'abc'");
  EXPECT_EXIT(c.get_double("scale", 1), ::testing::ExitedWithCode(2),
              "--scale expects a number, got '0.5x'");
  EXPECT_EXIT(c.get_bool("csv", false), ::testing::ExitedWithCode(2),
              "--csv expects a boolean, got 'maybe'");
}

TEST(Config, ReadingAnUndeclaredFlagIsAProgramError) {
  const char* argv[] = {"prog"};
  const Config c = Config::from_args(1, argv, {"ops"});
  EXPECT_THROW(c.get_int("seed", 1), CheckError);
}

TEST(TimeTypes, Conversions) {
  EXPECT_EQ(msec(1.5), 1500);
  EXPECT_EQ(sec(2), 2'000'000);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_hours(kHour), 1.0);
}

TEST(TimeTypes, FormatDuration) {
  EXPECT_EQ(format_duration(500), "500us");
  EXPECT_EQ(format_duration(msec(2.5)), "2.50ms");
  EXPECT_EQ(format_duration(sec(3)), "3.00s");
}

}  // namespace
}  // namespace harmony
