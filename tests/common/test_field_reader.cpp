// Tests for the strict field parser that every persisted-input reader and
// the CLI's strict parses share: a field parses only whole and inside the
// target type's range, and FieldReader walks a line's fields in place.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <system_error>

#include "common/field_reader.h"

namespace nocbt {
namespace {

TEST(ParseField, IntegersParseWholeAndInRange) {
  std::uint64_t u = 7;
  EXPECT_EQ(parse_field("18446744073709551615", u), std::errc{});
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(parse_field("18446744073709551616", u),
            std::errc::result_out_of_range);
  EXPECT_EQ(u, std::numeric_limits<std::uint64_t>::max())
      << "a refused field leaves the target alone";
  for (const std::string_view bad :
       {"", "-1", "+1", " 1", "1 ", "1x", "0x10", "1e3", "1,2"})
    EXPECT_EQ(parse_field(bad, u), std::errc::invalid_argument) << bad;

  std::uint16_t hops = 0;
  EXPECT_EQ(parse_field("70000", hops), std::errc::result_out_of_range);
  std::int32_t id = 0;
  EXPECT_EQ(parse_field("-2147483648", id), std::errc{});
  EXPECT_EQ(id, std::numeric_limits<std::int32_t>::min());
  EXPECT_EQ(parse_field("3000000000", id), std::errc::result_out_of_range);
}

TEST(ParseField, DoublesParseWholeAndInRange) {
  double d = 0.0;
  EXPECT_EQ(parse_field("5e-324", d), std::errc{});
  EXPECT_EQ(d, std::numeric_limits<double>::denorm_min());
  EXPECT_EQ(parse_field("-0", d), std::errc{});
  EXPECT_TRUE(std::signbit(d));
  EXPECT_EQ(parse_field("1e999", d), std::errc::result_out_of_range);
  for (const std::string_view bad : {"", "+1", " 1", "0x1p3", "1e", "0.5x"})
    EXPECT_EQ(parse_field(bad, d), std::errc::invalid_argument) << bad;
}

TEST(ParseField, OrThrowNamesTheField) {
  try {
    (void)parse_field_or_throw<std::uint32_t>("99999999999", "a count");
    FAIL() << "expected std::out_of_range";
  } catch (const std::out_of_range& e) {
    EXPECT_STREQ(e.what(), "value out of range: 99999999999");
  }
  try {
    (void)parse_field_or_throw<std::uint32_t>("-1", "a count");
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "not a count: -1");
  }
  EXPECT_EQ(parse_field_or_throw<std::uint32_t>("42", "a count"), 42u);
}

TEST(FieldReader, WalksFieldsInOrderAndCountsTheRest) {
  FieldReader in("a,,12,x");
  EXPECT_EQ(in.remaining(), 4u);
  EXPECT_EQ(in.next(), "a");
  EXPECT_EQ(in.next(), "");
  std::uint64_t v = 0;
  EXPECT_TRUE(in.read(v));
  EXPECT_EQ(v, 12u);
  EXPECT_EQ(in.remaining(), 1u);
  EXPECT_FALSE(in.read(v)) << "'x' is not a number";
  EXPECT_EQ(in.remaining(), 0u);
  EXPECT_EQ(in.next(), "") << "past the last field reads empty";
  EXPECT_FALSE(in.read(v));
  EXPECT_EQ(in.remaining(), 0u);
}

TEST(FieldReader, EmptyLinesAndTrailingSeparatorsHoldEmptyFields) {
  FieldReader empty("");
  EXPECT_EQ(empty.remaining(), 1u);
  EXPECT_EQ(empty.next(), "");
  EXPECT_EQ(empty.remaining(), 0u);

  FieldReader trailing("3/", '/');
  EXPECT_EQ(trailing.remaining(), 2u);
  EXPECT_EQ(trailing.next(), "3");
  EXPECT_EQ(trailing.remaining(), 1u);
  EXPECT_EQ(trailing.next(), "");
  EXPECT_EQ(trailing.remaining(), 0u);
}

}  // namespace
}  // namespace nocbt
