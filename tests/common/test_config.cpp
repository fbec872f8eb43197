// Tests for the key=value option parser, including the config-file loader
// the campaign CLI builds its sweeps from.

#include <gtest/gtest.h>

#include <fstream>
#include <initializer_list>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/config.h"

namespace nocbt {
namespace {

Options parse_args(std::initializer_list<const char*> args) {
  std::vector<char*> argv{const_cast<char*>("prog")};
  for (const char* a : args) argv.push_back(const_cast<char*>(a));
  return Options::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(Options, ParseFileReadsKeyValueLines) {
  const std::string path = testing::TempDir() + "nocbt_options_basic.cfg";
  std::ofstream(path) << "# campaign smoke sweep\n"
                      << "generators = uniform,hotspot\n"
                      << "\n"
                      << "threads=2\n"
                      << "  packets =  64  \n";
  const Options opts = Options::parse_file(path);
  EXPECT_EQ(opts.get_string("generators", ""), "uniform,hotspot");
  EXPECT_EQ(opts.get_int("threads", 0), 2);
  EXPECT_EQ(opts.get_int("packets", 0), 64);
  EXPECT_FALSE(opts.has("missing"));
}

TEST(Options, ParseFileToleratesCrlf) {
  const std::string path = testing::TempDir() + "nocbt_options_crlf.cfg";
  std::ofstream(path) << "threads=8\r\n# comment\r\nseed=11\r\n";
  const Options opts = Options::parse_file(path);
  EXPECT_EQ(opts.get_int("threads", 0), 8);
  EXPECT_EQ(opts.get_int("seed", 0), 11);
}

TEST(Options, ParseFileRejectsMalformedLine) {
  const std::string path = testing::TempDir() + "nocbt_options_bad.cfg";
  std::ofstream(path) << "threads\n";
  EXPECT_THROW(Options::parse_file(path), std::invalid_argument);
}

TEST(Options, ParseFileMissingFileThrows) {
  EXPECT_THROW(Options::parse_file("/nonexistent/dir/opts.cfg"),
               std::runtime_error);
}

TEST(Options, GetIntRejectsTrailingGarbage) {
  // stoll alone accepts "32abc" as 32, so a typo'd campaign config would
  // silently run the wrong sweep; the whole value must parse.
  const Options opts = parse_args({"window=32abc", "ok=32", "neg=-7",
                                   "hex=0x10", "spaced=32 ", "empty="});
  EXPECT_THROW(opts.get_int("window", 0), std::invalid_argument);
  EXPECT_THROW(opts.get_int("hex", 0), std::invalid_argument);
  EXPECT_THROW(opts.get_int("spaced", 0), std::invalid_argument);
  EXPECT_THROW(opts.get_int("empty", 0), std::invalid_argument);
  EXPECT_EQ(opts.get_int("ok", 0), 32);
  EXPECT_EQ(opts.get_int("neg", 0), -7);
  EXPECT_EQ(opts.get_int("missing", 5), 5);
}

TEST(Options, GetBoundedRejectsValuesOutsideTheRange) {
  // A negative count cast to size_t would wrap to 2^64 - 1.
  const Options opts = parse_args({"window=-1", "values=64"});
  EXPECT_EQ(opts.get_bounded("values", 8, 1, 64), 64);
  EXPECT_EQ(opts.get_bounded("missing", 8, 1, 64), 8);
  try {
    (void)opts.get_bounded("window", 256, 0, 4096);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "option 'window' must be in [0, 4096], got -1");
  }
}

TEST(Options, CheckKeysNamesTheUnknownKeyAndEveryValidOne) {
  const Options opts = parse_args({"mdoe=O2", "rows=4"});
  EXPECT_NO_THROW(opts.check_keys({"mdoe", "rows"}));
  try {
    opts.check_keys({"mode", "rows"});
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "unknown option 'mdoe' (valid keys: mode rows)");
  }
}

TEST(Options, GetDoubleRejectsTrailingGarbage) {
  const Options opts = parse_args({"rate=0.5x", "exp=1e3junk", "ok=0.25",
                                   "sci=1e-3", "empty="});
  EXPECT_THROW((void)opts.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW(opts.get_double("exp", 0.0), std::invalid_argument);
  EXPECT_THROW(opts.get_double("empty", 0.0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(opts.get_double("ok", 0.0), 0.25);
  EXPECT_DOUBLE_EQ(opts.get_double("sci", 0.0), 1e-3);
  EXPECT_DOUBLE_EQ(opts.get_double("missing", 2.5), 2.5);
}

TEST(Options, SignedSpacedAndHexFloatSpellingsDoNotParse) {
  // The strict parses read through parse_field, which takes neither a
  // leading '+' nor leading whitespace, and reads no hex floats.
  const Options opts = parse_args({"plus=+4", "space= 4", "rate=+0.5",
                                   "spaced= 0.5", "hexfloat=0x1p-2"});
  EXPECT_THROW((void)opts.get_int("plus", 0), std::invalid_argument);
  EXPECT_THROW((void)opts.get_int("space", 0), std::invalid_argument);
  EXPECT_THROW((void)opts.get_double("rate", 0.0), std::invalid_argument);
  EXPECT_THROW((void)opts.get_double("spaced", 0.0), std::invalid_argument);
  EXPECT_THROW((void)opts.get_double("hexfloat", 0.0), std::invalid_argument);
  EXPECT_THROW((void)parse_int_strict("+4"), std::invalid_argument);
  EXPECT_THROW((void)parse_double_strict("0x1p-2"), std::invalid_argument);
  EXPECT_THROW((void)parse_int_strict("9223372036854775808"),
               std::out_of_range);
}

TEST(Options, MergeDefaultsPrefersExplicitValues) {
  Options cli = parse_args({"threads=4", "json=out.json"});
  const std::string path = testing::TempDir() + "nocbt_options_merge.cfg";
  std::ofstream(path) << "threads=1\npackets=256\n";
  cli.merge_defaults(Options::parse_file(path));
  EXPECT_EQ(cli.get_int("threads", 0), 4);    // CLI wins
  EXPECT_EQ(cli.get_int("packets", 0), 256);  // file fills the gap
  EXPECT_EQ(cli.get_string("json", ""), "out.json");
}

}  // namespace
}  // namespace nocbt
