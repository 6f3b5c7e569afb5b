/**
 * @file
 * Tests for the drivers' shared command-line parser (tools/cli.hh):
 * both value forms, missing and empty values, the u64 boundary,
 * unknown flags, repeated flags, and the generated usage text.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "cli.hh"

namespace hydra::cli {
namespace {

/** Parse @p args as if they followed argv[0] = "tool". */
bool
parseArgs(const FlagSet &flags, std::vector<const char *> args)
{
    args.insert(args.begin(), "tool");
    return flags.parse(static_cast<int>(args.size()), args.data());
}

struct Fixture
{
    std::uint64_t count = 7;
    std::string path;
    bool on = false;
    FlagSet flags{"tool"};

    Fixture()
    {
        flags.value("--count", "N", cli::count(count));
        flags.value("--out", "FILE", text(path));
        flags.toggle("--on", on);
    }
};

TEST(CliTest, EqualsFormMatchesSeparateValue)
{
    Fixture separate, joined;
    ASSERT_TRUE(parseArgs(separate.flags, {"--count", "42", "--out", "a"}));
    ASSERT_TRUE(parseArgs(joined.flags, {"--count=42", "--out=a"}));
    EXPECT_EQ(separate.count, 42u);
    EXPECT_EQ(joined.count, separate.count);
    EXPECT_EQ(joined.path, separate.path);
}

TEST(CliTest, TrailingFlagWithoutValueIsRejected)
{
    Fixture f;
    EXPECT_FALSE(parseArgs(f.flags, {"--on", "--count"}));
    EXPECT_EQ(f.count, 7u);
}

TEST(CliTest, EmptyValueIsRejected)
{
    Fixture f;
    EXPECT_FALSE(parseArgs(f.flags, {"--count="}));
    EXPECT_FALSE(parseArgs(f.flags, {"--out="}));
    EXPECT_FALSE(parseArgs(f.flags, {"--count", ""}));
}

TEST(CliTest, IntegersStopAtTheU64Boundary)
{
    Fixture f;
    ASSERT_TRUE(parseArgs(f.flags, {"--count", "18446744073709551615"}));
    EXPECT_EQ(f.count, UINT64_MAX);
    EXPECT_FALSE(parseArgs(f.flags, {"--count", "18446744073709551616"}));
    for (const char *bad : {"-1", "+1", " 1", "1x", "abc", "0x10"})
        EXPECT_FALSE(parseArgs(f.flags, {"--count", bad})) << bad;
}

TEST(CliTest, UnknownFlagIsRejected)
{
    Fixture f;
    EXPECT_FALSE(parseArgs(f.flags, {"--bogus"}));
    EXPECT_FALSE(parseArgs(f.flags, {"stray"}));
    EXPECT_FALSE(parseArgs(f.flags, {"--on=yes"}));
}

TEST(CliTest, LastRepeatWins)
{
    Fixture f;
    ASSERT_TRUE(parseArgs(f.flags, {"--count", "1", "--count=2"}));
    EXPECT_EQ(f.count, 2u);
}

TEST(CliTest, UsageNamesEveryFlag)
{
    Fixture f;
    const std::string usage = f.flags.usage();
    EXPECT_EQ(usage.rfind("usage: tool ", 0), 0u) << usage;
    for (const char *item : {"[--count N]", "[--out FILE]", "[--on]"})
        EXPECT_NE(usage.find(item), std::string::npos) << item;
}

} // namespace
} // namespace hydra::cli
