/**
 * @file
 * The HYDRA drivers' shared command-line front end: a flag table with
 * one grammar (`--flag value` or `--flag=value`, last repeat wins,
 * malformed values rejected), the flags hydra_sim and hydra_fleet
 * share, and the one writer every run artifact goes through.
 */

#ifndef HYDRA_TOOLS_CLI_HH
#define HYDRA_TOOLS_CLI_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hh"
#include "exec/executor.hh"

namespace hydra::cli {

/** Parses a flag's (non-empty) value into its target; false rejects it. */
using Setter = std::function<bool(const std::string &value)>;

/** A tool's flag table and its parser. */
class FlagSet
{
  public:
    /** @p tool prefixes every diagnostic and names the usage line. */
    explicit FlagSet(std::string tool) : tool_(std::move(tool)) {}

    const std::string &tool() const { return tool_; }

    /** A switch (takes no value): sets @p target to @p value. */
    void toggle(std::string name, bool &target, bool value = true);
    /** A value flag: @p set parses the value; @p metavar names it. */
    void value(std::string name, std::string metavar, Setter set);

    /**
     * Parse @p argv (argv[0] is skipped). On a usage error prints the
     * reason and the usage text to stderr and returns false.
     */
    bool parse(int argc, const char *const *argv) const;

    /** "usage: <tool> [--flag METAVAR] [--switch] ...", wrapped. */
    std::string usage() const;

  private:
    struct Flag
    {
        std::string name;
        std::string metavar; // empty for a switch
        Setter set;
    };

    bool fail(const std::string &reason) const;

    std::string tool_;
    std::vector<Flag> flags_;
};

/** Strict base-10 u64: digits only, no sign, no space, no overflow. */
bool parseUnsigned(std::string_view text, std::uint64_t &out);

/** Any text (a file path, usually). */
Setter text(std::string &target);

/** An unsigned integer >= @p min that fits @p target's type. */
template <typename T>
Setter
count(T &target, std::uint64_t min = 0)
{
    return [&target, min](const std::string &value) {
        std::uint64_t parsed = 0;
        if (!parseUnsigned(value, parsed) || parsed < min ||
            parsed > std::numeric_limits<T>::max())
            return false;
        target = static_cast<T>(parsed);
        return true;
    };
}

/**
 * A whole number of @p unit (e.g. sim::kMillisecond), at least
 * @p min, whose nanosecond count fits SimTime.
 */
Setter duration(sim::SimTime &target, sim::SimTime unit,
                std::uint64_t min = 0);

/** A finite probability in [0, 1]. */
Setter probability(double &target);

/**
 * The flags hydra_sim and hydra_fleet share: --executor, --seed,
 * --metrics-out, and --chaos (which arms chaos::ChaosEngine).
 */
void addRunFlags(FlagSet &flags, exec::ExecutorKind &executor,
                 std::uint64_t &seed, std::string &metricsOut);

/**
 * Write one run artifact: open @p path, hand the stream to @p write,
 * flush. On failure prints "<tool>: cannot write <path>" and returns
 * false (the tools exit 1).
 */
bool writeArtifact(const std::string &tool, const std::string &path,
                   const std::function<void(std::ostream &)> &write);

} // namespace hydra::cli

#endif // HYDRA_TOOLS_CLI_HH
