#include "cli.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "chaos/chaos.hh"

namespace hydra::cli {

void
FlagSet::toggle(std::string name, bool &target, bool value)
{
    flags_.push_back({std::move(name), "",
                      [&target, value](const std::string &) {
                          target = value;
                          return true;
                      }});
}

void
FlagSet::value(std::string name, std::string metavar, Setter set)
{
    flags_.push_back({std::move(name), std::move(metavar), std::move(set)});
}

bool
FlagSet::parse(int argc, const char *const *argv) const
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const std::size_t eq = arg.find('=');
        const std::string name = arg.substr(0, eq);
        const auto flag =
            std::find_if(flags_.begin(), flags_.end(),
                         [&](const Flag &f) { return f.name == name; });
        if (flag == flags_.end())
            return fail("unknown argument '" + arg + "'");

        if (flag->metavar.empty()) {
            if (eq != std::string::npos)
                return fail(name + " takes no value");
            flag->set("");
            continue;
        }
        std::string value;
        if (eq != std::string::npos)
            value = arg.substr(eq + 1);
        else if (i + 1 < argc)
            value = argv[++i];
        else
            return fail(name + " needs a value (" + flag->metavar + ")");
        if (value.empty() || !flag->set(value))
            return fail("bad value '" + value + "' for " + name + " " +
                        flag->metavar);
    }
    return true;
}

std::string
FlagSet::usage() const
{
    const std::string lead = "usage: " + tool_;
    const std::string indent(lead.size(), ' ');
    std::string text = lead;
    std::size_t column = lead.size();
    for (const Flag &flag : flags_) {
        const std::string item =
            "[" + flag.name +
            (flag.metavar.empty() ? "" : " " + flag.metavar) + "]";
        if (column > indent.size() && column + 1 + item.size() > 72) {
            text += "\n" + indent;
            column = indent.size();
        }
        text += " " + item;
        column += 1 + item.size();
    }
    return text + "\n";
}

bool
FlagSet::fail(const std::string &reason) const
{
    std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), reason.c_str(),
                 usage().c_str());
    return false;
}

bool
parseUnsigned(std::string_view text, std::uint64_t &out)
{
    const char *end = text.data() + text.size();
    std::uint64_t parsed = 0;
    const auto [ptr, ec] = std::from_chars(text.data(), end, parsed);
    if (text.empty() || ec != std::errc() || ptr != end)
        return false;
    out = parsed;
    return true;
}

Setter
text(std::string &target)
{
    return [&target](const std::string &value) {
        target = value;
        return true;
    };
}

Setter
duration(sim::SimTime &target, sim::SimTime unit, std::uint64_t min)
{
    return [&target, unit, min](const std::string &value) {
        std::uint64_t parsed = 0;
        if (!parseUnsigned(value, parsed) || parsed < min ||
            parsed > std::numeric_limits<sim::SimTime>::max() / unit)
            return false;
        target = parsed * unit;
        return true;
    };
}

Setter
probability(double &target)
{
    return [&target](const std::string &value) {
        double parsed = 0.0;
        const char *end = value.data() + value.size();
        const auto [ptr, ec] = std::from_chars(value.data(), end, parsed);
        if (ec != std::errc() || ptr != end || !std::isfinite(parsed) ||
            parsed < 0.0 || parsed > 1.0)
            return false;
        target = parsed;
        return true;
    };
}

void
addRunFlags(FlagSet &flags, exec::ExecutorKind &executor,
            std::uint64_t &seed, std::string &metricsOut)
{
    flags.value("--executor", "sim|threaded",
                [&executor](const std::string &value) {
                    return exec::parseExecutorKind(value, executor);
                });
    flags.value("--seed", "N", count(seed));
    flags.value("--metrics-out", "FILE", text(metricsOut));
    flags.value("--chaos",
                "SEED[:drop=P,dup=P,corrupt=P,slow=P,stall=P,poolfail=P,"
                "ringfull=P,reset@MS=dev[/ms]]",
                [tool = flags.tool()](const std::string &value) {
                    auto spec = chaos::parseChaosSpec(value);
                    if (!spec) {
                        std::fprintf(stderr, "%s: bad --chaos spec: %s\n",
                                     tool.c_str(),
                                     spec.error().describe().c_str());
                        return false;
                    }
                    chaos::ChaosEngine::instance().configure(spec.value());
                    return true;
                });
}

bool
writeArtifact(const std::string &tool, const std::string &path,
              const std::function<void(std::ostream &)> &write)
{
    std::ofstream out(path);
    if (out) {
        write(out);
        out.flush();
    }
    if (out)
        return true;
    std::fprintf(stderr, "%s: cannot write %s\n", tool.c_str(),
                 path.c_str());
    return false;
}

} // namespace hydra::cli
