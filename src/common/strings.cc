#include "common/strings.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace hydra {

std::string_view
trim(std::string_view text)
{
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.front())))
        text.remove_prefix(1);
    while (!text.empty() &&
           std::isspace(static_cast<unsigned char>(text.back())))
        text.remove_suffix(1);
    return text;
}

bool
endsWith(std::string_view text, std::string_view suffix)
{
    return text.size() >= suffix.size() &&
           text.substr(text.size() - suffix.size()) == suffix;
}

std::string
toLower(std::string_view text)
{
    std::string out(text);
    for (char &c : out)
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

bool
parseInt(std::string_view text, long long &out)
{
    text = trim(text);
    if (text.empty())
        return false;
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && ptr == text.data() + text.size();
}

bool
parseDouble(std::string_view text, double &out)
{
    text = trim(text);
    if (text.empty())
        return false;
    // std::from_chars for double is available in libstdc++ 11+.
    auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), out);
    return ec == std::errc() && ptr == text.data() + text.size();
}

std::string
sparkline(const std::vector<double> &values)
{
    static const char *kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇",
                                    "█"};
    auto clamp = [](double v) {
        return std::isfinite(v) && v > 0.0 ? v : 0.0;
    };
    double hi = 0.0;
    for (double v : values)
        hi = std::max(hi, clamp(v));
    std::string out;
    for (double v : values) {
        int level = 0;
        if (hi > 0.0) {
            level = static_cast<int>(clamp(v) / hi * 7.0 + 0.5);
            level = std::min(std::max(level, 0), 7);
        }
        out += kLevels[level];
    }
    return out;
}

} // namespace hydra
