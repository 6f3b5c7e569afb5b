/**
 * @file
 * Small string helpers shared by the ODF parser and bench output.
 */

#ifndef HYDRA_COMMON_STRINGS_HH
#define HYDRA_COMMON_STRINGS_HH

#include <string>
#include <string_view>
#include <vector>

namespace hydra {

/** Strip ASCII whitespace from both ends. */
std::string_view trim(std::string_view text);

/** Case-sensitive suffix test. */
bool endsWith(std::string_view text, std::string_view suffix);

/** Lower-case an ASCII string. */
std::string toLower(std::string_view text);

/** Parse a base-10 integer; returns false on any non-digit garbage. */
bool parseInt(std::string_view text, long long &out);

/** Parse a double; returns false on trailing garbage. */
bool parseDouble(std::string_view text, double &out);

/**
 * Render a series as 8-level block glyphs scaled against its own max.
 * Degenerate inputs stay sane: an empty series renders as "", a
 * single sample as one glyph, and negative or non-finite samples are
 * clamped to zero (an all-zero series is a row of baselines).
 */
std::string sparkline(const std::vector<double> &values);

} // namespace hydra

#endif // HYDRA_COMMON_STRINGS_HH
