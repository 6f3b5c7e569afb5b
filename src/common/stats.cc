#include "common/stats.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hydra {

void
SampleSet::add(double sample)
{
    samples_.push_back(sample);
    sortedValid_ = false;
}

void
SampleSet::ensureSorted() const
{
    if (sortedValid_)
        return;
    sorted_ = samples_;
    std::sort(sorted_.begin(), sorted_.end());
    sortedValid_ = true;
}

double
SampleSet::min() const
{
    if (empty())
        return 0.0;
    ensureSorted();
    return sorted_.front();
}

double
SampleSet::max() const
{
    if (empty())
        return 0.0;
    ensureSorted();
    return sorted_.back();
}

double
SampleSet::mean() const
{
    if (empty())
        return 0.0;
    double sum = 0.0;
    for (double s : samples_)
        sum += s;
    return sum / static_cast<double>(samples_.size());
}

double
SampleSet::stddev() const
{
    if (samples_.size() < 2)
        return 0.0;
    const double mu = mean();
    double acc = 0.0;
    for (double s : samples_)
        acc += (s - mu) * (s - mu);
    return std::sqrt(acc / static_cast<double>(samples_.size() - 1));
}

double
SampleSet::median() const
{
    return percentile(50.0);
}

SummaryStats
SampleSet::summary() const
{
    SummaryStats out;
    out.count = count();
    if (empty())
        return out;
    ensureSorted();
    out.min = sorted_.front();
    out.max = sorted_.back();
    out.mean = mean();
    out.stddev = stddev();
    out.p50 = percentile(50.0);
    out.p90 = percentile(90.0);
    out.p99 = percentile(99.0);
    out.p999 = percentile(99.9);
    return out;
}

double
SampleSet::percentile(double pct) const
{
    if (empty())
        return 0.0;
    pct = std::clamp(pct, 0.0, 100.0);
    ensureSorted();
    if (sorted_.size() == 1)
        return sorted_.front();
    const double rank = pct / 100.0 * static_cast<double>(sorted_.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted_.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted_[lo] + frac * (sorted_[hi] - sorted_[lo]);
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
{
    // Degenerate arguments (empty sample sets often produce lo == hi)
    // must not divide by zero: zero bins become one bin, and an empty
    // range widens to unit width.
    if (bins == 0)
        bins = 1;
    if (!(hi > lo))
        hi = lo + 1.0;
    lo_ = lo;
    binWidth_ = (hi - lo) / static_cast<double>(bins);
    bins_.resize(bins);
    for (std::size_t i = 0; i < bins; ++i) {
        bins_[i].lo = lo + binWidth_ * static_cast<double>(i);
        bins_[i].hi = bins_[i].lo + binWidth_;
    }
}

void
Histogram::add(double sample)
{
    auto idx = static_cast<std::ptrdiff_t>((sample - lo_) / binWidth_);
    idx = std::clamp<std::ptrdiff_t>(
        idx, 0, static_cast<std::ptrdiff_t>(bins_.size()) - 1);
    ++bins_[static_cast<std::size_t>(idx)].count;
    ++total_;
}

std::string
Histogram::render(std::size_t width) const
{
    std::size_t peak = 0;
    for (const auto &bin : bins_)
        peak = std::max(peak, bin.count);

    std::string out;
    char line[160];
    for (const auto &bin : bins_) {
        const std::size_t bar =
            peak == 0 ? 0 : bin.count * width / peak;
        std::snprintf(line, sizeof(line), "[%8.3f, %8.3f) %8zu |",
                      bin.lo, bin.hi, bin.count);
        out += line;
        out.append(bar, '#');
        out += '\n';
    }
    return out;
}

} // namespace hydra
