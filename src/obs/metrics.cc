#include "obs/metrics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <sstream>

#include "common/json.hh"

namespace hydra::obs {

namespace {

/** @p labels in sorted order: the argument itself when it is already
 * sorted (the common case), else a sorted copy in @p scratch. */
const Labels &
sortedView(const Labels &labels, Labels &scratch)
{
    if (std::is_sorted(labels.begin(), labels.end()))
        return labels;
    scratch = labels;
    std::sort(scratch.begin(), scratch.end());
    return scratch;
}

/** Index key of (name, sorted labels); equality is still checked. */
std::size_t
identityHash(std::string_view name, const Labels &sorted)
{
    std::size_t hash = std::hash<std::string_view>{}(name);
    auto mix = [&hash](std::string_view part) {
        hash ^= std::hash<std::string_view>{}(part) + 0x9e3779b97f4a7c15ULL +
                (hash << 6) + (hash >> 2);
    };
    for (const auto &[key, value] : sorted) {
        mix(key);
        mix(value);
    }
    return hash;
}

void
writeLabels(std::ostringstream &out, const Labels &labels)
{
    out << '{';
    bool first = true;
    for (const auto &[key, value] : labels) {
        if (!first)
            out << ',';
        first = false;
        out << '"';
        json::escape(out, key);
        out << "\":\"";
        json::escape(out, value);
        out << '"';
    }
    out << '}';
}

void
writeNumber(std::ostringstream &out, double value)
{
    if (std::isfinite(value)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", value);
        out << buf;
    } else {
        out << "0";
    }
}

} // namespace

std::string
displayKey(const std::string &name, const Labels &labels)
{
    if (labels.empty())
        return name;
    std::string out = name + "{";
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (i)
            out += ',';
        out += labels[i].first + "=" + labels[i].second;
    }
    out += '}';
    return out;
}

bool
parseDisplayKey(const std::string &key, std::string &name, Labels &labels)
{
    labels.clear();
    const std::size_t brace = key.find('{');
    if (brace == std::string::npos) {
        if (key.empty())
            return false;
        name = key;
        return true;
    }
    if (brace == 0 || key.back() != '}')
        return false;
    name = key.substr(0, brace);
    std::size_t pos = brace + 1;
    const std::size_t end = key.size() - 1;
    while (pos < end) {
        std::size_t comma = key.find(',', pos);
        if (comma == std::string::npos || comma > end)
            comma = end;
        const std::string pair = key.substr(pos, comma - pos);
        const std::size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0)
            return false;
        labels.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
        pos = comma + 1;
    }
    return true;
}

MetricsRegistry &
MetricsRegistry::instance()
{
    static MetricsRegistry registry;
    return registry;
}

template <typename T>
const MetricsRegistry::Entry<T> *
MetricsRegistry::Table<T>::find(std::size_t hash, std::string_view name,
                                const Labels &sorted) const
{
    auto [it, end] = index.equal_range(hash);
    for (; it != end; ++it) {
        const Entry<T> &entry = entries[it->second];
        if (entry.name == name && entry.labels == sorted)
            return &entry;
    }
    return nullptr;
}

template <typename T>
T &
MetricsRegistry::findOrCreate(Table<T> &table, std::string_view name,
                              const Labels &labels)
{
    Labels scratch;
    const Labels &sorted = sortedView(labels, scratch);
    const std::size_t hash = identityHash(name, sorted);
    std::lock_guard<std::mutex> lock(mutex_);
    if (const Entry<T> *entry = table.find(hash, name, sorted))
        return *entry->instrument;
    table.index.emplace(hash, table.entries.size());
    table.entries.push_back(
        Entry<T>{std::string(name), sorted, std::make_unique<T>()});
    return *table.entries.back().instrument;
}

Counter &
MetricsRegistry::counter(std::string_view name, const Labels &labels)
{
    return findOrCreate(counters_, name, labels);
}

Gauge &
MetricsRegistry::gauge(std::string_view name, const Labels &labels)
{
    return findOrCreate(gauges_, name, labels);
}

Histogram &
MetricsRegistry::histogram(std::string_view name, const Labels &labels)
{
    return findOrCreate(histograms_, name, labels);
}

std::uint64_t
MetricsRegistry::counterValue(const std::string &name,
                              const Labels &labels) const
{
    Labels scratch;
    const Labels &sorted = sortedView(labels, scratch);
    const std::size_t hash = identityHash(name, sorted);
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry<Counter> *entry = counters_.find(hash, name, sorted);
    return entry ? entry->instrument->value() : 0;
}

std::uint64_t
MetricsRegistry::counterTotal(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const Entry<Counter> &entry : counters_.entries)
        if (entry.name == name)
            total += entry.instrument->value();
    return total;
}

const Histogram *
MetricsRegistry::findHistogram(const std::string &name,
                               const Labels &labels) const
{
    Labels scratch;
    const Labels &sorted = sortedView(labels, scratch);
    const std::size_t hash = identityHash(name, sorted);
    std::lock_guard<std::mutex> lock(mutex_);
    const Entry<Histogram> *entry = histograms_.find(hash, name, sorted);
    return entry ? entry->instrument.get() : nullptr;
}

RegistrySnapshot
MetricsRegistry::snapshot() const
{
    RegistrySnapshot out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out.counters.reserve(counters_.entries.size());
        for (const Entry<Counter> &entry : counters_.entries)
            out.counters.emplace_back(displayKey(entry.name, entry.labels),
                                      entry.instrument->value());
        out.gauges.reserve(gauges_.entries.size());
        for (const Entry<Gauge> &entry : gauges_.entries)
            out.gauges.emplace_back(displayKey(entry.name, entry.labels),
                                    entry.instrument->value());
        out.histograms.reserve(histograms_.entries.size());
        for (const Entry<Histogram> &entry : histograms_.entries)
            out.histograms.emplace_back(displayKey(entry.name, entry.labels),
                                        entry.instrument->summary());
    }
    // Sorted output makes flight snapshots and reports independent of
    // registration order.
    auto byKey = [](const auto &a, const auto &b) { return a.first < b.first; };
    std::sort(out.counters.begin(), out.counters.end(), byKey);
    std::sort(out.gauges.begin(), out.gauges.end(), byKey);
    std::sort(out.histograms.begin(), out.histograms.end(), byKey);
    return out;
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Entry<Counter> &entry : counters_.entries)
        entry.instrument->reset();
    for (const Entry<Gauge> &entry : gauges_.entries)
        entry.instrument->reset();
    for (const Entry<Histogram> &entry : histograms_.entries)
        entry.instrument->reset();
}

std::string
MetricsRegistry::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"counters\":[";
    for (std::size_t i = 0; i < counters_.entries.size(); ++i) {
        const auto &entry = counters_.entries[i];
        if (i)
            out << ',';
        out << "{\"name\":\"";
        json::escape(out, entry.name);
        out << "\",\"labels\":";
        writeLabels(out, entry.labels);
        out << ",\"value\":" << entry.instrument->value() << '}';
    }
    out << "],\"gauges\":[";
    for (std::size_t i = 0; i < gauges_.entries.size(); ++i) {
        const auto &entry = gauges_.entries[i];
        if (i)
            out << ',';
        out << "{\"name\":\"";
        json::escape(out, entry.name);
        out << "\",\"labels\":";
        writeLabels(out, entry.labels);
        out << ",\"value\":";
        writeNumber(out, entry.instrument->value());
        out << '}';
    }
    out << "],\"histograms\":[";
    for (std::size_t i = 0; i < histograms_.entries.size(); ++i) {
        const auto &entry = histograms_.entries[i];
        const Histogram &h = *entry.instrument;
        if (i)
            out << ',';
        out << "{\"name\":\"";
        json::escape(out, entry.name);
        out << "\",\"labels\":";
        writeLabels(out, entry.labels);
        out << ",\"unit\":\"ns\",\"count\":" << h.count()
            << ",\"sum\":" << h.sum() << ",\"min\":" << h.min()
            << ",\"max\":" << h.max() << ",\"mean\":";
        writeNumber(out, h.mean());
        out << ",\"p50\":";
        writeNumber(out, h.percentile(50.0));
        out << ",\"p90\":";
        writeNumber(out, h.percentile(90.0));
        out << ",\"p99\":";
        writeNumber(out, h.percentile(99.0));
        out << ",\"p999\":";
        writeNumber(out, h.percentile(99.9));
        out << ",\"overflow\":" << h.overflowCount();
        out << ",\"buckets\":[";
        bool first = true;
        for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
            const std::uint64_t n = h.bucketCount(b);
            if (n == 0)
                continue;
            if (!first)
                out << ',';
            first = false;
            out << "{\"le\":"
                << (b >= Histogram::kOverflowBucket
                        ? h.max()
                        : Histogram::bucketUpperBound(b) - 1)
                << ",\"count\":" << n << '}';
        }
        out << "]}";
    }
    out << "]}";
    return out.str();
}

std::string
MetricsRegistry::prettyTable() const
{
    std::lock_guard<std::mutex> lock(mutex_);

    // Rows are sorted by display name and the name column is sized to
    // the longest row, so the table reads the same however metrics
    // happened to register.
    struct Row
    {
        std::string key;
        std::string value;
    };
    auto collect = [](const auto &entries, auto format) {
        std::vector<Row> rows;
        for (const auto &entry : entries)
            rows.push_back(Row{displayKey(entry.name, entry.labels),
                               format(*entry.instrument)});
        std::sort(rows.begin(), rows.end(),
                  [](const Row &a, const Row &b) { return a.key < b.key; });
        return rows;
    };

    char buf[192];
    const std::vector<Row> counterRows =
        collect(counters_.entries, [&](const Counter &c) {
            std::snprintf(buf, sizeof(buf), "%12llu",
                          static_cast<unsigned long long>(c.value()));
            return std::string(buf);
        });
    const std::vector<Row> gaugeRows =
        collect(gauges_.entries, [&](const Gauge &g) {
            std::snprintf(buf, sizeof(buf), "%12.3f", g.value());
            return std::string(buf);
        });
    const std::vector<Row> histogramRows =
        collect(histograms_.entries, [&](const Histogram &h) {
            std::snprintf(buf, sizeof(buf),
                          "n=%-9llu mean=%-11.0f p50=%-11.0f "
                          "p99=%-11.0f p999=%-11.0f max=%llu",
                          static_cast<unsigned long long>(h.count()),
                          h.mean(), h.percentile(50.0), h.percentile(99.0),
                          h.percentile(99.9),
                          static_cast<unsigned long long>(h.max()));
            return std::string(buf);
        });

    std::size_t width = 24;
    for (const auto *rows : {&counterRows, &gaugeRows, &histogramRows})
        for (const Row &row : *rows)
            width = std::max(width, row.key.size());

    std::ostringstream out;
    auto section = [&](const char *title, const std::vector<Row> &rows) {
        out << title << ":\n";
        for (const Row &row : rows) {
            char line[256];
            std::snprintf(line, sizeof(line), "  %-*s %s\n",
                          static_cast<int>(width), row.key.c_str(),
                          row.value.c_str());
            out << line;
        }
    };
    section("counters", counterRows);
    section("gauges", gaugeRows);
    section("histograms (ns)", histogramRows);
    return out.str();
}

} // namespace hydra::obs
