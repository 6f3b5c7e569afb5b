#include "obs/slo.hh"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "common/json.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::obs {

namespace {

const char *
kindName(SloRule::Kind kind)
{
    switch (kind) {
      case SloRule::Kind::HistogramPercentile: return "histogram";
      case SloRule::Kind::CounterRate: return "counter";
      case SloRule::Kind::GaugeBound: return "gauge";
    }
    return "?";
}

double
numberOr(const json::Value &object, const std::string &key,
         double fallback, bool *present = nullptr)
{
    const json::Value *value = object.find(key);
    if (present)
        *present = value != nullptr;
    return value ? value->number : fallback;
}

Result<SloRule>
parseRule(const json::Value &spec, std::size_t index)
{
    if (!spec.isObject())
        return Error(ErrorCode::ParseError,
                     "slo: rule " + std::to_string(index) +
                         " is not an object");
    SloRule rule;
    const json::Value *name = spec.find("name");
    rule.name = name ? name->string
                     : "rule-" + std::to_string(index);

    const json::Value *histogram = spec.find("histogram");
    const json::Value *counter = spec.find("counter");
    const json::Value *gauge = spec.find("gauge");
    const int targets = (histogram ? 1 : 0) + (counter ? 1 : 0) +
                        (gauge ? 1 : 0);
    if (targets != 1)
        return Error(ErrorCode::ParseError,
                     "slo: rule '" + rule.name +
                         "' needs exactly one of histogram/counter/"
                         "gauge");

    if (histogram) {
        rule.kind = SloRule::Kind::HistogramPercentile;
        rule.metric = histogram->string;
        rule.percentile = numberOr(spec, "percentile", 99.0);
        rule.maxValue = numberOr(spec, "max", 0.0, &rule.hasMax);
        if (!rule.hasMax)
            return Error(ErrorCode::ParseError,
                         "slo: rule '" + rule.name +
                             "' (histogram) needs \"max\"");
        if (rule.percentile <= 0.0 || rule.percentile > 100.0)
            return Error(ErrorCode::ParseError,
                         "slo: rule '" + rule.name +
                             "' percentile out of (0, 100]");
    } else if (counter) {
        rule.kind = SloRule::Kind::CounterRate;
        rule.metric = counter->string;
        rule.maxValue =
            numberOr(spec, "max_rate_per_s", 0.0, &rule.hasMax);
        if (!rule.hasMax)
            return Error(ErrorCode::ParseError,
                         "slo: rule '" + rule.name +
                             "' (counter) needs \"max_rate_per_s\"");
    } else {
        rule.kind = SloRule::Kind::GaugeBound;
        rule.metric = gauge->string;
        rule.maxValue = numberOr(spec, "max", 0.0, &rule.hasMax);
        rule.minValue = numberOr(spec, "min", 0.0, &rule.hasMin);
        if (!rule.hasMax && !rule.hasMin)
            return Error(ErrorCode::ParseError,
                         "slo: rule '" + rule.name +
                             "' (gauge) needs \"min\" and/or \"max\"");
    }
    if (rule.metric.empty())
        return Error(ErrorCode::ParseError,
                     "slo: rule '" + rule.name + "' names no metric");
    std::string metricName;
    Labels labels;
    if (!parseDisplayKey(rule.metric, metricName, labels))
        return Error(ErrorCode::ParseError,
                     "slo: rule '" + rule.name + "' bad metric key '" +
                         rule.metric + "'");
    rule.violationCounter =
        &obs::counter("obs.slo.violations", {{"rule", rule.name}});
    return rule;
}

} // namespace

SloEngine &
SloEngine::instance()
{
    static SloEngine engine;
    return engine;
}

Status
SloEngine::loadSpec(const std::string &jsonText)
{
    auto doc = json::parse(jsonText);
    if (!doc)
        return Status(doc.error());
    const json::Value *rules = doc.value().find("rules");
    if (!rules || !rules->isArray())
        return Status(ErrorCode::ParseError,
                      "slo: spec needs a \"rules\" array");
    std::vector<SloRule> parsed;
    for (std::size_t i = 0; i < rules->array.size(); ++i) {
        auto rule = parseRule(rules->array[i], i);
        if (!rule)
            return Status(rule.error());
        parsed.push_back(std::move(rule).value());
    }
    std::lock_guard<std::mutex> lock(mutex_);
    rules_ = std::move(parsed);
    lastEvalNs_ = 0;
    everEvaluated_ = false;
    return Status::success();
}

void
SloEngine::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    rules_.clear();
    lastEvalNs_ = 0;
    everEvaluated_ = false;
}

bool
SloEngine::hasRules() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return !rules_.empty();
}

std::size_t
SloEngine::ruleCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return rules_.size();
}

void
SloEngine::checkViolation(SloRule &rule, bool violated, double observed,
                          std::uint64_t nowNs)
{
    rule.lastObserved = observed;
    rule.everObserved = true;
    if (!violated)
        return;
    ++rule.violations;
    rule.violationCounter->increment();
#if HYDRA_OBS_TRACING
    if (HYDRA_TRACE_ACTIVE()) {
        const TraceLane lane = Tracer::instance().lane("slo", "watchdog");
        HYDRA_TRACE_INSTANT(lane, "slo.violation:" + rule.name, "slo",
                            nowNs);
    }
#else
    (void)nowNs;
#endif
}

void
SloEngine::evaluate(std::uint64_t nowNs)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (rules_.empty())
        return;
    // Flight and sampler periodics can coincide at one timestamp;
    // evaluate once per instant so rates stay well-defined.
    if (everEvaluated_ && nowNs <= lastEvalNs_)
        return;
    const std::uint64_t prevNs = lastEvalNs_;
    const bool first = !everEvaluated_;
    lastEvalNs_ = nowNs;
    everEvaluated_ = true;

    MetricsRegistry &registry = MetricsRegistry::instance();
    for (SloRule &rule : rules_) {
        std::string metricName;
        Labels labels;
        parseDisplayKey(rule.metric, metricName, labels);
        switch (rule.kind) {
          case SloRule::Kind::HistogramPercentile: {
            const Histogram *histogram =
                registry.findHistogram(metricName, labels);
            if (!histogram || histogram->count() == 0)
                break; // nothing recorded yet: not a violation
            const double observed =
                histogram->percentile(rule.percentile);
            checkViolation(rule, observed > rule.maxValue, observed,
                           nowNs);
            break;
          }
          case SloRule::Kind::CounterRate: {
            const std::uint64_t value =
                registry.counterValue(metricName, labels);
            if (!rule.counterPrimed || first) {
                rule.lastCounterValue = value;
                rule.counterPrimed = true;
                break;
            }
            const std::uint64_t elapsed =
                nowNs > prevNs ? nowNs - prevNs : 0;
            if (elapsed == 0)
                break;
            const double rate =
                static_cast<double>(value - rule.lastCounterValue) /
                (static_cast<double>(elapsed) / 1e9);
            rule.lastCounterValue = value;
            checkViolation(rule, rate > rule.maxValue, rate, nowNs);
            break;
          }
          case SloRule::Kind::GaugeBound: {
            // The registry has no gauge lookup that avoids creating
            // the instrument; a snapshot scan keeps evaluation
            // read-only (absent gauge: not a violation).
            const RegistrySnapshot snap = registry.snapshot();
            const auto it = std::lower_bound(
                snap.gauges.begin(), snap.gauges.end(), rule.metric,
                [](const auto &entry, const std::string &key) {
                    return entry.first < key;
                });
            if (it == snap.gauges.end() || it->first != rule.metric)
                break;
            const double observed = it->second;
            const bool violated =
                (rule.hasMax && observed > rule.maxValue) ||
                (rule.hasMin && observed < rule.minValue);
            checkViolation(rule, violated, observed, nowNs);
            break;
          }
        }
    }
}

std::uint64_t
SloEngine::violationsTotal() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::uint64_t total = 0;
    for (const SloRule &rule : rules_)
        total += rule.violations;
    return total;
}

std::string
SloEngine::report() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    std::size_t nameWidth = 4;
    for (const SloRule &rule : rules_)
        nameWidth = std::max(nameWidth, rule.name.size());
    for (const SloRule &rule : rules_) {
        char line[512];
        std::string bound;
        if (rule.kind == SloRule::Kind::GaugeBound) {
            if (rule.hasMin)
                bound += "min=" + std::to_string(rule.minValue) + " ";
            if (rule.hasMax)
                bound += "max=" + std::to_string(rule.maxValue);
        } else {
            char buf[64];
            if (rule.kind == SloRule::Kind::HistogramPercentile)
                std::snprintf(buf, sizeof(buf), "p%d<=%.6g",
                              static_cast<int>(rule.percentile),
                              rule.maxValue);
            else
                std::snprintf(buf, sizeof(buf), "rate/s<=%.6g",
                              rule.maxValue);
            bound = buf;
        }
        std::snprintf(
            line, sizeof(line),
            "  %-*s %-9s %-14s last=%.6g  %s  -> %s\n",
            static_cast<int>(nameWidth), rule.name.c_str(),
            kindName(rule.kind), bound.c_str(),
            rule.everObserved ? rule.lastObserved : 0.0,
            rule.metric.c_str(),
            rule.violations == 0
                ? "OK"
                : ("VIOLATED x" + std::to_string(rule.violations))
                      .c_str());
        out << line;
    }
    return out.str();
}

std::string
SloEngine::toJson() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"rules\":[";
    bool firstRule = true;
    for (const SloRule &rule : rules_) {
        if (!firstRule)
            out << ',';
        firstRule = false;
        out << "{\"name\":";
        json::writeString(out, rule.name);
        out << ",\"kind\":";
        json::writeString(out, kindName(rule.kind));
        out << ",\"metric\":";
        json::writeString(out, rule.metric);
        out << ",\"violations\":" << rule.violations
            << ",\"last_observed\":" << rule.lastObserved << '}';
    }
    std::uint64_t total = 0;
    for (const SloRule &rule : rules_)
        total += rule.violations;
    out << "],\"total_violations\":" << total << '}';
    return out.str();
}

} // namespace hydra::obs
