#include "chaos/chaos.hh"

#include <cstdlib>

#include "obs/metrics.hh"
#include "obs/trace.hh"

namespace hydra::chaos {
namespace {

// Stream seeds are derived as spec.seed XOR a per-class constant, so
// each fault class consumes an independent xoshiro sequence and new
// classes can be added without perturbing existing seeded runs.
constexpr std::uint64_t kStreamSalt[] = {
    0x64726f70ull << 16, // drop
    0x64757065ull << 16, // dupe
    0x636f7272ull << 16, // corr
    0x736c6f77ull << 16, // slow
    0x7374616cull << 16, // stal
    0x706f6f6cull << 16, // pool
    0x72696e67ull << 16, // ring
};

bool
parseProbability(const std::string &value, double &out)
{
    if (value.empty())
        return false;
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0')
        return false;
    if (!(parsed >= 0.0 && parsed <= 1.0))
        return false;
    out = parsed;
    return true;
}

bool
parsePositiveMs(const std::string &value, sim::SimTime &out)
{
    if (value.empty())
        return false;
    char *end = nullptr;
    const double parsed = std::strtod(value.c_str(), &end);
    if (end == nullptr || *end != '\0')
        return false;
    if (!(parsed > 0.0))
        return false;
    out = static_cast<sim::SimTime>(parsed *
                                    static_cast<double>(sim::kMillisecond));
    return out > 0;
}

bool
parseUint(const std::string &value, std::uint64_t &out)
{
    if (value.empty())
        return false;
    // strtoull silently negates "-1"; digits only, no sign, no space.
    for (const char c : value)
        if (c < '0' || c > '9')
            return false;
    char *end = nullptr;
    const unsigned long long parsed = std::strtoull(value.c_str(), &end, 10);
    if (end == nullptr || *end != '\0')
        return false;
    out = parsed;
    return true;
}

} // namespace

Result<ChaosSpec>
parseChaosSpec(const std::string &text)
{
    ChaosSpec spec;
    const std::size_t colon = text.find(':');
    const std::string seedText = text.substr(0, colon);
    if (!parseUint(seedText, spec.seed))
        return {ErrorCode::InvalidArgument,
                "--chaos seed must be a non-negative integer, got '" +
                    seedText + "'"};
    if (colon == std::string::npos)
        return spec;

    std::string rest = text.substr(colon + 1);
    while (!rest.empty()) {
        const std::size_t comma = rest.find(',');
        const std::string token = rest.substr(0, comma);
        rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
        if (token.empty())
            continue;
        const std::size_t eq = token.find('=');
        if (eq == std::string::npos)
            return {ErrorCode::InvalidArgument,
                    "--chaos token '" + token + "' is not key=value"};
        const std::string key = token.substr(0, eq);
        const std::string value = token.substr(eq + 1);

        if (key.rfind("reset@", 0) == 0) {
            ScheduledReset reset;
            sim::SimTime at = 0;
            if (!parsePositiveMs(key.substr(6), at))
                return {ErrorCode::InvalidArgument,
                        "--chaos reset time in '" + token +
                            "' must be a positive ms value"};
            reset.at = at;
            const std::size_t slash = value.find('/');
            reset.device = value.substr(0, slash);
            if (reset.device.empty())
                return {ErrorCode::InvalidArgument,
                        "--chaos reset in '" + token + "' names no device"};
            if (slash != std::string::npos &&
                !parsePositiveMs(value.substr(slash + 1), reset.downtime))
                return {ErrorCode::InvalidArgument,
                        "--chaos reset downtime in '" + token +
                            "' must be a positive ms value"};
            spec.resets.push_back(std::move(reset));
            continue;
        }

        double *probability = nullptr;
        if (key == "drop")
            probability = &spec.packetDrop;
        else if (key == "dup")
            probability = &spec.packetDuplicate;
        else if (key == "corrupt")
            probability = &spec.packetCorrupt;
        else if (key == "slow")
            probability = &spec.workerSlow;
        else if (key == "stall")
            probability = &spec.workerStall;
        else if (key == "poolfail")
            probability = &spec.poolExhaust;
        else if (key == "ringfull")
            probability = &spec.ringOverflow;
        if (probability != nullptr) {
            if (!parseProbability(value, *probability))
                return {ErrorCode::InvalidArgument,
                        "--chaos " + key + " must be a probability in " +
                            "[0,1], got '" + value + "'"};
            continue;
        }
        if (key == "slow-ms") {
            if (!parsePositiveMs(value, spec.slowDelay))
                return {ErrorCode::InvalidArgument,
                        "--chaos slow-ms must be a positive ms value, " +
                            std::string("got '") + value + "'"};
            continue;
        }
        if (key == "stall-ms") {
            if (!parsePositiveMs(value, spec.stallTime))
                return {ErrorCode::InvalidArgument,
                        "--chaos stall-ms must be a positive ms value, " +
                            std::string("got '") + value + "'"};
            continue;
        }
        return {ErrorCode::InvalidArgument,
                "--chaos unknown key '" + key + "'"};
    }
    return spec;
}

ChaosEngine &
ChaosEngine::instance()
{
    static ChaosEngine engine;
    return engine;
}

void
ChaosEngine::configure(const ChaosSpec &spec)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spec_ = spec;
    for (int i = 0; i < kStreamCount; ++i)
        streams_[i] = Rng(spec.seed ^ kStreamSalt[i]);
    injected_.store(0, std::memory_order_relaxed);
    enabled_.store(true, std::memory_order_relaxed);
}

void
ChaosEngine::disable()
{
    std::lock_guard<std::mutex> lock(mutex_);
    enabled_.store(false, std::memory_order_relaxed);
}

ChaosSpec
ChaosEngine::spec() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spec_;
}

bool
ChaosEngine::draw(Stream stream, double ChaosSpec::*probability)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const double p = spec_.*probability;
    if (p <= 0.0)
        return false;
    return streams_[stream].chance(p);
}

void
ChaosEngine::note(const char *fault, sim::SimTime now)
{
    injected_.fetch_add(1, std::memory_order_relaxed);
    obs::counter("chaos.injected", {{"fault", fault}}).increment();
    if (HYDRA_TRACE_ACTIVE()) {
        obs::Tracer &tracer = obs::Tracer::instance();
        tracer.instant(tracer.lane("chaos", "injector"),
                       std::string("chaos.") + fault, "chaos", now);
    }
}

bool
ChaosEngine::dropPacket(sim::SimTime now)
{
    if (!enabled() || !draw(kDrop, &ChaosSpec::packetDrop))
        return false;
    note("packet_drop", now);
    return true;
}

bool
ChaosEngine::duplicatePacket(sim::SimTime now)
{
    if (!enabled() || !draw(kDuplicate, &ChaosSpec::packetDuplicate))
        return false;
    note("packet_duplicate", now);
    return true;
}

bool
ChaosEngine::corruptPacket(sim::SimTime now)
{
    if (!enabled() || !draw(kCorrupt, &ChaosSpec::packetCorrupt))
        return false;
    note("packet_corrupt", now);
    return true;
}

std::size_t
ChaosEngine::corruptByteIndex(std::size_t payloadSize)
{
    if (payloadSize == 0)
        return 0;
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<std::size_t>(streams_[kCorrupt].uniformInt(
        0, static_cast<std::int64_t>(payloadSize) - 1));
}

bool
ChaosEngine::slowPost(sim::SimTime now, sim::SimTime &delay)
{
    if (!enabled() || !draw(kSlow, &ChaosSpec::workerSlow))
        return false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        delay = spec_.slowDelay;
    }
    note("worker_slow", now);
    return true;
}

bool
ChaosEngine::stallSite(sim::SimTime now, sim::SimTime &duration)
{
    if (!enabled() || !draw(kStall, &ChaosSpec::workerStall))
        return false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        duration = spec_.stallTime;
    }
    note("worker_stall", now);
    return true;
}

bool
ChaosEngine::exhaustPool(sim::SimTime now)
{
    if (!enabled() || !draw(kPool, &ChaosSpec::poolExhaust))
        return false;
    note("pool_exhausted", now);
    return true;
}

bool
ChaosEngine::overflowRing(sim::SimTime now)
{
    if (!enabled() || !draw(kRing, &ChaosSpec::ringOverflow))
        return false;
    note("ring_overflow", now);
    return true;
}

void
ChaosEngine::recordFault(const char *fault, sim::SimTime now)
{
    note(fault, now);
}

void
ChaosEngine::recordRecovery(const char *kind)
{
    obs::counter("chaos.recoveries", {{"kind", kind}}).increment();
}

std::uint64_t
ChaosEngine::injected() const
{
    return injected_.load(std::memory_order_relaxed);
}

} // namespace hydra::chaos
