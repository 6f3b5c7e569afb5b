#include "fleet/placement.hh"

#include <algorithm>

namespace hydra::fleet {

std::uint64_t
placementHash(std::string_view key)
{
    std::uint64_t hash = 1469598103934665603ull;
    for (const char c : key) {
        hash ^= static_cast<std::uint8_t>(c);
        hash *= 1099511628211ull;
    }
    // Raw FNV-1a avalanches poorly in the high bits for short,
    // similar keys ("host0#1" vs "host0#2"), which clumps the vnode
    // points and skews ring arcs >10x. Finish with a murmur3-style
    // mix so the full 64-bit order is uniform.
    hash ^= hash >> 33;
    hash *= 0xff51afd7ed558ccdull;
    hash ^= hash >> 33;
    hash *= 0xc4ceb9fe1a85ec53ull;
    hash ^= hash >> 33;
    return hash;
}

void
PlacementRing::rebuild(const std::vector<std::string> &hosts,
                       std::size_t vnodes)
{
    hosts_ = hosts;
    points_.clear();
    points_.reserve(hosts.size() * vnodes);
    for (std::uint32_t h = 0; h < hosts.size(); ++h)
        for (std::size_t v = 0; v < vnodes; ++v)
            points_.emplace_back(
                placementHash(hosts[h] + "#" + std::to_string(v)), h);
    std::sort(points_.begin(), points_.end());
}

std::size_t
PlacementRing::hostFor(std::string_view key) const
{
    if (points_.empty())
        return kNoHost;
    const std::uint64_t hash = placementHash(key);
    auto it = std::lower_bound(
        points_.begin(), points_.end(),
        std::make_pair(hash, std::uint32_t{0}),
        [](const auto &a, const auto &b) { return a.first < b.first; });
    if (it == points_.end())
        it = points_.begin(); // wrap
    return it->second;
}

} // namespace hydra::fleet
