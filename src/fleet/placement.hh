/**
 * @file
 * Consistent-hash channel -> host placement map (DESIGN.md §14).
 *
 * The fleet decides which host a stream lives on by hashing its key
 * onto a ring of virtual nodes. The ring is a plain value: rebuild()
 * replaces the membership, and lookups are a binary search returning
 * the owning host's index, so placing a stream copies no string.
 * rebuild() must not race lookups; the fleet builds its ring once, in
 * its constructor. Consistent hashing keeps the reshuffle on
 * membership change proportional to 1/N of the keys, which the
 * placement unit test asserts.
 */

#ifndef HYDRA_FLEET_PLACEMENT_HH
#define HYDRA_FLEET_PLACEMENT_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace hydra::fleet {

/** FNV-1a 64-bit; the ring's only hash (stable across runs). */
std::uint64_t placementHash(std::string_view key);

/** Consistent-hash ring over host names. */
class PlacementRing
{
  public:
    /** hostFor()'s answer on an empty ring. */
    static constexpr std::size_t kNoHost = static_cast<std::size_t>(-1);

    /**
     * Replace the membership. @p vnodes virtual points per host
     * smooth the key distribution (64 keeps the max/min host load
     * ratio under ~1.4 for uniform keys).
     */
    void rebuild(const std::vector<std::string> &hosts,
                 std::size_t vnodes = 64);

    /**
     * Index (into the rebuild() list) of the host owning @p key;
     * kNoHost when the ring is empty.
     */
    std::size_t hostFor(std::string_view key) const;

    /** Name of the host at @p index. */
    const std::string &hostName(std::size_t index) const
    {
        return hosts_[index];
    }

    std::size_t hostCount() const { return hosts_.size(); }
    std::size_t pointCount() const { return points_.size(); }

  private:
    /** (hash, host index), sorted by hash. */
    std::vector<std::pair<std::uint64_t, std::uint32_t>> points_;
    std::vector<std::string> hosts_;
};

} // namespace hydra::fleet

#endif // HYDRA_FLEET_PLACEMENT_HH
