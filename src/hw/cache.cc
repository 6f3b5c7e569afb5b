#include "hw/cache.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace hydra::hw {

CacheModel::CacheModel(std::size_t capacity_bytes, std::size_t line_bytes,
                       std::size_t ways)
    : ways_(ways)
{
    // Release builds compile out assert(), and mask indexing would
    // silently mis-map a bad geometry, so reject it here.
    if (line_bytes == 0 || ways == 0)
        throw std::invalid_argument("CacheModel: zero line size or ways");
    if (capacity_bytes % (line_bytes * ways) != 0)
        throw std::invalid_argument(
            "CacheModel: capacity is not a multiple of line x ways");
    const std::size_t num_sets = capacity_bytes / (line_bytes * ways);
    if (line_bytes < 2 || !std::has_single_bit(line_bytes) ||
        !std::has_single_bit(num_sets))
        throw std::invalid_argument(
            "CacheModel: line size (>= 2) and set count must be powers "
            "of two");
    lineShift_ = static_cast<unsigned>(std::countr_zero(line_bytes));
    setMask_ = num_sets - 1;
    lines_.assign(num_sets * ways, kEmpty);
}

// Pinned to a 64 B boundary: the carry loop below is a few
// instructions with a data-dependent exit, and its speed swung by ~30%
// with where unrelated code changes happened to place it.
__attribute__((aligned(64))) void
CacheModel::access(Addr addr, std::size_t size, bool is_write)
{
    (void)is_write; // write-allocate: reads and writes behave alike here
    if (size == 0)
        return;
    // Locals, not members: stores through `set` may alias `this`.
    const std::size_t ways = ways_;
    const Addr mask = setMask_;
    Addr *const lines = lines_.data();
    const Addr first = addr >> lineShift_;
    const Addr last = (addr + size - 1) >> lineShift_;
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;
    for (Addr line = first; line <= last; ++line) {
        // One carry pass: the touched line becomes MRU and each tag it
        // displaces moves one slot towards LRU, until the touched
        // line's old slot absorbs the carry (hit) or the LRU tag or an
        // empty slot falls off the end (miss). A separate search and
        // shift would compile to a memmove call per line.
        Addr *const set = lines + (line & mask) * ways;
        Addr carry = line;
        std::size_t w = 0;
        for (; w < ways; ++w) {
            const Addr displaced = set[w];
            set[w] = carry;
            if (displaced == line)
                break;
            carry = displaced;
        }
        ++accesses;
        misses += w == ways;
    }
    totals_.accesses += accesses;
    totals_.misses += misses;
}

void
CacheModel::snoopInvalidate(Addr addr, std::size_t size)
{
    if (size == 0)
        return;
    const Addr last = (addr + size - 1) >> lineShift_;
    for (Addr line = addr >> lineShift_; line <= last; ++line) {
        Addr *const set = lines_.data() + (line & setMask_) * ways_;
        Addr *const end = set + ways_;
        Addr *const hit = std::find(set, end, line);
        if (hit == end)
            continue;
        // Close the gap so the empty slot joins the tail.
        std::copy(hit + 1, end, hit);
        end[-1] = kEmpty;
    }
}

CacheStats
CacheModel::windowStats() const
{
    CacheStats out;
    out.accesses = totals_.accesses - windowBase_.accesses;
    out.misses = totals_.misses - windowBase_.misses;
    return out;
}

void
CacheModel::beginWindow()
{
    windowBase_ = totals_;
}

void
CacheModel::flush()
{
    std::fill(lines_.begin(), lines_.end(), kEmpty);
}

} // namespace hydra::hw
