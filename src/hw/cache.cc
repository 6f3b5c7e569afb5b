#include "hw/cache.hh"

#include <algorithm>
#include <bit>
#include <stdexcept>

namespace hydra::hw {

namespace {

/**
 * One carry pass: the touched line becomes MRU and each tag it
 * displaces moves one slot towards LRU, until the touched line's old
 * slot absorbs the carry (hit) or the LRU tag or an empty slot falls
 * off the end (miss). A separate search and shift would compile to a
 * memmove call per line. Returns true on a miss.
 */
[[gnu::always_inline]] inline bool
touch(Addr *const set, const std::size_t ways, const Addr line)
{
    Addr carry = line;
    std::size_t w = 0;
    for (; w < ways; ++w) {
        const Addr displaced = set[w];
        set[w] = carry;
        if (displaced == line)
            break;
        carry = displaced;
    }
    return w == ways;
}

} // namespace

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
    dirty_.assign((num_sets + 63) / 64, 0);
}

// Pinned to a 64 B boundary, and built with loops on 32 B boundaries
// (src/hw/CMakeLists.txt): the carry loop is a few instructions with a
// data-dependent exit, and its speed swung by 30-50% with where
// unrelated code changes placed it, worst when it straddled a 32 B
// fetch block.
__attribute__((aligned(64))) void
CacheModel::access(Addr addr, std::size_t size, bool is_write)
{
    (void)is_write; // write-allocate: reads and writes behave alike here
    if (size == 0)
        return;
    const Addr first = addr >> lineShift_;
    const Addr last = (addr + size - 1) >> lineShift_;
    if (first == replayFirst_ && last == replayLast_) {
        replay();
        return;
    }
    // Locals, not members: stores through `set` may alias `this`.
    const std::size_t ways = ways_;
    const Addr mask = setMask_;
    Addr *const lines = lines_.data();
    std::uint64_t misses = 0;
    for (Addr line = first; line <= last; ++line)
        misses += touch(lines + (line & mask) * ways, ways, line);
    const Addr count = last - first + 1;
    totals_.accesses += count;
    totals_.misses += misses;

    if (count >= mask + 1 && count <= (mask + 1) * ways) {
        // One to `ways` lines in every set: each set now holds its
        // lines of this range MRU first, so remember it with every set
        // clean.
        replayFirst_ = first;
        replayLast_ = last;
        std::fill(dirty_.begin(), dirty_.end(), 0);
    } else if (replayFirst_ != kEmpty) {
        // With no range remembered there is nothing to keep clean, so
        // accesses that never build one pay no bookkeeping.
        markDirty(first, count);
    }
}

// Pinned like access(), for the same reason.
__attribute__((aligned(64))) void
CacheModel::replay()
{
    const std::size_t ways = ways_;
    const Addr mask = setMask_;
    Addr *const lines = lines_.data();
    const std::uint64_t *const dirty = dirty_.data();
    const Addr first = replayFirst_;
    const Addr last = replayLast_;
    const Addr word = std::min<Addr>(mask + 1, 64);
    std::uint64_t misses = 0;
    // Ascending over the range, one dirty word's run of sets at a time:
    // a fully dirty run is walked straight, a partly dirty one touches
    // only the lines whose set is dirty.
    for (Addr line = first; line <= last;) {
        const Addr set = line & mask;
        const Addr span = std::min(word - (set & (word - 1)), last - line + 1);
        const std::uint64_t all = ~std::uint64_t{0} >> (64 - span);
        const std::uint64_t bits = (dirty[set >> 6] >> (set & 63)) & all;
        if (bits == all) {
            for (Addr l = line; l < line + span; ++l)
                misses += touch(lines + (l & mask) * ways, ways, l);
        } else {
            for (std::uint64_t b = bits; b != 0; b &= b - 1) {
                const Addr l = line + std::countr_zero(b);
                misses += touch(lines + (l & mask) * ways, ways, l);
            }
        }
        line += span;
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
    totals_.accesses += last - first + 1;
    totals_.misses += misses;
}

void
CacheModel::markDirty(Addr first, Addr count)
{
    const Addr sets = numSets();
    if (count >= sets) {
        std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});
        // Fewer than 64 sets: keep the bits of absent sets clear.
        if (sets < 64)
            dirty_[0] = ~std::uint64_t{0} >> (64 - sets);
        return;
    }
    // The run of sets from first's onwards, wrapping, a word at a time.
    const Addr word = std::min<Addr>(sets, 64);
    for (Addr set = first & setMask_; count > 0;) {
        const Addr bit = set & (word - 1);
        const Addr take = std::min(count, word - bit);
        dirty_[set >> 6] |= (~std::uint64_t{0} >> (64 - take)) << bit;
        set = (set + take) & setMask_;
        count -= take;
    }
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
        markDirty(line, 1);
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
    markDirty(0, numSets());
}

} // namespace hydra::hw
