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
 * memmove call per line. Returns the slot the carry stopped at, which
 * is @p ways on a miss.
 */
[[gnu::always_inline]] inline std::size_t
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
    return w;
}

/** Touch lines first..last in order; returns the number of misses. */
[[gnu::always_inline]] inline std::uint64_t
walk(Addr *const lines, const std::size_t ways, const Addr mask,
     const Addr first, const Addr last)
{
    std::uint64_t misses = 0;
    for (Addr line = first; line <= last; ++line)
        misses += touch(lines + (line & mask) * ways, ways, line) == ways;
    return misses;
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
    deferred_.assign(num_sets, 0);
    deferredBits_.assign(dirty_.size(), 0);
}

// Pinned to a 64 B boundary, and built with loops and jump targets on
// 32 B boundaries (src/hw/CMakeLists.txt): the carry loop is a few
// instructions with a data-dependent exit, and its speed swung by
// 30-50% with where unrelated code changes placed it, worst when it
// straddled a 32 B fetch block.
__attribute__((aligned(64))) void
CacheModel::access(Addr addr, std::size_t size, bool is_write)
{
    (void)is_write; // write-allocate: reads and writes behave alike here
    if (size == 0)
        return;
    const Addr first = addr >> lineShift_;
    const Addr last = (addr + size - 1) >> lineShift_;
    // With no range remembered there is nothing to keep clean, so
    // accesses that never build one pay no bookkeeping.
    if (replayFirst_ != kEmpty) {
        accessWithRange(first, last);
        return;
    }
    // Locals, not members: stores through the sets may alias `this`.
    totals_.misses += walk(lines_.data(), ways_, setMask_, first, last);
    totals_.accesses += last - first + 1;
    remember(first, last);
}

template <typename Fn>
void
CacheModel::forEachDeferred(Fn fn)
{
    for (std::size_t i = 0; i < deferredBits_.size(); ++i) {
        for (std::uint64_t b = deferredBits_[i]; b != 0; b &= b - 1)
            fn(Addr{i} * 64 + std::countr_zero(b));
        deferredBits_[i] = 0;
    }
}

// Pinned like access(): the OS housekeeping tick's stream runs its
// carry loop here.
__attribute__((aligned(64))) void
CacheModel::accessWithRange(Addr first, Addr last)
{
    if (first == replayFirst_ && last == replayLast_) {
        replay();
        return;
    }
    const std::size_t ways = ways_;
    const Addr mask = setMask_;
    Addr *const lines = lines_.data();
    std::uint64_t misses = 0;
    if (last - first < mask) {
        // Fewer lines than sets, so each set is touched at most once.
        const Addr rangeFirst = replayFirst_;
        const Addr rangeSpan = replayLast_ - replayFirst_;
        const Addr perSet = rangePerSet_;
        const Addr extra = rangeExtra_;
        const std::uint64_t *const dirty = dirty_.data();
        std::uint32_t *const deferred = deferred_.data();
        std::uint64_t *const deferredBits = deferredBits_.data();
        for (Addr line = first; line <= last; ++line) {
            const Addr set = line & mask;
            Addr *const row = lines + set * ways;
            // Wraps past rangeSpan for a line below the range.
            const Addr offset = line - rangeFirst;
            const bool clean = !(dirty[set >> 6] >> (set & 63) & 1);
            if (clean && offset > rangeSpan) {
                // Behind the set's k range lines: the order the next
                // replay would leave. Unless all of the set's other
                // slots already hold deferred lines, a miss there
                // evicts what it would in the full set.
                const std::size_t k = perSet + ((offset & mask) < extra);
                const std::uint32_t t = deferred[set];
                if (k + t < ways) {
                    const std::size_t w = touch(row + k, ways - k, line);
                    misses += w == ways - k;
                    if (w >= t) {
                        // A miss, or a hit below the deferred lines.
                        deferred[set] = t + 1;
                        deferredBits[set >> 6] |= std::uint64_t{1}
                                                  << (set & 63);
                    }
                    continue;
                }
            }
            markDirty(set);
            misses += touch(row, ways, line) == ways;
        }
    } else {
        // This access may set a new range, and otherwise dirties every
        // set: put the deferred sets back in LRU order first.
        forEachDeferred([this](Addr set) { markDirty(set); });
        misses = walk(lines, ways, mask, first, last);
        if (!remember(first, last)) {
            std::fill(dirty_.begin(), dirty_.end(), ~std::uint64_t{0});
            // Fewer than 64 sets: keep the bits of absent sets clear.
            if (mask + 1 < 64)
                dirty_[0] = ~std::uint64_t{0} >> (64 - (mask + 1));
        }
    }
    totals_.accesses += last - first + 1;
    totals_.misses += misses;
}

bool
CacheModel::remember(Addr first, Addr last)
{
    // One to `ways` lines in every set: each set now holds its lines
    // of this range MRU first, so remember it with every set clean.
    const Addr count = last - first + 1;
    const Addr sets = setMask_ + 1;
    if (count < sets || count > sets * ways_)
        return false;
    replayFirst_ = first;
    replayLast_ = last;
    rangePerSet_ = count >> std::countr_zero(sets);
    rangeExtra_ = count & setMask_;
    std::fill(dirty_.begin(), dirty_.end(), 0);
    return true;
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
    // A deferred set already holds what this replay would leave.
    forEachDeferred([this](Addr set) { deferred_[set] = 0; });
    totals_.accesses += last - first + 1;
    if (std::none_of(dirty_.begin(), dirty_.end(),
                     [](std::uint64_t w) { return w != 0; }))
        return;
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
                misses +=
                    touch(lines + (l & mask) * ways, ways, l) == ways;
        } else {
            for (std::uint64_t b = bits; b != 0; b &= b - 1) {
                const Addr l = line + std::countr_zero(b);
                misses +=
                    touch(lines + (l & mask) * ways, ways, l) == ways;
            }
        }
        line += span;
    }
    std::fill(dirty_.begin(), dirty_.end(), 0);
    totals_.misses += misses;
}

void
CacheModel::markDirty(Addr set)
{
    std::uint32_t &t = deferred_[set];
    if (t != 0) {
        Addr *const row = lines_.data() + set * ways_;
        const std::size_t k = rangeLines(set);
        std::rotate(row, row + k, row + k + t);
        t = 0;
    }
    dirty_[set >> 6] |= std::uint64_t{1} << (set & 63);
}

std::size_t
CacheModel::rangeLines(Addr set) const
{
    return rangePerSet_ + (((set - replayFirst_) & setMask_) < rangeExtra_);
}

void
CacheModel::snoopInvalidate(Addr addr, std::size_t size)
{
    if (size == 0)
        return;
    const Addr last = (addr + size - 1) >> lineShift_;
    for (Addr line = addr >> lineShift_; line <= last; ++line) {
        const Addr set = line & setMask_;
        Addr *const row = lines_.data() + set * ways_;
        Addr *const end = row + ways_;
        if (std::find(row, end, line) == end)
            continue;
        // In LRU order before the line leaves (a no-op on a set that
        // is not deferred).
        markDirty(set);
        Addr *const hit = std::find(row, end, line);
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

} // namespace hydra::hw
