/**
 * @file
 * Trace-driven set-associative cache model.
 *
 * Used as the host L2 (256 kB in the paper's testbed) to reproduce
 * Fig. 10: host-side data copies stream through the cache and evict
 * resident lines, while device DMA bypasses the cache entirely (it
 * only snoop-invalidates the lines it overwrites).
 */

#ifndef HYDRA_HW_CACHE_HH
#define HYDRA_HW_CACHE_HH

#include <cstdint>
#include <vector>

namespace hydra::hw {

/** Physical-ish address within the modeled machine. */
using Addr = std::uint64_t;

/** Cache access statistics over a measurement window. */
struct CacheStats
{
    std::uint64_t accesses = 0;
    std::uint64_t misses = 0;

    double
    missRate() const
    {
        return accesses == 0
                   ? 0.0
                   : static_cast<double>(misses) /
                         static_cast<double>(accesses);
    }
};

/**
 * Set-associative LRU cache with write-allocate policy.
 *
 * Each set is a row of `ways` line numbers in one flat array, ordered
 * most recently used first; empty slots hold a sentinel and sit at the
 * tail, so a miss fills a free slot before it evicts the LRU line.
 *
 * Clean-set replay: a range access that puts between one and `ways`
 * lines in every set leaves each set's lines of the range MRU first in
 * reverse access order, so running the same range again on a set
 * nothing else touched since is all hits and changes nothing. The
 * model remembers the last such range and a bitmap of the sets changed
 * since; a repeat of that range walks only the marked sets and counts
 * the rest as hits.
 *
 * Deferred replay: a line outside the range that lands in a clean set
 * holding k range lines is stored at slot k, behind them, which is
 * where the next replay would move it. The set stays clean and counts
 * the t lines so stored; the next replay only resets that count. An
 * operation that cannot keep this order (a touch of a range line, a
 * miss that would evict a range line, a snoop, an access of numSets()
 * lines or more) first rotates the t lines back in front of the range
 * lines, which is the set's true LRU order, and marks the set dirty.
 * Miss counts and set contents are the same as without either
 * shortcut.
 */
class CacheModel
{
  public:
    /**
     * @param capacity_bytes Total capacity (e.g. 256 kB).
     * @param line_bytes Line size (e.g. 64 B).
     * @param ways Associativity (e.g. 8).
     * @throws std::invalid_argument unless line size and set count are
     *         powers of two, the line size is at least 2 B, ways is
     *         non-zero and the capacity is a multiple of line x ways.
     */
    CacheModel(std::size_t capacity_bytes, std::size_t line_bytes,
               std::size_t ways);

    /** CPU access to [addr, addr+size); read or write. */
    void access(Addr addr, std::size_t size, bool is_write);

    /** Device DMA overwrote host memory: invalidate covered lines. */
    void snoopInvalidate(Addr addr, std::size_t size);

    /** Running totals since construction. */
    const CacheStats &totals() const { return totals_; }

    /** Stats accumulated since the last beginWindow() call. */
    CacheStats windowStats() const;

    /** Start a new measurement window (paper samples every 5 s). */
    void beginWindow();

    std::size_t lineBytes() const { return std::size_t{1} << lineShift_; }
    std::size_t numSets() const { return setMask_ + 1; }

  private:
    /** Marks an empty slot; no line number reaches it (lines >= 2 B). */
    static constexpr Addr kEmpty = ~Addr{0};

    /** access() of lines first..last while a range is remembered. */
    void accessWithRange(Addr first, Addr last);
    /** Remember lines first..last if they put one to `ways` lines in
     *  every set; returns whether they did. */
    bool remember(Addr first, Addr last);
    /** Re-run the remembered range on its dirty sets only. */
    void replay();
    /** Rotate @p set back to LRU order if deferred, and mark it dirty. */
    void markDirty(Addr set);
    /** Call @p fn on each set deferredBits_ marks, clearing the marks. */
    template <typename Fn> void forEachDeferred(Fn fn);
    /** Lines of the remembered range that map to @p set. */
    std::size_t rangeLines(Addr set) const;

    unsigned lineShift_;
    Addr setMask_;
    std::size_t ways_;
    /** numSets() rows of ways_ line numbers, MRU first. */
    std::vector<Addr> lines_;
    /** Line numbers of the remembered range; kEmpty until one is. */
    Addr replayFirst_ = kEmpty;
    Addr replayLast_ = kEmpty;
    /** Range lines per set, and the count of sets (from the range's
     *  first) that hold one more. */
    Addr rangePerSet_ = 0;
    Addr rangeExtra_ = 0;
    /** One bit per set changed since the remembered range last ran. */
    std::vector<std::uint64_t> dirty_;
    /** Per set: lines stored behind the range lines since the last
     *  replay (a clean set's t); 0 unless deferred. */
    std::vector<std::uint32_t> deferred_;
    /** One bit per set made deferred since the last replay. */
    std::vector<std::uint64_t> deferredBits_;
    CacheStats totals_;
    CacheStats windowBase_;
};

} // namespace hydra::hw

#endif // HYDRA_HW_CACHE_HH
