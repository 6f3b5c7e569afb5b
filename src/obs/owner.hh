/**
 * @file
 * Owner-thread cells: the one write scheme Counter and Histogram share.
 *
 * Most instruments have a single writer for their whole life: the sim
 * engine runs every event on one thread, and a threaded-engine site's
 * instruments are bumped from that site's worker. An atomic
 * read-modify-write costs that writer a locked instruction per update
 * (8–9 ns uncontended on a 4-vCPU Xeon VM, in a tight loop; a load and
 * a store on the same cell measured ≈3 ns there, the latency of
 * forwarding the last store, and less when other work separates
 * the bumps). So each instrument keeps two cells:
 *
 *  - an *owned* cell, written only by the first thread that writes the
 *    instrument, with a relaxed load and a relaxed store;
 *  - a *shared* cell every other thread adds into with atomic
 *    read-modify-writes.
 *
 * Readers sum the two, so no increment is lost whichever thread makes
 * it. Ownership never moves: an instrument whose first writer is the
 * main thread and whose later writer is a worker simply pays the
 * shared path's atomic, as every write did before. reset() zeroes both
 * cells and must only run while no thread writes the instrument.
 */

#ifndef HYDRA_OBS_OWNER_HH
#define HYDRA_OBS_OWNER_HH

#include <atomic>
#include <cstdint>

namespace hydra::obs {

/** Which thread may write an instrument's owned cell. */
class OwnerThread
{
  public:
    /**
     * True when the calling thread owns the cells, claiming them when
     * no thread has written yet. Once it returns true on a thread it
     * returns true there for the instrument's life.
     */
    bool
    held() const
    {
        const void *self = token();
        const void *owner = owner_.load(std::memory_order_relaxed);
        if (owner == self) [[likely]]
            return true;
        return owner == nullptr &&
               owner_.compare_exchange_strong(owner, self,
                                              std::memory_order_relaxed);
    }

  private:
    /**
     * The calling thread's identity: the address of a thread-local,
     * distinct for every live thread. A thread that starts after the
     * owner exited may get the same address and inherit the cells,
     * which is safe: thread exit and start order their writes.
     */
    static const void *
    token()
    {
        static thread_local char anchor;
        return &anchor;
    }

    mutable std::atomic<const void *> owner_{nullptr};
};

/** Add @p n to a cell only the calling thread writes. */
inline void
addOwned(std::atomic<std::uint64_t> &cell, std::uint64_t n)
{
    cell.store(cell.load(std::memory_order_relaxed) + n,
               std::memory_order_relaxed);
}

} // namespace hydra::obs

#endif // HYDRA_OBS_OWNER_HH
