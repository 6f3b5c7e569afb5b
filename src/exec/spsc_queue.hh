/**
 * @file
 * Bounded single-producer/single-consumer ring (the threaded
 * executor's inter-site handoff). Lock-free and wait-free on both
 * ends: one producer thread calls push(), one consumer thread calls
 * pop()/popBatch(), synchronized by two acquire/release indices. Each
 * side keeps a cached copy of the other's index so the common case
 * touches only one shared cache line.
 *
 * popBatch() amortizes the index publication on the consumer side: it
 * consumes N items with ONE head store. Consumed slots are reset to a
 * default-constructed T before the head index is published, so
 * resources the slot held (pooled Payload buffers inside queued
 * closures) release at consumption time instead of living until the
 * ring wraps and overwrites the slot.
 */

#ifndef HYDRA_EXEC_SPSC_QUEUE_HH
#define HYDRA_EXEC_SPSC_QUEUE_HH

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

namespace hydra::exec {

template <typename T>
class SpscQueue
{
  public:
    /** @param capacity Slot count; rounded up to a power of two. */
    explicit SpscQueue(std::size_t capacity)
    {
        std::size_t rounded = 1;
        while (rounded < capacity)
            rounded <<= 1;
        slots_.resize(rounded);
        mask_ = rounded - 1;
    }

    SpscQueue(const SpscQueue &) = delete;
    SpscQueue &operator=(const SpscQueue &) = delete;

    /** Producer side. False when the ring is full. */
    bool
    push(T &&item)
    {
        const std::size_t tail = tail_.load(std::memory_order_relaxed);
        if (tail - cachedHead_ > mask_) {
            cachedHead_ = head_.load(std::memory_order_acquire);
            if (tail - cachedHead_ > mask_)
                return false;
        }
        slots_[tail & mask_] = std::move(item);
        tail_.store(tail + 1, std::memory_order_release);
        return true;
    }

    /** Consumer side. False when the ring is empty. */
    bool
    pop(T &out)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        if (head == cachedTail_) {
            cachedTail_ = tail_.load(std::memory_order_acquire);
            if (head == cachedTail_)
                return false;
        }
        out = std::move(slots_[head & mask_]);
        // Reset the consumed slot: a moved-from T may legally keep its
        // old value (and the resources it pins) alive until the ring
        // wraps back around; pooled Payload refs must drop now.
        slots_[head & mask_] = T();
        head_.store(head + 1, std::memory_order_release);
        return true;
    }

    /**
     * Consumer side: move up to @p max items into @p out, publishing
     * ONE head store for the whole batch. Consumed slots are reset.
     * Returns the number popped: @p max when at least that many were
     * queued at the call, 0 when empty.
     */
    std::size_t
    popBatch(T *out, std::size_t max)
    {
        const std::size_t head = head_.load(std::memory_order_relaxed);
        std::size_t avail = cachedTail_ - head;
        // A cached tail that cannot fill the batch may be stale: the
        // producer can have pushed since it was read.
        if (avail < max) {
            cachedTail_ = tail_.load(std::memory_order_acquire);
            avail = cachedTail_ - head;
        }
        const std::size_t count = max < avail ? max : avail;
        for (std::size_t i = 0; i < count; ++i) {
            T &slot = slots_[(head + i) & mask_];
            out[i] = std::move(slot);
            slot = T();
        }
        if (count > 0)
            head_.store(head + count, std::memory_order_release);
        return count;
    }

    /** Racy size hint (either side; exact only on the caller's end). */
    std::size_t
    sizeHint() const
    {
        return tail_.load(std::memory_order_acquire) -
               head_.load(std::memory_order_acquire);
    }

    std::size_t capacity() const { return mask_ + 1; }

  private:
    std::vector<T> slots_;
    std::size_t mask_ = 0;

    alignas(64) std::atomic<std::size_t> head_{0}; ///< consumer-owned
    alignas(64) std::size_t cachedTail_ = 0;       ///< consumer-local
    alignas(64) std::atomic<std::size_t> tail_{0}; ///< producer-owned
    alignas(64) std::size_t cachedHead_ = 0;       ///< producer-local
};

} // namespace hydra::exec

#endif // HYDRA_EXEC_SPSC_QUEUE_HH
