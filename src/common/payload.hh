/**
 * @file
 * Refcounted, immutable message payloads (the zero-copy fabric).
 *
 * Every hop of the data path — channel writes, scheduled delivery
 * lambdas, DMA completions, backlog entries, multicast fan-out,
 * network packets — used to deep-copy its `Bytes` buffer. A Payload
 * is a shared, immutable view of one heap buffer: copying a Payload
 * bumps a reference count, never the bytes. Sub-ranges (a Data
 * message's body inside its frame) are zero-copy slices of the same
 * buffer.
 *
 * Buffers come from a process-wide pool so steady-state message
 * traffic recycles capacity instead of hitting the allocator: a
 * bounded per-thread cache in front of one mutex-guarded shared list,
 * which the cache refills from and spills to in batches (DESIGN.md
 * §9). The fabric is thread-safe: refcounts are atomic (relaxed
 * increments, acquire/release decrement — the standard
 * shared-ownership protocol), so Payloads may be handed between
 * execution sites through the threaded executor's SPSC rings, and a
 * buffer released on another thread than the one that built it goes
 * to the releasing thread's cache.
 *
 * Ownership model: whoever holds a Payload may read it, nobody may
 * mutate it. Producers build content in a PayloadBuilder (or a
 * `Bytes` they std::move in) and freeze it by constructing the
 * Payload; after that the buffer is shared and read-only until the
 * last reference drops, at which point the pool may recycle it.
 */

#ifndef HYDRA_COMMON_PAYLOAD_HH
#define HYDRA_COMMON_PAYLOAD_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/bytes.hh"

namespace hydra {

namespace detail {

/** Heap node behind a Payload: one buffer plus its reference count. */
struct PayloadNode
{
    Bytes storage;
    std::atomic<std::uint32_t> refs{0};
    PayloadNode *nextFree = nullptr;
};

/** Pool: node with recycled capacity (pool hit) or a fresh one. */
PayloadNode *payloadAcquire();
/** Pool: node adopting @p bytes (no pool lookup, no copy). */
PayloadNode *payloadAdopt(Bytes &&bytes);
/** Refcount hit zero: recycle the node's capacity or free it. */
void payloadRelease(PayloadNode *node);
/** Count one content copy into or out of a Payload. */
void payloadCountDeepCopy();

} // namespace detail

/** Pool/copy counters, mirrored in the obs registry as payload.*. */
struct PayloadPoolStats
{
    std::uint64_t allocations = 0; ///< nodes taken from the heap
    std::uint64_t poolHits = 0;    ///< nodes reused from the freelist
    std::uint64_t recycles = 0;    ///< nodes returned to the freelist
    std::uint64_t deepCopies = 0;  ///< content copies (in or out)
    /** Free nodes right now: the shared list plus every live thread's
     * cache. */
    std::size_t freeNodes = 0;
};

PayloadPoolStats payloadPoolStats();

/**
 * Drop the shared list and the calling thread's cache (tests; between
 * benchmark configs). Other live threads keep their caches until they
 * exit, when they flush to the shared list.
 */
void payloadPoolTrim();

/** Immutable, refcounted view of a byte buffer (or a sub-range). */
class Payload
{
  public:
    Payload() = default;

    /** Adopt @p bytes: zero-copy, the vector's buffer is frozen. */
    Payload(Bytes &&bytes)
        : node_(detail::payloadAdopt(std::move(bytes)))
    {
        node_->refs.store(1, std::memory_order_relaxed);
        len_ = node_->storage.size();
    }

    /** Deep copy (counted in payload.deep_copies) — keep this rare. */
    explicit Payload(const Bytes &bytes)
        : Payload(copyOf(bytes.data(), bytes.size()))
    {
    }

    Payload(const Payload &other)
        : node_(other.node_), off_(other.off_), len_(other.len_)
    {
        if (node_)
            node_->refs.fetch_add(1, std::memory_order_relaxed);
    }

    Payload(Payload &&other) noexcept
        : node_(other.node_), off_(other.off_), len_(other.len_)
    {
        other.node_ = nullptr;
        other.off_ = 0;
        other.len_ = 0;
    }

    Payload &
    operator=(const Payload &other)
    {
        if (this == &other)
            return *this;
        Payload tmp(other);
        swap(tmp);
        return *this;
    }

    Payload &
    operator=(Payload &&other) noexcept
    {
        if (this == &other)
            return *this;
        release();
        node_ = other.node_;
        off_ = other.off_;
        len_ = other.len_;
        other.node_ = nullptr;
        other.off_ = 0;
        other.len_ = 0;
        return *this;
    }

    ~Payload() { release(); }

    /** Deep-copy @p size bytes into a fresh (pooled) buffer. */
    static Payload copyOf(const std::uint8_t *data, std::size_t size);

    const std::uint8_t *
    data() const
    {
        return node_ ? node_->storage.data() + off_ : nullptr;
    }

    std::size_t size() const { return len_; }
    bool empty() const { return len_ == 0; }

    const std::uint8_t *begin() const { return data(); }
    const std::uint8_t *end() const { return data() + len_; }

    std::uint8_t
    operator[](std::size_t index) const
    {
        return node_->storage[off_ + index];
    }

    /** Zero-copy sub-range sharing this buffer; clamped to bounds. */
    Payload
    slice(std::size_t offset, std::size_t length) const
    {
        Payload out;
        if (!node_ || offset >= len_)
            return out;
        out.node_ = node_;
        out.node_->refs.fetch_add(1, std::memory_order_relaxed);
        out.off_ = off_ + offset;
        out.len_ = length < len_ - offset ? length : len_ - offset;
        return out;
    }

    /** Materialize a mutable copy (counted in payload.deep_copies). */
    Bytes toBytes() const;

    /** References on the underlying buffer (0 for empty payloads). */
    std::uint32_t
    refCount() const
    {
        return node_ ? node_->refs.load(std::memory_order_relaxed) : 0;
    }

    void
    swap(Payload &other) noexcept
    {
        std::swap(node_, other.node_);
        std::swap(off_, other.off_);
        std::swap(len_, other.len_);
    }

  private:
    friend class PayloadBuilder;

    void
    release()
    {
        // acq_rel: the release half publishes this owner's reads; the
        // acquire half (in whoever drops the last ref) synchronizes
        // with them before the buffer is recycled.
        if (node_ &&
            node_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1)
            detail::payloadRelease(node_);
        node_ = nullptr;
    }

    detail::PayloadNode *node_ = nullptr;
    std::size_t off_ = 0;
    std::size_t len_ = 0;
};

bool operator==(const Payload &a, const Payload &b);
bool operator==(const Payload &a, const Bytes &b);
inline bool
operator==(const Bytes &a, const Payload &b)
{
    return b == a;
}

/**
 * Builds one message in a pooled buffer, then freezes it.
 *
 *   PayloadBuilder builder;
 *   ByteWriter writer(builder.buffer());
 *   writer.writeU8(...);
 *   Payload message = builder.seal();
 *
 * buffer() is writable only until seal(); the builder may be reused
 * afterwards (it acquires a fresh pooled buffer on next use).
 */
class PayloadBuilder
{
  public:
    PayloadBuilder() = default;
    ~PayloadBuilder()
    {
        if (node_)
            detail::payloadRelease(node_);
    }

    PayloadBuilder(const PayloadBuilder &) = delete;
    PayloadBuilder &operator=(const PayloadBuilder &) = delete;

    /** The writable (pooled) buffer content is accumulated into. */
    Bytes &
    buffer()
    {
        if (!node_)
            node_ = detail::payloadAcquire();
        return node_->storage;
    }

    /** Freeze the buffer into an immutable Payload. */
    Payload
    seal()
    {
        Payload out;
        if (!node_)
            node_ = detail::payloadAcquire();
        node_->refs.store(1, std::memory_order_relaxed);
        out.node_ = node_;
        out.len_ = node_->storage.size();
        node_ = nullptr;
        return out;
    }

  private:
    detail::PayloadNode *node_ = nullptr;
};

/** CRC32 over a payload's visible range. */
inline std::uint32_t
crc32(const Payload &data)
{
    return crc32(data.data(), data.size());
}

} // namespace hydra

#endif // HYDRA_COMMON_PAYLOAD_HH
