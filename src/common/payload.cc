#include "common/payload.hh"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <vector>

#include "obs/metrics.hh"

namespace hydra {

namespace {

/**
 * The shared freelist of retired payload nodes. Bounded two ways: it
 * keeps at most kMaxFreeNodes, and buffers whose capacity outgrew
 * kMaxPooledCapacity are freed outright instead of being cached, so
 * one giant message cannot pin megabytes in the pool forever.
 */
constexpr std::size_t kMaxFreeNodes = 256;
constexpr std::size_t kMaxPooledCapacity = 512 * 1024;
/**
 * Each thread's cache in front of the shared list: up to kCacheNodes
 * nodes, refilled from and spilled to the shared list kCacheBatch at a
 * time. Worst case, every thread's cache is full on top of a full
 * shared list: (kMaxFreeNodes + threads * kCacheNodes) nodes of at
 * most kMaxPooledCapacity each stay retained.
 */
constexpr std::size_t kCacheNodes = 64;
constexpr std::size_t kCacheBatch = 32;

struct PayloadMetrics
{
    obs::Counter &allocations = obs::counter("payload.allocations");
    obs::Counter &poolHits = obs::counter("payload.pool_hits");
    obs::Counter &recycles = obs::counter("payload.recycles");
    obs::Counter &deepCopies = obs::counter("payload.deep_copies");
};

PayloadMetrics &
payloadMetrics()
{
    static PayloadMetrics metrics;
    return metrics;
}

/**
 * One thread's free nodes, a stack with nodes[count - 1] on top. Only
 * its thread touches the nodes; payloadPoolStats() reads count from
 * other threads under the pool mutex, so count is an atomic its owner
 * writes with a plain store. Trivially destructible, so the storage
 * outlives the exit flush (CacheFlusher) and late releases on an
 * exiting thread find state == Closed.
 */
struct ThreadCache
{
    enum class State : std::uint8_t { Unregistered, Live, Closed };

    detail::PayloadNode *nodes[kCacheNodes] = {};
    std::atomic<std::size_t> count{0};
    /**
     * The shared list's length when this thread last held the pool
     * mutex. On a single thread it is exact, so the cache and the
     * shared list together keep, hit and drop exactly the nodes one
     * kMaxFreeNodes-bounded LIFO list would: run results do not
     * depend on the cache. With more threads it is a hint, and each
     * thread may keep up to kCacheNodes beyond the bound.
     */
    std::size_t sharedSeen = 0;
    State state = State::Unregistered;

    std::size_t size() const { return count.load(std::memory_order_relaxed); }
    void setSize(std::size_t n) { count.store(n, std::memory_order_relaxed); }
};

constinit thread_local ThreadCache tl_cache;

/**
 * The shared list, the process-wide stats and the registry of live
 * thread caches; the list and the registry are guarded by `mutex`.
 * The stats are owner-thread counters, bumped without the mutex.
 */
struct Pool
{
    std::mutex mutex;
    detail::PayloadNode *freeList = nullptr;
    std::size_t freeNodes = 0;
    std::vector<ThreadCache *> caches;

    obs::Counter allocations;
    obs::Counter poolHits;
    obs::Counter recycles;
    obs::Counter deepCopies;
};

Pool &
pool()
{
    static Pool instance;
    return instance;
}

/** Top of the shared list, unlinked; the caller holds the mutex. */
detail::PayloadNode *
popShared(Pool &p)
{
    detail::PayloadNode *node = p.freeList;
    p.freeList = node->nextFree;
    node->nextFree = nullptr;
    --p.freeNodes;
    return node;
}

/** Push @p node on the shared list; the caller holds the mutex. */
void
pushShared(Pool &p, detail::PayloadNode *node)
{
    node->nextFree = p.freeList;
    p.freeList = node;
    ++p.freeNodes;
}

/** On thread exit: hand the cache to the shared list, deregister. */
void
closeCache(ThreadCache &cache)
{
    Pool &p = pool();
    std::lock_guard<std::mutex> lock(p.mutex);
    // Bottom first, so the shared list keeps the cache's order.
    for (std::size_t i = 0; i < cache.size(); ++i) {
        if (p.freeNodes < kMaxFreeNodes)
            pushShared(p, cache.nodes[i]);
        else
            delete cache.nodes[i];
    }
    cache.setSize(0);
    cache.state = ThreadCache::State::Closed;
    std::erase(p.caches, &cache);
}

struct CacheFlusher
{
    ~CacheFlusher() { closeCache(tl_cache); }
};

/** This thread's cache, registered on first use. */
ThreadCache &
threadCache()
{
    ThreadCache &cache = tl_cache;
    if (cache.state == ThreadCache::State::Unregistered) [[unlikely]] {
        static thread_local CacheFlusher flusher; // runs closeCache at exit
        (void)flusher;
        Pool &p = pool();
        std::lock_guard<std::mutex> lock(p.mutex);
        p.caches.push_back(&cache);
        cache.sharedSeen = p.freeNodes;
        cache.state = ThreadCache::State::Live;
    }
    return cache;
}

/**
 * The next free node for this thread, or nullptr when the pool is
 * empty. An empty live cache first refills up to kCacheBatch nodes
 * from the shared list, keeping their order; a closed cache takes the
 * shared top directly. @p fits says whether the top node is usable.
 */
template <typename Fits>
detail::PayloadNode *
takeFree(Fits fits)
{
    ThreadCache &cache = threadCache();
    std::size_t n = cache.size();
    if (n == 0) {
        Pool &p = pool();
        std::lock_guard<std::mutex> lock(p.mutex);
        if (cache.state == ThreadCache::State::Closed) {
            if (!p.freeList || !fits(p.freeList))
                return nullptr;
            return popShared(p);
        }
        n = std::min(kCacheBatch, p.freeNodes);
        for (std::size_t i = n; i-- > 0;)
            cache.nodes[i] = popShared(p);
        cache.sharedSeen = p.freeNodes;
        cache.setSize(n);
        if (n == 0)
            return nullptr;
    }
    detail::PayloadNode *node = cache.nodes[n - 1];
    if (!fits(node))
        return nullptr;
    cache.setSize(n - 1);
    return node;
}

} // namespace

namespace detail {

PayloadNode *
payloadAcquire()
{
    Pool &p = pool();
    if (PayloadNode *node = takeFree([](PayloadNode *) { return true; })) {
        node->storage.clear(); // keeps capacity
        p.poolHits.increment();
        payloadMetrics().poolHits.increment();
        return node;
    }
    p.allocations.increment();
    payloadMetrics().allocations.increment();
    return new PayloadNode();
}

PayloadNode *
payloadAdopt(Bytes &&bytes)
{
    // The incoming vector brings its own buffer; taking a pooled node
    // would waste the pooled capacity, so reuse only a node without
    // one, else allocate the wrapper only.
    Pool &p = pool();
    PayloadNode *node = takeFree(
        [](PayloadNode *top) { return top->storage.capacity() == 0; });
    if (node) {
        p.poolHits.increment();
        payloadMetrics().poolHits.increment();
    } else {
        p.allocations.increment();
        payloadMetrics().allocations.increment();
        node = new PayloadNode();
    }
    node->storage = std::move(bytes);
    return node;
}

void
payloadRelease(PayloadNode *node)
{
    if (node->storage.capacity() > kMaxPooledCapacity) {
        delete node;
        return;
    }
    Pool &p = pool();
    ThreadCache &cache = threadCache();
    const std::size_t n = cache.size();
    const bool live = cache.state == ThreadCache::State::Live;
    if (!live || n == kCacheNodes || cache.sharedSeen + n >= kMaxFreeNodes) {
        // The cache is full, or the pool looked full: settle it under
        // the lock with the shared list's true length.
        std::unique_lock<std::mutex> lock(p.mutex);
        if (p.freeNodes + n >= kMaxFreeNodes) {
            cache.sharedSeen = p.freeNodes;
            lock.unlock();
            delete node;
            return;
        }
        if (!live) {
            pushShared(p, node);
            p.recycles.increment();
            payloadMetrics().recycles.increment();
            return;
        }
        if (n == kCacheNodes) {
            // Spill the bottom batch, oldest first, under the top of
            // the shared list; the newer nodes stay cached.
            for (std::size_t i = 0; i < kCacheBatch; ++i)
                pushShared(p, cache.nodes[i]);
            std::copy(cache.nodes + kCacheBatch, cache.nodes + n,
                      cache.nodes);
            cache.setSize(n - kCacheBatch);
        }
        cache.sharedSeen = p.freeNodes;
    }
    const std::size_t top = cache.size();
    cache.nodes[top] = node;
    cache.setSize(top + 1);
    p.recycles.increment();
    payloadMetrics().recycles.increment();
}

void
payloadCountDeepCopy()
{
    pool().deepCopies.increment();
    payloadMetrics().deepCopies.increment();
}

} // namespace detail

Bytes
Payload::toBytes() const
{
    detail::payloadCountDeepCopy();
    return Bytes(begin(), end());
}

bool
operator==(const Payload &a, const Payload &b)
{
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size()) == 0);
}

bool
operator==(const Payload &a, const Bytes &b)
{
    return a.size() == b.size() &&
           (a.size() == 0 ||
            std::memcmp(a.data(), b.data(), a.size()) == 0);
}

PayloadPoolStats
payloadPoolStats()
{
    Pool &p = pool();
    PayloadPoolStats stats;
    stats.allocations = p.allocations.value();
    stats.poolHits = p.poolHits.value();
    stats.recycles = p.recycles.value();
    stats.deepCopies = p.deepCopies.value();
    std::lock_guard<std::mutex> lock(p.mutex);
    stats.freeNodes = p.freeNodes;
    for (const ThreadCache *cache : p.caches)
        stats.freeNodes += cache->size();
    return stats;
}

void
payloadPoolTrim()
{
    Pool &p = pool();
    ThreadCache &cache = threadCache();
    std::lock_guard<std::mutex> lock(p.mutex);
    while (p.freeList)
        delete popShared(p);
    for (std::size_t i = 0; i < cache.size(); ++i)
        delete cache.nodes[i];
    cache.setSize(0);
    cache.sharedSeen = 0;
}

} // namespace hydra
