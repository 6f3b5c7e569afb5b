/**
 * @file
 * Engine-aware locks for model state (DESIGN.md §10).
 *
 * A model object (bus, DMA engine, NIC, fabric, channel, executive
 * shard) is reached from several threads only when its engine runs
 * posted work on other threads: the threaded engine's site workers
 * and fleet drivers. The sim engine runs every event, post and timer
 * on the one thread that drives it, so a lock there protects nothing
 * and costs an atomic round trip per acquire.
 *
 * ModelMutex asks the engine once, at construction
 * (Executor::concurrentPosts()), and then either is a real mutex or
 * takes no lock at all. It is BasicLockable, so std::lock_guard and
 * std::unique_lock work unchanged. An engine never changes kind, so
 * the answer cannot go stale.
 */

#ifndef HYDRA_EXEC_MODEL_MUTEX_HH
#define HYDRA_EXEC_MODEL_MUTEX_HH

#include <mutex>

#include "exec/executor.hh"

namespace hydra::exec {

/** A @p Mutex that locks only when the engine runs posts concurrently. */
template <typename Mutex>
class BasicModelMutex
{
  public:
    explicit BasicModelMutex(const Executor &executor)
        : locking_(executor.concurrentPosts())
    {
    }

    BasicModelMutex(const BasicModelMutex &) = delete;
    BasicModelMutex &operator=(const BasicModelMutex &) = delete;

    /** True when lock() takes a real lock (the threaded engine). */
    bool locking() const { return locking_; }

    void
    lock()
    {
        if (locking_)
            mutex_.lock();
    }

    bool
    try_lock()
    {
        return !locking_ || mutex_.try_lock();
    }

    void
    unlock()
    {
        if (locking_)
            mutex_.unlock();
    }

  private:
    const bool locking_;
    Mutex mutex_;
};

using ModelMutex = BasicModelMutex<std::mutex>;
/** For state a handler may re-enter on the same thread. */
using RecursiveModelMutex = BasicModelMutex<std::recursive_mutex>;

} // namespace hydra::exec

#endif // HYDRA_EXEC_MODEL_MUTEX_HH
