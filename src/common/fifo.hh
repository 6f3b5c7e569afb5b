/**
 * @file
 * A single-threaded FIFO queue backed by one vector plus a head index.
 *
 * Channel endpoints and ring backlogs are created and destroyed on
 * every stream churn, and almost all of them stay empty. std::deque
 * allocates a block and a map even when empty, allocates again on
 * move, and is not nothrow-movable (so every growth of a vector that
 * holds deques copies them). Fifo allocates nothing until an element
 * is pushed and moves without throwing. Popping releases the element
 * at once (a queued Payload goes back to the pool), and the popped
 * prefix is compacted away once it is at least half of the storage,
 * so each element moves at most once per compaction and push/pop stay
 * amortized O(1).
 *
 * References from front() stay valid until the next push or pop.
 */

#ifndef HYDRA_COMMON_FIFO_HH
#define HYDRA_COMMON_FIFO_HH

#include <cstddef>
#include <type_traits>
#include <utility>
#include <vector>

namespace hydra {

template <typename T>
class Fifo
{
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "Fifo elements must move without throwing");

  public:
    /** Popped prefix length below which push never compacts. */
    static constexpr std::size_t kCompactMin = 32;

    bool empty() const noexcept { return head_ == items_.size(); }
    std::size_t size() const noexcept { return items_.size() - head_; }

    T &front() { return items_[head_]; }
    const T &front() const { return items_[head_]; }

    void
    push_back(T value)
    {
        if (head_ >= kCompactMin && 2 * head_ >= items_.size())
            compact();
        items_.push_back(std::move(value));
    }

    /** Drop the front element now (its resources are released here). */
    void
    pop_front()
    {
        items_[head_] = T();
        if (++head_ == items_.size()) {
            // Drained: reuse the storage from the start.
            items_.clear();
            head_ = 0;
        }
    }

  private:
    void
    compact()
    {
        items_.erase(items_.begin(),
                     items_.begin() + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }

    std::vector<T> items_;
    std::size_t head_ = 0;
};

} // namespace hydra

#endif // HYDRA_COMMON_FIFO_HH
