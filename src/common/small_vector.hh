/**
 * @file
 * A vector whose first N elements live inside the object.
 *
 * A unicast channel holds two endpoints, two rings and a 2x2
 * sequence table for its whole life, and stream churn creates and
 * destroys thousands of such channels. Keeping that per-channel
 * state inline makes a create cost one allocation (the channel
 * itself) instead of one per side table. Past N elements the storage
 * moves to the heap and grows like std::vector, so multicast
 * channels keep working unchanged.
 *
 * As with std::vector, growth past the capacity moves every element,
 * invalidating references to them. Elements must move without
 * throwing. Not copyable or movable: the owners are pinned objects.
 */

#ifndef HYDRA_COMMON_SMALL_VECTOR_HH
#define HYDRA_COMMON_SMALL_VECTOR_HH

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace hydra {

template <typename T, std::size_t N>
class SmallVector
{
    static_assert(N > 0, "use std::vector for no inline slots");
    static_assert(std::is_nothrow_move_constructible_v<T>,
                  "SmallVector elements must move without throwing");

  public:
    SmallVector() = default;
    ~SmallVector()
    {
        clear();
        release();
    }

    SmallVector(const SmallVector &) = delete;
    SmallVector &operator=(const SmallVector &) = delete;

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    T *begin() { return data_; }
    T *end() { return data_ + size_; }
    const T *begin() const { return data_; }
    const T *end() const { return data_ + size_; }

    T &operator[](std::size_t i) { return data_[i]; }
    const T &operator[](std::size_t i) const { return data_[i]; }

    template <typename... Args>
    T &
    emplace_back(Args &&...args)
    {
        if (size_ == capacity_)
            reallocate(2 * capacity_);
        T *slot = ::new (static_cast<void *>(data_ + size_))
            T(std::forward<Args>(args)...);
        ++size_;
        return *slot;
    }

    void push_back(T value) { emplace_back(std::move(value)); }

    /** Grow with value-initialized elements, or shrink from the end. */
    void
    resize(std::size_t count)
    {
        if (count > capacity_)
            reallocate(std::max(count, 2 * capacity_));
        while (size_ < count)
            emplace_back();
        while (size_ > count)
            data_[--size_].~T();
    }

    void
    clear()
    {
        std::destroy(begin(), end());
        size_ = 0;
    }

  private:
    T *inlineData() { return reinterpret_cast<T *>(inline_); }

    void
    reallocate(std::size_t capacity)
    {
        T *grown = std::allocator<T>().allocate(capacity);
        std::uninitialized_move(begin(), end(), grown);
        std::destroy(begin(), end());
        release();
        data_ = grown;
        capacity_ = capacity;
    }

    /** Free heap storage (inline storage needs nothing). */
    void
    release()
    {
        if (data_ != inlineData())
            std::allocator<T>().deallocate(data_, capacity_);
    }

    alignas(T) unsigned char inline_[N * sizeof(T)];
    T *data_ = inlineData();
    std::size_t size_ = 0;
    std::size_t capacity_ = N;
};

} // namespace hydra

#endif // HYDRA_COMMON_SMALL_VECTOR_HH
