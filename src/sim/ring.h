/**
 * @file
 * Fixed-capacity ring buffer for the core model's ROB/LSQ queues.
 *
 * std::deque pays a heap-backed block map and a double-branch per
 * push/pop; the core's queues are bounded by the configuration
 * (rob_size / lsq_size entries), so a power-of-two ring with masked
 * indices turns every hot-path operation into an array access.  If a
 * push ever exceeds the reserved capacity the ring grows (re-linearising
 * its contents) rather than asserting, so callers never have to prove
 * their bound.
 */
#ifndef RNR_SIM_RING_H
#define RNR_SIM_RING_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ckpt/serde.h"

namespace rnr {

/** Bounded FIFO over a power-of-two array with masked indices. */
template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) { reset(capacity); }

    /** Empties the ring and reserves room for @p capacity entries. */
    void
    reset(std::size_t capacity)
    {
        std::size_t pow2 = 1;
        while (pow2 < capacity + 1)
            pow2 <<= 1;
        slots_.assign(pow2, T());
        mask_ = pow2 - 1;
        head_ = tail_ = 0;
    }

    bool empty() const { return head_ == tail_; }
    std::size_t size() const { return (tail_ - head_) & mask_; }

    const T &front() const { return slots_[head_]; }
    void pop_front() { head_ = (head_ + 1) & mask_; }

    void
    push_back(const T &v)
    {
        if (size() == mask_)
            grow();
        slots_[tail_] = v;
        tail_ = (tail_ + 1) & mask_;
    }

    void clear() { head_ = tail_ = 0; }

    /** i-th element from the front (0 <= i < size()); iteration. */
    const T &at(std::size_t i) const { return slots_[(head_ + i) & mask_]; }
    T &at(std::size_t i) { return slots_[(head_ + i) & mask_]; }

    /** Checkpoint visitor: occupancy count + elements front-to-back.
     *  Loading refills through push_back, so capacity grows as needed
     *  and the restored ring drains identically to the original. */
    template <class Ar>
    void
    visitState(Ar &ar)
    {
        std::uint64_t n = size();
        ar.scalar(n);
        if constexpr (Ar::kLoading) {
            clear();
            if (!ckpt::checkCount(ar, n, 8))
                return;
            for (std::uint64_t i = 0; i < n; ++i) {
                T v{};
                ckpt::visitValue(ar, v);
                push_back(v);
            }
        } else {
            for (std::uint64_t i = 0; i < n; ++i)
                ckpt::visitValue(ar, const_cast<T &>(at(i)));
        }
    }

  private:
    void
    grow()
    {
        std::vector<T> bigger((mask_ + 1) * 2, T());
        const std::size_t n = size();
        for (std::size_t i = 0; i < n; ++i)
            bigger[i] = at(i);
        slots_.swap(bigger);
        mask_ = slots_.size() - 1;
        head_ = 0;
        tail_ = n;
    }

    std::vector<T> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t tail_ = 0;
};

} // namespace rnr

#endif // RNR_SIM_RING_H
