/**
 * @file
 * Recency list for small fully-associative tables on hot paths.
 *
 * A std::list LRU allocates a node per insert and a table keeping
 * list iterators in a hash map pays two pointer chases per touch.
 * LruList keeps its nodes in one vector and links them by index, so a
 * table can map its keys to a node's index in a FlatMap
 * (sim/flat_map.h) and move, push and pop in O(1) without allocating
 * once the list has reached its working size.  A popped node's index
 * is reused by the next push.
 */
#ifndef RNR_SIM_LRU_LIST_H
#define RNR_SIM_LRU_LIST_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace rnr {

/** Keys in recency order, least recent at the front (see file comment). */
class LruList
{
  public:
    using Index = std::uint32_t;

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Key of the least recently used node.  Requires !empty(). */
    std::uint64_t
    front() const
    {
        assert(!empty());
        return nodes_[head_].key;
    }

    /** Appends @p key as the most recent node; returns its index. */
    Index
    pushBack(std::uint64_t key)
    {
        Index i;
        if (free_ != kNone) {
            i = free_;
            free_ = nodes_[i].next;
        } else {
            i = static_cast<Index>(nodes_.size());
            nodes_.push_back({});
        }
        nodes_[i].key = key;
        link(i);
        ++size_;
        return i;
    }

    /** Removes the least recently used node.  Requires !empty(). */
    void
    popFront()
    {
        assert(!empty());
        const Index i = head_;
        unlink(i);
        nodes_[i].next = free_;
        free_ = i;
        --size_;
    }

    /** Makes node @p i (from pushBack) the most recent. */
    void
    touch(Index i)
    {
        if (i == tail_)
            return;
        unlink(i);
        link(i);
    }

  private:
    static constexpr Index kNone = ~Index{0};

    struct Node {
        std::uint64_t key = 0;
        Index prev = kNone;
        Index next = kNone; ///< Also chains the free list.
    };

    /** Links node @p i in at the most recent end. */
    void
    link(Index i)
    {
        nodes_[i].prev = tail_;
        nodes_[i].next = kNone;
        if (tail_ != kNone)
            nodes_[tail_].next = i;
        else
            head_ = i;
        tail_ = i;
    }

    void
    unlink(Index i)
    {
        const Node &n = nodes_[i];
        if (n.prev != kNone)
            nodes_[n.prev].next = n.next;
        else
            head_ = n.next;
        if (n.next != kNone)
            nodes_[n.next].prev = n.prev;
        else
            tail_ = n.prev;
    }

    std::vector<Node> nodes_;
    Index head_ = kNone;
    Index tail_ = kNone;
    Index free_ = kNone;
    std::size_t size_ = 0;
};

} // namespace rnr

#endif // RNR_SIM_LRU_LIST_H
