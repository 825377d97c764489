#include "par/shard.hh"

namespace transputer::par
{

Inbox::~Inbox()
{
    Node *n = head_.exchange(nullptr, std::memory_order_acquire);
    while (n) {
        Node *next = n->next;
        delete n;
        n = next;
    }
}

void
Inbox::push(Tick when, const sim::EventKey &key,
            const sim::TypedEvent &ev)
{
    Node *node = new Node{when, key, ev, nullptr};
    pushes_.fetch_add(1, std::memory_order_relaxed);
    node->next = head_.load(std::memory_order_relaxed);
    while (!head_.compare_exchange_weak(node->next, node,
                                        std::memory_order_release,
                                        std::memory_order_relaxed)) {
        // node->next refreshed by the failed CAS
    }
}

size_t
Inbox::drainTo(sim::EventQueue &q)
{
    Node *n = head_.exchange(nullptr, std::memory_order_acquire);
    size_t count = 0;
    while (n) {
        q.scheduleTyped(n->when, n->key, n->ev);
        Node *next = n->next;
        delete n;
        n = next;
        ++count;
    }
    return count;
}

} // namespace transputer::par
