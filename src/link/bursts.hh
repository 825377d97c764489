/**
 * @file
 * Message-level link bursts: the Figure 1 protocol of a clean message
 * in closed form.
 *
 * A link is an autonomous DMA engine: once a process has executed
 * `in` or `out` the processor is out of the loop, and a message
 * streams at one data packet per max(11, 4 + 2 x propagation) bit
 * times because each acknowledge overlaps the next packet.  The
 * per-byte path spends three queue events per byte on it (data start,
 * data end, acknowledge).  When both ends of a link are engines on
 * one queue, both CPUs are idle, the receiver already waits in `in`
 * with room for the rest of the message and nothing observes or
 * disturbs either line, the sender instead opens a *burst*: the rest
 * of the message's schedule follows in closed form, and two events
 * stand for it -- the last acknowledge at the sender and the last data
 * bit at the receiver -- each under the exact (tick, key) of the
 * per-byte delivery it replaces.
 *
 * Every per-byte delivery in between is *implied*.  Anything that acts
 * on either node first settles the burst at the point (tick, key) it
 * acts: the event queue's settle hook (sim::EventQueue::setSettle)
 * runs before any event of either node's group dispatches, and CPU
 * wakes, stalls and kills, calls into either line and the engine and
 * line counter readers touch() their group.  Settling applies the
 * implied per-byte effects ordered before that point and queues the
 * deliveries then pending as ordinary ones, with the keys and line
 * sequence numbers they would have had, so the per-byte path takes
 * over exactly where it would have been.
 *
 * Memory: the sender's bytes are read when their effect is applied,
 * not when their packet left.  That is exact because nothing writes
 * an idle sender's memory without settling first: a node may be the
 * sender of several open bursts, or the receiver of one, never both.
 */

#ifndef TRANSPUTER_LINK_BURSTS_HH
#define TRANSPUTER_LINK_BURSTS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "base/types.hh"
#include "sim/event_queue.hh"

namespace transputer::link
{

class LinkEngine;

/** The open bursts of one event queue (owned by net::Network). */
class Bursts
{
  public:
    /** Registers the settle hook on q. */
    explicit Bursts(sim::EventQueue &q);
    ~Bursts();
    Bursts(const Bursts &) = delete;
    Bursts &operator=(const Bursts &) = delete;

    /**
     * Size the per-node lists to the queue's current topology.  No
     * burst may be open (settleAll first).
     */
    void reset();

    /**
     * Carry the rest of tx's output as a burst, if the link allows it.
     * Called by the sender where the per-byte path would transmit the
     * byte it has just read, at not_before.
     * @return true if opened: the byte is on the wire.
     */
    bool open(LinkEngine &tx, Tick not_before);

    /** Settle every open burst at the queue's current point. */
    void settleAll();

    /** Bytes whose data packet left inside a burst, bursts opened,
     *  and bursts settled before their own last event. */
    uint64_t bytes() const { return bytes_; }
    uint64_t opened() const { return opened_; }
    uint64_t settledEarly() const { return settledEarly_; }

  private:
    struct Burst;
    static constexpr uint32_t kNil = UINT32_MAX;

    static void settleHook(void *ctx, uint32_t group, Tick when,
                           const sim::EventKey &key);
    void settleGroup(uint32_t group, Tick when, const sim::EventKey &key);
    /** Apply b's implied effects ordered before (when, key), queue the
     *  deliveries then pending (but the one at exactly that point,
     *  which its own event is dispatching) and close b. */
    void settle(Burst &b, Tick when, const sim::EventKey &key);
    /** b's last acknowledge (ack) or last data bit arrives. */
    void finish(Burst &b, bool ack);
    void close(Burst &b);

    sim::EventQueue &queue_;
    std::vector<std::unique_ptr<Burst>> pool_; ///< records, reused
    std::vector<uint32_t> free_;               ///< idle pool indices
    std::vector<uint32_t> head_; ///< per group: first burst touching it
    uint64_t bytes_ = 0;
    uint64_t opened_ = 0;
    uint64_t settledEarly_ = 0;
};

} // namespace transputer::link

#endif // TRANSPUTER_LINK_BURSTS_HH
