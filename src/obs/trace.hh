/**
 * @file
 * Ring-buffer event tracer (see DESIGN.md "Observability").
 *
 * Each Transputer owns one TraceBuffer; records are fixed-size and
 * the ring is single-writer: in a serial run everything executes on
 * one thread, and in a shard-parallel run each node -- and every link
 * engine whose cpu_ is that node -- is dispatched exclusively by the
 * shard thread that owns it, so no writer ever races another.  That
 * makes the tracer lock-free by construction: recording is an index
 * increment and a struct store, and readers (exporters) only run
 * after the simulation has stopped.
 *
 * The recording hooks are always compiled in and gated at run time:
 * Transputer keeps a raw TraceBuffer pointer that is null until
 * tracing is enabled (Config::trace / setTraceEnabled /
 * RunOptions::trace), so the disabled path is one branch on a
 * bool-like pointer.  Tracing never
 * touches architectural state or event ordering; a traced run is
 * bit-identical to an untraced one (tests/test_obs.cc).
 */

#ifndef TRANSPUTER_OBS_TRACE_HH
#define TRANSPUTER_OBS_TRACE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "base/types.hh"

namespace transputer::obs
{

/** Trace record kinds. */
enum class Ev : uint8_t
{
    Run,        ///< process a starts executing (a = Wdesc)
    Idle,       ///< no runnable process
    Halt,       ///< node halted (error / stopp with empty queues)
    Ready,      ///< process a enqueued on a run list (a = Wdesc)
    WaitChan,   ///< process a blocked on channel b (channel address)
    WaitTimer,  ///< process a queued on timer list, wake time b
    Timeslice,  ///< process a rotated to back of low-pri queue
    Interrupt,  ///< high pri preempts low (a = high Wdesc, b = low)
    Rendezvous, ///< internal channel b completed: a = src, c = bytes
    LinkMsgOut, ///< link message fully acked (a = Wdesc, b = flow id)
    LinkMsgIn,  ///< link message fully received (a = Wdesc, b = flow)
    LinkByte,   ///< one data byte sent on link c (a = byte value)
    LinkAck,    ///< one ack sent on link c
    LinkAbortOut, ///< watchdog abandoned an output on link c (a = Wdesc)
    LinkAbortIn,  ///< watchdog abandoned an input on link c (a = Wdesc)
    FaultDrop,    ///< injected packet loss on line c (a = byte, b = isData)
    FaultCorrupt, ///< injected bit corruption on line c (a = byte, b = mask)
    FaultJitter,  ///< injected latency on line c (b = extra ticks)
    FaultStall,   ///< injected transient stall (b = resume tick)
    FaultKill,    ///< injected permanent node death
    Deopt,        ///< superblock handed back to the interpreter
                  ///< (a = Deopt reason index, b = chains retired)
    RouteSend,    ///< VCP accepted a send (a = flow id, b = seq)
    RouteFwd,     ///< switch relayed a packet (a = flow, c = out port)
    RouteDeliver, ///< fresh payload reached its host (a = flow id)
    RouteRetransmit, ///< end-to-end ARQ retransmit (a = flow, b = try)
    RouteReroute, ///< forwarded off the first-choice port (a = flow)
    RouteDrop,    ///< packet dropped (a = flow, b = reason code)
    RouteUndeliverable, ///< flow declared undeliverable (a = flow)
    RouteLinkDown, ///< dead edge learned (a = edge lo node, b = hi,
                   ///< c = 1 when locally detected, 0 when flooded)
};

constexpr const char *
evName(Ev e)
{
    switch (e) {
      case Ev::Run: return "run";
      case Ev::Idle: return "idle";
      case Ev::Halt: return "halt";
      case Ev::Ready: return "ready";
      case Ev::WaitChan: return "wait.chan";
      case Ev::WaitTimer: return "wait.timer";
      case Ev::Timeslice: return "timeslice";
      case Ev::Interrupt: return "interrupt";
      case Ev::Rendezvous: return "rendezvous";
      case Ev::LinkMsgOut: return "link.msg.out";
      case Ev::LinkMsgIn: return "link.msg.in";
      case Ev::LinkByte: return "link.byte";
      case Ev::LinkAck: return "link.ack";
      case Ev::LinkAbortOut: return "link.abort.out";
      case Ev::LinkAbortIn: return "link.abort.in";
      case Ev::FaultDrop: return "fault.drop";
      case Ev::FaultCorrupt: return "fault.corrupt";
      case Ev::FaultJitter: return "fault.jitter";
      case Ev::FaultStall: return "fault.stall";
      case Ev::FaultKill: return "fault.kill";
      case Ev::Deopt: return "deopt";
      case Ev::RouteSend: return "route.send";
      case Ev::RouteFwd: return "route.fwd";
      case Ev::RouteDeliver: return "route.deliver";
      case Ev::RouteRetransmit: return "route.retransmit";
      case Ev::RouteReroute: return "route.reroute";
      case Ev::RouteDrop: return "route.drop";
      case Ev::RouteUndeliverable: return "route.undeliverable";
      case Ev::RouteLinkDown: return "route.link.down";
    }
    return "?";
}

/**
 * Which events the always-on flight recorder keeps (src/obs/flight).
 * Everything except the per-byte link chatter: one LinkByte/LinkAck
 * pair per wire byte would wrap the small post-mortem ring in
 * microseconds and evict the scheduler history that makes a dump
 * readable, while the message-level records (LinkMsgIn/Out, aborts)
 * keep the communication story.
 */
constexpr bool
flightWorthy(Ev e)
{
    return e != Ev::LinkByte && e != Ev::LinkAck;
}

/** One trace record; meaning of a/b/c depends on ev (see Ev). */
struct Record
{
    Tick when = 0;
    uint64_t a = 0;
    uint64_t b = 0;
    uint32_t c = 0;
    Ev ev = Ev::Run;
};

/**
 * Fixed-capacity ring of Records.  When full, the oldest records are
 * overwritten and `dropped()` counts them -- a tracer must never stall
 * or abort the simulation.  forEach replays the surviving records in
 * write (= chronological, per node) order.
 */
class TraceBuffer
{
  public:
    /** @param depthLog2  capacity = 2^depthLog2 records (~32B each). */
    explicit TraceBuffer(unsigned depthLog2 = 16)
        : mask_((size_t{1} << depthLog2) - 1),
          ring_(size_t{1} << depthLog2)
    {}

    void
    record(Tick when, Ev ev, uint64_t a, uint64_t b = 0, uint32_t c = 0)
    {
        Record &r = ring_[total_ & mask_];
        r.when = when;
        r.a = a;
        r.b = b;
        r.c = c;
        r.ev = ev;
        ++total_;
    }

    size_t capacity() const { return mask_ + 1; }
    /** Host bytes of the ring (scale accounting). */
    size_t
    footprintBytes() const
    {
        return ring_.capacity() * sizeof(Record);
    }
    /** Records ever written (>= size()). */
    uint64_t total() const { return total_; }
    /** Records currently held. */
    size_t
    size() const
    {
        return total_ < capacity() ? static_cast<size_t>(total_)
                                   : capacity();
    }
    /** Records lost to wrap-around. */
    uint64_t dropped() const { return total_ - size(); }

    void
    clear()
    {
        total_ = 0;
    }

    /** Visit surviving records oldest-first: fn(const Record &). */
    template <typename F>
    void
    forEach(F &&fn) const
    {
        const uint64_t first = total_ - size();
        for (uint64_t i = first; i < total_; ++i)
            fn(ring_[i & mask_]);
    }

  private:
    size_t mask_;
    uint64_t total_ = 0;
    std::vector<Record> ring_;
};

} // namespace transputer::obs

#endif // TRANSPUTER_OBS_TRACE_HH
