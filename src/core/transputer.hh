/**
 * @file
 * The transputer CPU core (paper section 3).
 *
 * Implements the I1 instruction set on the six-register machine of
 * Figure 2 (Wptr, Iptr, Oreg and the A/B/C evaluation stack), the
 * microcoded two-priority process scheduler of section 3.2.4 and
 * Figure 3, internal channels, the ALT mechanism, and the two
 * incrementing-clock timers of section 2.2.2.  External channels
 * (links and the event pin) are delegated to attached ChannelPorts.
 *
 * Timing: the CPU owns a local clock (in simulation ticks) advanced
 * by the per-instruction costs in isa/cycles.hh.  It participates in
 * the network's discrete-event co-simulation by executing batches of
 * instructions between queue events and never running past the next
 * pending event by more than one instruction; long instructions
 * (block move / message transfers) are interruptible, so a
 * high-priority wake during one is honoured from the wake point and
 * the displaced low-priority cycles are repaid on resumption -- this
 * is how the paper's 58-cycle latency bound arises.
 */

#ifndef TRANSPUTER_CORE_TRANSPUTER_HH
#define TRANSPUTER_CORE_TRANSPUTER_HH

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>

#include "base/stats.hh"
#include "base/types.hh"
#include "isa/opcodes.hh"
#include "mem/memory.hh"
#include "core/icache.hh"
#include "core/ports.hh"
#include "obs/counters.hh"
#include "obs/profile.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/event_queue.hh"

namespace transputer::core
{

namespace blockc
{
class BlockCache;
struct Superblock;
enum class Deopt : uint8_t;
} // namespace blockc

namespace sem
{
struct Core;
struct Members;
struct Hoisted;
struct Swept;
} // namespace sem

/** Workspace slot offsets below Wptr (section 3.2.4). */
namespace ws
{
constexpr int iptr = -1;    ///< saved instruction pointer
constexpr int link = -2;    ///< next process on a scheduling list
constexpr int state = -3;   ///< ALT state / saved buffer pointer
constexpr int tlink = -4;   ///< timer queue link
constexpr int time = -5;    ///< timer wake-up time
} // namespace ws

/** Static configuration of one transputer part. */
struct Config
{
    WordShape shape = word32;      ///< 32-bit (T424) or 16-bit (T222)
    Word onchipBytes = 4096;       ///< T424: 4 KB on-chip RAM
    Word externalBytes = 0;        ///< off-chip RAM above on-chip
    int externalWaits = 3;         ///< extra cycles per off-chip access
    Tick cyclePeriod = 50;         ///< ns per processor cycle (20 MHz)
    int64_t timesliceCycles = 20480; ///< ~1 ms low-priority timeslice
    int maxBatch = 8192;           ///< instructions per event-loop turn
    bool predecode = true;         ///< use the predecoded instruction cache
    /** Compile hot predecoded regions into superblocks (core/blockc).
     *  Requires predecode; architecturally invisible, like the
     *  predecode cache itself.  The tiers are fixed per node: each
     *  CPU reads both switches from its Config alone. */
    bool blockCompile = true;
    bool trace = false;            ///< record scheduler/channel/link events
    unsigned traceDepth = 16;      ///< log2 of the trace ring capacity
    /** Guest sampling profiler (src/obs/profile.hh): attribute one
     *  sample per profileInterval simulated cycles to the (Wdesc,
     *  Iptr) current at the next chain boundary.  Architecturally
     *  invisible and serial/parallel deterministic. */
    bool profile = false;
    uint64_t profileInterval = 4096; ///< cycles between samples
    /** Metrics time-series (src/obs/timeseries.hh): one cumulative
     *  counter snapshot per timeseriesInterval simulated ticks. */
    bool timeseries = false;
    Tick timeseriesInterval = 1'000'000; ///< ticks between snapshots
    unsigned timeseriesDepth = 8;  ///< log2 of the time-series ring
    /** Always-on flight recorder (src/obs/flight.hh): a small ring of
     *  recent scheduler/link/fault/deopt events kept for post-mortem
     *  dumps.  On by default; costs one filtered ring store per
     *  (already rare) traced event. */
    bool flight = true;
    unsigned flightDepth = 10;     ///< log2 of the flight ring
    /**
     * Slots in the predecoded-instruction cache (a power of two).
     * The default suits a busy standalone part; huge networks of
     * mostly-idle nodes shrink it (64 slots still covers a typical
     * occam inner loop) so 100k nodes fit in host RAM.  Purely an
     * acceleration structure: any size executes identically.
     */
    size_t icacheEntries = PredecodeCache::kDefaultEntries;
};

/** Execution state of the whole part. */
enum class CpuState
{
    Idle,    ///< no runnable process; waiting for an external wake
    Running, ///< executing instructions
    Halted,  ///< stopped by error with halt-on-error set
};

/**
 * Everything one CPU must save to resume bit-exactly (src/snap):
 * the register file, scheduler list heads, timer and event-pin state,
 * the local clock, and the exact (tick, seq) of its two pending event
 * arms (CPU step, timer expiry) so restore re-schedules them under
 * their original dispatch keys.  The memory image and the predecode
 * cache are NOT here: memory is serialized page-wise by the snapshot
 * layer, and predecoded chains are dropped and re-decoded on demand
 * (their host-side statistics ride along inside ctrs).
 */
struct CpuSnap
{
    // register file (Figure 2) and scheduling lists (Figure 3)
    Word iptr = 0, wptr = 0;
    Word areg = 0, breg = 0, creg = 0, oreg = 0;
    int pri = 1;
    Word fptr[2] = {0, 0}, bptr[2] = {0, 0};
    bool errorFlag = false, haltOnError = false;

    // timers
    bool timersRunning = false;
    Tick timerBase = 0;
    Word timerOffset[2] = {0, 0};
    bool timerArmed = false;
    Tick timerWhen = 0;
    uint64_t timerSeq = 0;

    // interrupted low-priority context
    bool lowSaved = false;
    Tick lowDebtTicks = 0;

    // fetch buffer (the generation is re-pinned against the restored
    // memory image, which is byte-identical, so validity carries over)
    Word lastFetchWord = 0;
    bool lastFetchValid = false;

    // preemption bookkeeping
    bool preemptPending = false;
    Tick hpReadyTick = 0;
    Tick lastInstrStart = 0;
    bool lastInstrInterruptible = false;

    // event-loop state
    uint8_t state = 0; ///< CpuState
    bool killed = false;
    Tick stallUntil = 0;
    Tick time = 0;
    int64_t sliceStartCycles = 0;
    bool stepArmed = false;
    Tick stepWhen = 0;
    uint64_t stepSeq = 0;

    // event pin
    int eventPending = 0;
    Word eventWaiter = 0;
    Word eventAltWaiter = 0;
    bool eventInAlt = false;

    uint64_t selfSeq = 0; ///< step/timer key sequence counter
    Tick idleSince = 0;

    obs::Counters ctrs; ///< full counters() output at the snapshot
};

/**
 * One transputer: processor + memory + scheduler + timers, with up to
 * four links and an event pin attached via ChannelPorts.
 */
class Transputer
{
  public:
    Transputer(sim::EventQueue &queue, const Config &cfg,
               std::string name = "tp");
    ~Transputer(); // out of line: unique_ptr to forward-declared blockc

    const std::string &name() const { return name_; }
    const WordShape &shape() const { return shape_; }
    const Config &config() const { return cfg_; }
    mem::Memory &memory() { return mem_; }
    const mem::Memory &memory() const { return mem_; }
    sim::EventQueue &queue() { return *queue_; }

    /**
     * Re-home this CPU onto another event queue (shard-local
     * simulation, src/par).  Only legal between runs; pending events
     * must be migrated by the caller (EventQueue::extractPending).
     */
    void setQueue(sim::EventQueue &q) { queue_ = &q; }

    /** Deterministic identity used to order simultaneous events. */
    uint32_t actor() const { return actorId_; }
    void setActor(uint32_t id) { actorId_ = id; }

    /** @name Setup */
    ///@{
    /** Attach the output side of link n (0..3). */
    void attachOutputPort(int link, ChannelPort *port);
    /** Attach the input side of link n (0..3). */
    void attachInputPort(int link, ChannelPort *port);
    /** True if link n's input side has an attached wire. */
    bool
    hasInputPort(int link) const
    {
        return inPorts_[static_cast<size_t>(link)] != nullptr;
    }

    /**
     * Make (iptr, wptr) the current process and start executing.
     * Also starts the timers (as a boot ROM would via sttimer).
     */
    void boot(Word iptr, Word wptr, int pri = 1);

    /** Add a further ready process to a scheduling list. */
    void addProcess(Word iptr, Word wptr, int pri = 1);
    ///@}

    /** @name Link/peripheral completion hooks (called by ports) */
    ///@{
    /** An output transfer finished; wake the producing process. */
    void completeOutput(Word wdesc);
    /** An input transfer finished; wake the consuming process. */
    void completeInput(Word wdesc);
    /** Data arrived for a process ALT-waiting on an external channel. */
    void altReady(Word wdesc);
    /** Pulse the event pin (section 2.2.2's external stimulus). */
    void eventSignal();
    ///@}

    /** @name Fault injection (src/fault) */
    ///@{
    /**
     * Transient node stall: freeze the local clock forward to `until`
     * (no instructions issue in the gap).  Must be invoked from a
     * keyed event, where the local clock is architectural, so faulty
     * runs stay serial/parallel bit-identical.
     */
    void stall(Tick until);

    /**
     * Permanent node death: stop executing and cancel the node's
     * pending self-events.  Unlike an error halt the machine state is
     * simply abandoned mid-flight; attached link engines are silenced
     * separately (LinkEngine::setDead) so neighbours see stuck links.
     */
    void kill();
    bool killed() const { return killed_; }
    ///@}

    /** @name Observation */
    ///@{
    CpuState state() const { return state_; }
    bool idle() const { return state_ == CpuState::Idle; }
    bool halted() const { return state_ == CpuState::Halted; }
    Word areg() const { return areg_; }
    Word breg() const { return breg_; }
    Word creg() const { return creg_; }
    Word oreg() const { return oreg_; }
    Word iptr() const { return iptr_; }
    /** Word-aligned workspace pointer of the current process. */
    Word wptr() const { return wptr_; }
    /** Process descriptor (Wptr | priority) or NotProcess. */
    Word wdesc() const;
    int priority() const { return pri_; }
    bool errorFlag() const { return errorFlag_; }
    bool haltOnError() const { return haltOnError_; }
    Tick localTime() const { return time_; }
    uint64_t cycles() const { return cycles_; }
    uint64_t instructions() const { return instructions_; }
    Word notProcess() const { return shape_.mostNeg; }

    /** Dynamic per-opcode execution counts (for the MIPS bench). */
    const std::array<uint64_t, 16> &fnCounts() const { return ctrs_.fn; }

    /**
     * Snapshot of this node's performance counters (src/obs).  Link
     * byte totals live in the link engines; Network::counters adds
     * them in for whole-node views.  Defined in blockc.cc (it folds
     * the block-compiler statistics in).
     */
    obs::Counters counters() const;

    /**
     * Host bytes this node currently occupies in side structures:
     * backed memory pages, dirty bitmap, icache, block tier, and any
     * observability rings that were actually enabled.  Purely an
     * accounting view for the scale bench (bytes/node); never affects
     * simulation.  Defined in transputer.cc.
     */
    size_t footprintBytes() const;

    /**
     * Toggle event tracing at runtime.  The ring buffer is allocated
     * on first enable and kept (with its records) across disables so
     * exporters can read it after a run.  Tracing never perturbs
     * architectural state or event order.
     */
    void
    setTraceEnabled(bool on)
    {
        if (on && !traceBuf_)
            traceBuf_ =
                std::make_unique<obs::TraceBuffer>(cfg_.traceDepth);
        obsTrace_ = on ? traceBuf_.get() : nullptr;
    }
    bool traceEnabled() const { return obsTrace_ != nullptr; }
    /** The trace ring, or nullptr if tracing was never enabled. */
    const obs::TraceBuffer *traceBuffer() const { return traceBuf_.get(); }

    /** Record a link-level event (called by the link engines, which
     *  always run on the thread that owns this node). */
    void
    traceLink(obs::Ev ev, uint64_t a, uint64_t b = 0, uint32_t c = 0)
    {
        if (obsTrace_)
            obsTrace_->record(queue_->now(), ev, a, b, c);
        if (flightOn_ && obs::flightWorthy(ev))
            recordFlight(queue_->now(), ev, a, b, c);
    }

    /** One link byte moved through an attached engine (called by the
     *  engines, on the owning thread).  Feeds the time-series' link
     *  utilisation; architectural relative to chain boundaries, since
     *  engine events share this node's actor and dispatch in the
     *  deterministic total event order. */
    void noteLinkByteOut() { ++linkBytesOutLive_; }
    void noteLinkByteIn() { ++linkBytesInLive_; }
    uint64_t linkBytesOutLive() const { return linkBytesOutLive_; }
    uint64_t linkBytesInLive() const { return linkBytesInLive_; }

    /**
     * Toggle the guest sampling profiler at runtime.  Like the
     * tracer: the histogram is allocated on first enable and kept
     * across disables so exporters can read it after a run.  Sampling
     * is keyed off the simulated cycle counter, so it never perturbs
     * architectural state (tests/test_profile.cc).
     */
    void
    setProfileEnabled(bool on)
    {
        if (on && !prof_)
            prof_ = std::make_unique<obs::Profiler>(
                cfg_.profileInterval);
        if (on) {
            // next boundary at or after the next interval multiple
            const uint64_t iv = prof_->interval();
            profNextCycle_ = (cycles_ / iv + 1) * iv;
        } else {
            profNextCycle_ = ~uint64_t{0};
        }
        profileOn_ = on;
    }
    bool profileEnabled() const { return profileOn_; }
    /** The PC histogram, or nullptr if profiling was never enabled. */
    const obs::Profiler *profiler() const { return prof_.get(); }

    /** Toggle the metrics time-series at runtime (same lifetime rules
     *  as the profiler). */
    void
    setTimeseriesEnabled(bool on)
    {
        if (on && !tseries_)
            tseries_ = std::make_unique<obs::TimeSeries>(
                cfg_.timeseriesInterval, cfg_.timeseriesDepth);
        if (on) {
            const Tick iv = tseries_->interval();
            tsNextTick_ = (time_ / iv + 1) * iv;
        } else {
            tsNextTick_ = maxTick;
        }
        timeseriesOn_ = on;
    }
    bool timeseriesEnabled() const { return timeseriesOn_; }
    /** The ring, or nullptr if the series was never enabled. */
    const obs::TimeSeries *timeSeries() const { return tseries_.get(); }

    /** Capture a cumulative time-series point right now, stamped with
     *  `nominal`.  Used by obsBoundaryFire and by the exporters'
     *  final live point (so deltas sum to the final counters). */
    obs::TsPoint tsCapture(Tick nominal);

    /** Toggle the flight recorder at runtime (on by default via
     *  Config::flight; same lifetime rules as the tracer).  The ring
     *  itself only appears on the first flight-worthy record, so the
     *  default-on recorder costs an idle node nothing. */
    void
    setFlightEnabled(bool on)
    {
        flightOn_ = on;
        obsFlight_ = on ? flightBuf_.get() : nullptr;
    }
    bool flightEnabled() const { return flightOn_; }
    /** The flight ring, or nullptr if nothing was ever recorded. */
    const obs::TraceBuffer *flightBuffer() const
    {
        return flightBuf_.get();
    }

    /** Run-list depth of priority `pri` (0 high, 1 low), bounded walk
     *  over raw memory -- no cycle charges, safe at chain boundaries. */
    uint32_t runListDepth(int pri) const;

    /**
     * Latency samples, in cycles, from a high-priority process
     * becoming ready while low-priority code runs to its first
     * instruction issuing (the paper's "interrupt latency").
     */
    Distribution &preemptLatency() { return preemptLatency_; }

    /** Stream to trace every executed instruction to (nullptr: off). */
    void setTrace(std::ostream *os) { trace_ = os; }

    /** The predecoded instruction cache (Config::predecode; its
     *  statistics are host-side). */
    const PredecodeCache &icache() const { return icache_; }

    /** The block tier (Config::blockCompile) has a superblock table:
     *  its first compile made one (a restore drops it again), so an
     *  idle node stays small.  Defined in blockc.cc. */
    bool hasBlockTable() const;
    ///@}

    /** @name Checkpoint/restore (src/snap) */
    ///@{
    /**
     * Capture the CPU's resumable state.  Must be called between
     * event dispatches (never from inside an instruction); the memory
     * image is captured separately by the snapshot layer.
     */
    CpuSnap exportSnap() const;

    /**
     * Overwrite the CPU with a captured state and re-schedule its
     * pending events under their original keys.  The memory image
     * must already be restored (the fetch buffer re-pins against it)
     * and the owning queue's clock already reset to the snapshot
     * tick.  The predecode cache is dropped wholesale: entries from
     * before the restore describe a memory image that no longer
     * exists.
     */
    void importSnap(const CpuSnap &s);
    ///@}

    /** @name Architectural constants (word-shape dependent) */
    ///@{
    Word enabling() const { return shape_.truncate(shape_.mostNeg + 1); }
    Word waitingAlt() const { return shape_.truncate(shape_.mostNeg + 2); }
    Word readyAlt() const { return shape_.truncate(shape_.mostNeg + 3); }
    Word timeSet() const { return shape_.truncate(shape_.mostNeg + 1); }
    Word timeNotSet() const { return shape_.truncate(shape_.mostNeg + 2); }
    Word noneSelected() const { return shape_.mask; } // -1
    ///@}

    /** Read the priority-pri clock register (1 us / 64 us ticks). */
    Word clockReg(int pri) const;

  private:
    /** The instruction handlers' state policies (core/semantics.hh)
     *  read and write the registers, clock and counters directly. */
    friend struct sem::Core;
    friend struct sem::Members;
    friend struct sem::Hoisted;
    friend struct sem::Swept;

    /** Record a trace event at an explicit timestamp: one branch on a
     *  pointer when tracing is off. */
    void
    trcAt(Tick when, obs::Ev ev, uint64_t a, uint64_t b = 0,
          uint32_t c = 0)
    {
        if (obsTrace_)
            obsTrace_->record(when, ev, a, b, c);
        if (flightOn_ && obs::flightWorthy(ev))
            recordFlight(when, ev, a, b, c);
    }

    /**
     * The chain-boundary observation point (profiler + time-series).
     * Called with the architectural state spilled (oreg_ == 0, the
     * hot locals written back) whenever cycles_ crossed profNextCycle_
     * or time_ crossed tsNextTick_; attributes the catch-up samples
     * and captures the due snapshots, then advances the thresholds
     * past the current clocks.  Reads architectural state only, so
     * the spill/fire/reload dance in the fast tiers is safe.
     */
    void obsBoundaryFire(int tier);

    /** Record a CPU-side trace event at the local clock. */
    void
    trc(obs::Ev ev, uint64_t a, uint64_t b = 0, uint32_t c = 0)
    {
        trcAt(time_, ev, a, b, c);
    }

    /** @name Event-loop integration */
    ///@{
    void scheduleStep();
    void stepHandler();
    /** Cached chains may run: the cache is on, iptr_ is at a chain
     *  boundary (an interrupt can leave oreg_ mid-chain) and no trace
     *  wants every byte.  Else the byte step runs. */
    bool
    predecodedReady() const
    {
        return cfg_.predecode && oreg_ == 0 && !trace_;
    }
    void wakeIfIdle();
    ///@}

    /** @name Instruction execution (exec.cc) */
    ///@{
    uint8_t fetchByte();
    /** The byte step: one instruction byte, prefixes included. */
    void executeOneSlow();
    /** The fused loop, the one executor of cached chains; returns the
     *  chains retired, superblocks' included.  Runs from iptr_
     *  (predecodedReady, Running, budget > 0, not past the bound)
     *  until the bound, the budget, a deschedule, an error halt, a
     *  chain the cache cannot hold (then sets `uncached`: the byte
     *  step runs that chain next), or after the first non-fast chain.
     *  Enters superblocks where a control transfer lands on one. */
    int runFused(Tick bound, int budget, bool &uncached);
    /** @name Block-compiler tier (core/blockc.cc) */
    ///@{
    /** runFused's block-entry step: with the state spilled at `sb`'s
     *  entry, check its guards, run it, and count how it ended
     *  (BlockStats, the flight ring); returns the chains it
     *  retired. */
    int enterBlock(blockc::Superblock &sb, Tick bound, int budget);
    /**
     * Execute `sb` from its entry (iptr_ == sb.entry, Running, oreg
     * 0, guards current).  Retires at most `budget` chains and never
     * starts a chain with the local clock past `bound`; re-reads the
     * guards wherever the code bytes may have moved.  Returns the
     * chains retired, with `why` set to the exit reason; on return all
     * CPU state is spilled and consistent at a chain boundary.
     * Cache-line aligned: the threaded loop's speed follows where its
     * labels fall, so a size change elsewhere in src/core must not
     * move them (e7 host time moved by 5-8% with the function 16 bytes
     * off a 32-byte boundary).
     */
    [[gnu::aligned(64)]] int execBlock(blockc::Superblock &sb,
                                       Tick bound, int budget,
                                       blockc::Deopt &why);
    /** Promotion gate: compile only where the fused tier's observed
     *  mean run length says a superblock can win (blockc.cc). */
    bool blockPromotionAllowed() const;
    /** Allocate the block cache on first use (enabling the tier
     *  alone keeps an idle node small). */
    void ensureBlockTier();
    /** The tier's one heat probe, where a control transfer in
     *  runFused lands (taken jumps, generic operations that move
     *  iptr): the block to enter there, compiled right now if the
     *  target just crossed the heat threshold, or nullptr. */
    blockc::Superblock *wantsBlockEntry(Word iptr);
    /** importSnap's block-tier leg: drop every compiled block (they
     *  describe the pre-restore memory image) and overwrite the
     *  statistics with the snapshotted values. */
    void restoreBlockTier(const obs::BlockStats &s);
    /** Host bytes of the block cache, 0 while deferred. */
    size_t blockTierFootprint() const;
    ///@}
    /** The off-chip fetch waits of a whole predecoded chain, for the
     *  caller to charge (the fetch buffer moves on). */
    int fetchWaits(Word start, int length);
    bool fetchBufferHolds(Word word_addr) const;
    void setFetchBuffer(Word word_addr);
    /** Forget the fetch buffer (process switch / interrupt / boot). */
    void flushFetchBuffer() { lastFetchValid_ = false; }
    /** Re-pin the fetch buffer's write generation after a restore. */
    void repinFetchBuffer();
    void execDirect(isa::Fn fn, Word operand);
    /** Any operation, fatal if undefined: the inlined ones through
     *  core/semantics.hh, the rest through execGenericOp.  The byte
     *  step calls it, and so does the fused loop for a non-fast
     *  chain. */
    void execOp(Word operation);
    /** A defined operation the tiers do not inline: counted, charged
     *  and run on the object's own state.  The fused loop and the
     *  block executor call it with their hoisted state spilled. */
    void execGenericOp(isa::Op op);
    ///@}

    /** @name Evaluation stack */
    ///@{
    void push(Word v);
    Word pop();
    ///@}

    /** @name Memory helpers (charge wait states) */
    ///@{
    Word readWord(Word addr);
    void writeWord(Word addr, Word v);
    uint8_t readByte(Word addr);
    void writeByte(Word addr, uint8_t v);
    /** Read a below-workspace slot of a process. */
    Word wsRead(Word wptr, int slot);
    void wsWrite(Word wptr, int slot, Word v);
    ///@}

    /** @name Scheduler (scheduler.cc) */
    ///@{
    void enqueueProcess(Word wdesc);
    /** runp semantics: enqueue, preempt or wake as appropriate. */
    void scheduleProcess(Word wdesc);
    /** Save Iptr (optionally) and switch to the next ready process. */
    void descheduleCurrent(bool save_iptr);
    /** Timeslice check at j/lend descheduling points. */
    void timesliceCheck();
    void pickNext();
    void serviceInterrupt();
    void saveLowContext();
    void restoreLowContext();
    void chargeCycles(int64_t n);
    void setError();
    ///@}

    /** @name Channels (channel.cc) */
    ///@{
    /** Port index for a reserved channel address, or -1 if internal. */
    int portIndexFor(Word chan_addr) const;
    ChannelPort *portFor(Word chan_addr) const;
    bool isEventChannel(Word chan_addr) const;
    void channelIn(Word count, Word chan, Word ptr);
    void channelOut(Word count, Word chan, Word ptr);
    void internalIn(Word count, Word chan, Word ptr);
    void internalOut(Word count, Word chan, Word ptr);
    void copyMessage(Word dst, Word src, Word count);
    void enableChannel(Word chan);
    bool disableChannel(Word chan);
    void eventIn();
    bool enableEvent();
    bool disableEvent();
    ///@}

    /** @name Timers (timer.cc) */
    ///@{
    /** Clock value at an absolute tick for a priority. */
    Word clockAt(int pri, Tick t) const;
    /** Earliest tick at which clockReg(pri) reaches time value tv. */
    Tick tickFor(int pri, Word tv) const;
    /** True if clock has reached (AFTER-or-at) time value tv. */
    bool timeAfter(int pri, Word tv) const;
    void timerInsert(int pri, Word wptr, Word tv);
    void timerRemove(int pri, Word wptr);
    void timerExpire();
    void armTimerEvent();
    ///@}

    const std::string name_;
    const Config cfg_;
    const WordShape shape_;
    sim::EventQueue *queue_;
    uint32_t actorId_ = 0;
    uint64_t selfSeq_ = 0; ///< seq for this actor's step/timer events
    mem::Memory mem_;
    PredecodeCache icache_;
    // block-compiler tier (allocated on first use)
    std::unique_ptr<blockc::BlockCache> bcache_;
    sim::StaticEvent stepEvent_; ///< allocation-free CPU-step event

    // register file (Figure 2)
    Word iptr_ = 0;
    Word wptr_ = 0;       ///< word-aligned; NotProcess when no process
    Word areg_ = 0, breg_ = 0, creg_ = 0, oreg_ = 0;
    int pri_ = 1;

    // scheduling lists (Figure 3): front/back per priority
    Word fptr_[2], bptr_[2];

    // error handling
    bool errorFlag_ = false;
    bool haltOnError_ = false;

    // timers
    bool timersRunning_ = false;
    Tick timerBase_ = 0;       ///< tick at which sttimer ran
    Word timerOffset_[2] = {0, 0};

    // interrupted low-priority process (shadow registers live in the
    // reserved memory save area; this flag says they are valid)
    bool lowSaved_ = false;
    Tick lowDebtTicks_ = 0;    ///< interrupted-instruction tail to repay

    // instruction fetch buffer (word-granular off-chip fetch); valid
    // only while the buffered word is unwritten (generation match) and
    // until the next process switch, interrupt or boot
    Word lastFetchWord_ = 0;
    uint32_t lastFetchGen_ = 0;
    bool lastFetchValid_ = false;

    // preemption bookkeeping
    bool inExec_ = false;      ///< inside an instruction (wake timing)
    bool preemptPending_ = false;
    Tick hpReadyTick_ = 0;
    Tick lastInstrStart_ = 0;
    bool lastInstrInterruptible_ = false;

    // event-loop state
    CpuState state_ = CpuState::Idle;
    bool killed_ = false;      ///< halted by fault::kill, not by error
    Tick stallUntil_ = 0;      ///< injected stall: no issue before this
    Tick time_ = 0;
    uint64_t cycles_ = 0;
    uint64_t instructions_ = 0;
    int64_t sliceStartCycles_ = 0;

    // external channels: out 0..3, in 0..3
    std::array<ChannelPort *, 4> outPorts_{};
    std::array<ChannelPort *, 4> inPorts_{};

    // event pin channel
    int eventPending_ = 0;
    Word eventWaiter_;         ///< wdesc blocked on event, or NotProcess
    Word eventAltWaiter_;      ///< wdesc ALT-enabled on event
    bool eventInAlt_ = false;

    // statistics (src/obs); instructions_/cycles_/icache stats stay in
    // their hot members and are folded in by counters()
    obs::Counters ctrs_;
    Tick idleSince_ = 0; ///< local clock at the last idle transition
    Distribution preemptLatency_;

    // event tracer: the ring is allocated lazily and owned here; the
    // raw pointer is the single runtime gate (null = disabled)
    std::unique_ptr<obs::TraceBuffer> traceBuf_;
    obs::TraceBuffer *obsTrace_ = nullptr;

    // flight recorder: enabled by a plain bool so 100k default-on
    // idle nodes pay no ring; the ring appears on the first
    // flight-worthy record (recordFlight, transputer.cc)
    bool flightOn_ = false;
    std::unique_ptr<obs::TraceBuffer> flightBuf_;
    obs::TraceBuffer *obsFlight_ = nullptr;

    /** Allocate-on-first-use slow path behind the flightOn_ gate. */
    void recordFlight(Tick when, obs::Ev ev, uint64_t a, uint64_t b,
                      uint32_t c);

    // sampling profiler and metrics time-series: the thresholds are
    // the only state the execution tiers test (one compare each per
    // chain); ~0 / maxTick are the disabled sentinels, so the
    // disabled fast path never branches into obsBoundaryFire
    uint64_t profNextCycle_ = ~uint64_t{0};
    Tick tsNextTick_ = maxTick;
    bool profileOn_ = false;
    bool timeseriesOn_ = false;
    std::unique_ptr<obs::Profiler> prof_;
    std::unique_ptr<obs::TimeSeries> tseries_;
    // live per-node link byte tallies (the engines' own counters are
    // aggregated per run, not sampled mid-run)
    uint64_t linkBytesOutLive_ = 0;
    uint64_t linkBytesInLive_ = 0;

    std::ostream *trace_ = nullptr;
    sim::StaticEvent timerEvent_; ///< the timer-queue expiry event
};

} // namespace transputer::core

#endif // TRANSPUTER_CORE_TRANSPUTER_HH
