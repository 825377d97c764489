#include "core/transputer.hh"

#include <algorithm>
#include <ostream>

#include "base/format.hh"
#include "core/blockc.hh"
#include "core/semantics.hh"
#include "isa/cycles.hh"

namespace transputer::core
{

Transputer::Transputer(sim::EventQueue &queue, const Config &cfg,
                       std::string name)
    : name_(std::move(name)), cfg_(cfg), shape_(cfg.shape),
      queue_(&queue),
      mem_(cfg.shape, cfg.onchipBytes, cfg.externalBytes,
           cfg.externalWaits),
      icache_(mem_, cfg.icacheEntries),
      stepEvent_([](void *ctx) {
          static_cast<Transputer *>(ctx)->stepHandler();
      }, this),
      timerEvent_([](void *ctx) {
          static_cast<Transputer *>(ctx)->timerExpire();
      }, this)
{
    fptr_[0] = fptr_[1] = notProcess();
    bptr_[0] = bptr_[1] = notProcess();
    wptr_ = notProcess();
    eventWaiter_ = notProcess();
    eventAltWaiter_ = notProcess();
    // hardware reset leaves the channel control words empty
    for (int i = 0; i < 4; ++i) {
        mem_.writeWord(mem_.linkOutAddr(i), notProcess());
        mem_.writeWord(mem_.linkInAddr(i), notProcess());
    }
    mem_.writeWord(mem_.eventAddr(), notProcess());
    mem_.writeWord(mem_.tptrLocAddr(0), notProcess());
    mem_.writeWord(mem_.tptrLocAddr(1), notProcess());
    if (cfg.trace)
        setTraceEnabled(true);
    if (cfg.flight)
        setFlightEnabled(true);
    if (cfg.profile)
        setProfileEnabled(true);
    if (cfg.timeseries)
        setTimeseriesEnabled(true);
}

void
Transputer::recordFlight(Tick when, obs::Ev ev, uint64_t a,
                         uint64_t b, uint32_t c)
{
    if (!obsFlight_) {
        flightBuf_ =
            std::make_unique<obs::TraceBuffer>(cfg_.flightDepth);
        obsFlight_ = flightBuf_.get();
    }
    obsFlight_->record(when, ev, a, b, c);
}

size_t
Transputer::footprintBytes() const
{
    // the dynamic side structures of one node: what actually scales
    // with the network size (the Transputer object itself is a fixed
    // ~2 KiB of registers, scheduler state and counters)
    size_t n = mem_.allocatedBytes();
    n += (mem_.pageCount() + 63) / 64 * sizeof(uint64_t); // dirty map
    n += icache_.footprintBytes();
    n += blockTierFootprint();
    if (traceBuf_)
        n += traceBuf_->footprintBytes();
    if (flightBuf_)
        n += flightBuf_->footprintBytes();
    if (prof_)
        n += prof_->footprintBytes();
    if (tseries_)
        n += tseries_->footprintBytes();
    return n;
}

Word
Transputer::wdesc() const
{
    if (wptr_ == notProcess())
        return notProcess();
    return wptr_ | static_cast<Word>(pri_);
}

void
Transputer::attachOutputPort(int link, ChannelPort *port)
{
    TRANSPUTER_ASSERT(link >= 0 && link < 4);
    outPorts_[link] = port;
}

void
Transputer::attachInputPort(int link, ChannelPort *port)
{
    TRANSPUTER_ASSERT(link >= 0 && link < 4);
    inPorts_[link] = port;
}

void
Transputer::boot(Word iptr, Word wptr, int pri)
{
    TRANSPUTER_ASSERT(wptr_ == notProcess(), "already booted");
    queue_->touch(actorId_);
    time_ = std::max(time_, queue_->now());
    iptr_ = iptr;
    wptr_ = shape_.wordAlign(wptr);
    pri_ = pri;
    areg_ = breg_ = creg_ = oreg_ = 0;
    // a boot ROM would execute sttimer; do it for the program
    timersRunning_ = true;
    timerBase_ = time_;
    timerOffset_[0] = timerOffset_[1] = 0;
    sliceStartCycles_ = static_cast<int64_t>(cycles_);
    flushFetchBuffer();
    state_ = CpuState::Running;
    ++ctrs_.processStarts;
    trc(obs::Ev::Run, wdesc());
    scheduleStep();
}

void
Transputer::addProcess(Word iptr, Word wptr, int pri)
{
    const Word w = shape_.wordAlign(wptr);
    wsWrite(w, ws::iptr, iptr);
    scheduleProcess(w | static_cast<Word>(pri));
}

void
Transputer::completeOutput(Word wdesc)
{
    scheduleProcess(wdesc);
}

void
Transputer::completeInput(Word wdesc)
{
    scheduleProcess(wdesc);
}

void
Transputer::altReady(Word wdesc)
{
    const Word w = shape_.wordAlign(wdesc);
    const Word st = wsRead(w, ws::state);
    if (st == readyAlt())
        return;
    wsWrite(w, ws::state, readyAlt());
    if (st == waitingAlt())
        scheduleProcess(wdesc);
}

void
Transputer::eventSignal()
{
    if (eventWaiter_ != notProcess()) {
        const Word w = eventWaiter_;
        eventWaiter_ = notProcess();
        scheduleProcess(w);
    } else if (eventAltWaiter_ != notProcess()) {
        const Word w = eventAltWaiter_;
        ++eventPending_;
        altReady(w);
    } else {
        ++eventPending_;
    }
}

Word
Transputer::clockReg(int pri) const
{
    return clockAt(pri, time_);
}

// ---------------------------------------------------------------------
// fault injection (src/fault)
// ---------------------------------------------------------------------

void
Transputer::stall(Tick until)
{
    if (state_ == CpuState::Halted)
        return;
    queue_->touch(actorId_);
    trc(obs::Ev::FaultStall, wdesc(), static_cast<uint64_t>(until));
    stallUntil_ = std::max(stallUntil_, until);
    // when running, the local clock at a keyed event's dispatch is
    // architectural (the CPU never batches past a pending event), so
    // pushing it forward is deterministic; when idle, wakeIfIdle
    // applies the floor at the next wake
    if (state_ == CpuState::Running)
        time_ = std::max(time_, until);
}

void
Transputer::kill()
{
    if (state_ == CpuState::Halted)
        return;
    queue_->touch(actorId_);
    trc(obs::Ev::FaultKill, wdesc());
    killed_ = true;
    state_ = CpuState::Halted;
    preemptPending_ = false;
    queue_->cancelStatic(stepEvent_);
    queue_->cancelStatic(timerEvent_);
    timersRunning_ = false;
}

// ---------------------------------------------------------------------
// checkpoint/restore (src/snap)
// ---------------------------------------------------------------------

CpuSnap
Transputer::exportSnap() const
{
    TRANSPUTER_ASSERT(!inExec_,
                      "snapshot from inside an instruction");
    CpuSnap s;
    s.iptr = iptr_;
    s.wptr = wptr_;
    s.areg = areg_;
    s.breg = breg_;
    s.creg = creg_;
    s.oreg = oreg_;
    s.pri = pri_;
    s.fptr[0] = fptr_[0];
    s.fptr[1] = fptr_[1];
    s.bptr[0] = bptr_[0];
    s.bptr[1] = bptr_[1];
    s.errorFlag = errorFlag_;
    s.haltOnError = haltOnError_;
    s.timersRunning = timersRunning_;
    s.timerBase = timerBase_;
    s.timerOffset[0] = timerOffset_[0];
    s.timerOffset[1] = timerOffset_[1];
    if (timerEvent_.pending()) {
        s.timerArmed = true;
        s.timerWhen = timerEvent_.scheduledAt();
        s.timerSeq = timerEvent_.scheduledKey().seq;
    }
    s.lowSaved = lowSaved_;
    s.lowDebtTicks = lowDebtTicks_;
    s.lastFetchWord = lastFetchWord_;
    s.lastFetchValid = lastFetchValid_;
    s.preemptPending = preemptPending_;
    s.hpReadyTick = hpReadyTick_;
    s.lastInstrStart = lastInstrStart_;
    s.lastInstrInterruptible = lastInstrInterruptible_;
    s.state = static_cast<uint8_t>(state_);
    s.killed = killed_;
    s.stallUntil = stallUntil_;
    s.time = time_;
    s.sliceStartCycles = sliceStartCycles_;
    if (stepEvent_.pending()) {
        s.stepArmed = true;
        s.stepWhen = stepEvent_.scheduledAt();
        s.stepSeq = stepEvent_.scheduledKey().seq;
    }
    s.eventPending = eventPending_;
    s.eventWaiter = eventWaiter_;
    s.eventAltWaiter = eventAltWaiter_;
    s.eventInAlt = eventInAlt_;
    s.selfSeq = selfSeq_;
    s.idleSince = idleSince_;
    s.ctrs = counters();
    return s;
}

void
Transputer::importSnap(const CpuSnap &s)
{
    // drop whatever this CPU had pending: restore replaces it
    queue_->cancelStatic(stepEvent_);
    queue_->cancelStatic(timerEvent_);
    iptr_ = s.iptr;
    wptr_ = s.wptr;
    areg_ = s.areg;
    breg_ = s.breg;
    creg_ = s.creg;
    oreg_ = s.oreg;
    pri_ = s.pri;
    fptr_[0] = s.fptr[0];
    fptr_[1] = s.fptr[1];
    bptr_[0] = s.bptr[0];
    bptr_[1] = s.bptr[1];
    errorFlag_ = s.errorFlag;
    haltOnError_ = s.haltOnError;
    timersRunning_ = s.timersRunning;
    timerBase_ = s.timerBase;
    timerOffset_[0] = s.timerOffset[0];
    timerOffset_[1] = s.timerOffset[1];
    lowSaved_ = s.lowSaved;
    lowDebtTicks_ = s.lowDebtTicks;
    lastFetchWord_ = s.lastFetchWord;
    lastFetchValid_ = s.lastFetchValid;
    repinFetchBuffer();
    inExec_ = false;
    preemptPending_ = s.preemptPending;
    hpReadyTick_ = s.hpReadyTick;
    lastInstrStart_ = s.lastInstrStart;
    lastInstrInterruptible_ = s.lastInstrInterruptible;
    state_ = static_cast<CpuState>(s.state);
    killed_ = s.killed;
    stallUntil_ = s.stallUntil;
    time_ = s.time;
    sliceStartCycles_ = s.sliceStartCycles;
    eventPending_ = s.eventPending;
    eventWaiter_ = s.eventWaiter;
    eventAltWaiter_ = s.eventAltWaiter;
    eventInAlt_ = s.eventInAlt;
    selfSeq_ = s.selfSeq;
    idleSince_ = s.idleSince;
    // counters: the hot members fold into counters() by assignment,
    // so splitting the saved totals back out makes an immediate
    // re-capture bit-identical
    ctrs_ = s.ctrs;
    instructions_ = s.ctrs.instructions;
    cycles_ = s.ctrs.cycles;
    icache_.invalidateAll();
    icache_.restoreStats(s.ctrs.icacheHits, s.ctrs.icacheMisses,
                         s.ctrs.icacheInvalidations);
    restoreBlockTier(s.ctrs.blockc);
    // re-arm the pending events with their exact original keys: the
    // continuation dispatches them in the same total order as the
    // uninterrupted run
    if (s.stepArmed)
        queue_->scheduleStatic(
            s.stepWhen,
            sim::EventKey{actorId_, sim::chanStep, s.stepSeq},
            stepEvent_);
    if (s.timerArmed)
        queue_->scheduleStatic(
            s.timerWhen,
            sim::EventKey{actorId_, sim::chanTimer, s.timerSeq},
            timerEvent_);
}

// ---------------------------------------------------------------------
// event-loop integration
// ---------------------------------------------------------------------

void
Transputer::scheduleStep()
{
    if (stepEvent_.pending())
        return;
    queue_->scheduleStatic(
        std::max(time_, queue_->now()),
        sim::EventKey{actorId_, sim::chanStep, ++selfSeq_}, stepEvent_);
}

void
Transputer::stepHandler()
{
    if (state_ != CpuState::Running)
        return;
    int batch = 0;
    while (state_ == CpuState::Running && batch < cfg_.maxBatch) {
        if (preemptPending_)
            serviceInterrupt();
        if (state_ != CpuState::Running)
            break;
        // yield once local time passes the earliest pending event
        // that can reach this CPU -- its own events bound it exactly,
        // while another node's can only act on it through a link,
        // whose delivery lead the queue's per-node lookahead credits
        // (EventQueue::nextTimeFor) -- or the queue's horizon, beyond
        // which events from other shards may still arrive; equality
        // still executes (other agents' step events at the same tick
        // would livelock us).  The queue answers from its memo while
        // the instructions since the last read left it untouched.
        const Tick bound =
            std::min(queue_->nextTimeFor(actorId_), queue_->horizon());
        if (time_ > bound)
            break;
        // cached chains run in the fused loop, which returns after
        // its first non-fast chain -- the only kind that can schedule
        // or cancel an event or raise a preemption -- so the bound is
        // re-read before every run.  The byte step runs the rest: a
        // chain the cache cannot hold, which the run stopped before
        // (its fast chains cannot have moved the bound or raised an
        // interrupt, and the budget still has room), and everything
        // while the cache may not run (predecodedReady).
        if (predecodedReady()) {
            bool uncached = false;
            batch += runFused(bound, cfg_.maxBatch - batch, uncached);
            if (!uncached)
                continue;
        }
        // chain-boundary observation point (see obsBoundaryFire):
        // oreg_ == 0 makes byte-step boundaries coincide with the
        // fused loop's chain boundaries
        if (oreg_ == 0 &&
            (cycles_ >= profNextCycle_ || time_ >= tsNextTick_))
            obsBoundaryFire(obs::kTierPlain);
        executeOneSlow();
        ++batch;
    }
    if (state_ == CpuState::Running)
        scheduleStep();
}

void
Transputer::wakeIfIdle()
{
    if (state_ != CpuState::Idle)
        return;
    // a link burst may hold this node's link state back (link/bursts.hh)
    queue_->touch(actorId_);
    time_ = std::max({time_, queue_->now(), stallUntil_});
    // both ends of the idle span are architectural times (idleSince_
    // is the local clock at the idle transition; the wake lands at the
    // deterministic event time), so this total is serial/parallel
    // bit-identical
    ctrs_.idleTicks += time_ - idleSince_;
    state_ = CpuState::Running;
    pickNext();
    if (state_ == CpuState::Running)
        scheduleStep();
}

// ---------------------------------------------------------------------
// chain-boundary observation (src/obs: profiler + time-series)
// ---------------------------------------------------------------------

uint32_t
Transputer::runListDepth(int pri) const
{
    // raw reads (no cycle charges): observation must not perturb the
    // clock.  The walk is bounded so a corrupted link chain cannot
    // hang the sampler; depths past the cap saturate.
    constexpr uint32_t kMaxWalk = 256;
    uint32_t n = 0;
    Word w = fptr_[pri];
    if (w == notProcess())
        return 0;
    while (n < kMaxWalk) {
        ++n;
        if (w == bptr_[pri])
            break;
        w = mem_.readWord(shape_.index(w, ws::link));
    }
    return n;
}

obs::TsPoint
Transputer::tsCapture(Tick nominal)
{
    obs::TsPoint p;
    p.tick = nominal;
    p.instructions = instructions_;
    p.cycles = cycles_;
    p.linkBytesOut = linkBytesOutLive_;
    p.linkBytesIn = linkBytesInLive_;
    p.processStarts = ctrs_.processStarts;
    p.timeslices = ctrs_.timeslices;
    p.idleTicks = ctrs_.idleTicks;
    p.qlo = runListDepth(1);
    p.qhi = runListDepth(0);
    // host-side fields (archOnly exports omit them)
    p.icacheHits = icache_.hits();
    p.icacheMisses = icache_.misses();
    const obs::Counters c = counters();
    p.blockChains = c.blockc.chains;
    uint64_t deopts = 0;
    for (const uint64_t d : c.blockc.deopts)
        deopts += d;
    p.blockDeopts = deopts;
    return p;
}

void
Transputer::obsBoundaryFire(int tier)
{
    // Samples land on the boundary state: (wdesc, iptr) of the chain
    // about to execute, at the cycle count retired so far.  Catch-up
    // (a long chain or an idle span crossing several thresholds)
    // attributes every elapsed interval to the current boundary --
    // the deterministic analogue of a timer interrupt pinning all
    // missed ticks on the instruction that disabled it.
    if (profileOn_ && cycles_ >= profNextCycle_) {
        const uint64_t iv = prof_->interval();
        const uint64_t k = (cycles_ - profNextCycle_) / iv + 1;
        prof_->sample(wdesc(), iptr_, tier, k);
        profNextCycle_ += k * iv;
    }
    if (timeseriesOn_ && time_ >= tsNextTick_) {
        // one snapshot per crossing, stamped with the nominal tick it
        // is for; the skipped multiples (no boundary fell inside
        // them) are represented by the jump in nominal ticks
        tseries_->push(tsCapture(tsNextTick_));
        const Tick iv = tseries_->interval();
        tsNextTick_ += ((time_ - tsNextTick_) / iv + 1) * iv;
    }
}

void
Transputer::chargeCycles(int64_t n)
{
    cycles_ += static_cast<uint64_t>(n);
    time_ += n * cfg_.cyclePeriod;
}

void
Transputer::setError()
{
    errorFlag_ = true;
}

// ---------------------------------------------------------------------
// evaluation stack and memory helpers
// ---------------------------------------------------------------------

void
Transputer::push(Word v)
{
    creg_ = breg_;
    breg_ = areg_;
    areg_ = v;
}

Word
Transputer::pop()
{
    const Word v = areg_;
    areg_ = breg_;
    breg_ = creg_;
    return v;
}

Word
Transputer::readWord(Word addr)
{
    sem::Members m(*this);
    return sem::read(m, addr);
}

void
Transputer::writeWord(Word addr, Word v)
{
    sem::Members m(*this);
    sem::write(m, addr, v);
}

uint8_t
Transputer::readByte(Word addr)
{
    chargeCycles(mem_.accessWaits(addr));
    return mem_.readByte(addr);
}

void
Transputer::writeByte(Word addr, uint8_t v)
{
    chargeCycles(mem_.accessWaits(addr));
    mem_.writeByte(addr, v);
}

Word
Transputer::wsRead(Word wptr, int slot)
{
    return readWord(shape_.index(wptr, slot));
}

void
Transputer::wsWrite(Word wptr, int slot, Word v)
{
    writeWord(shape_.index(wptr, slot), v);
}

// ---------------------------------------------------------------------
// scheduler (paper section 3.2.4, Figure 3)
// ---------------------------------------------------------------------

void
Transputer::enqueueProcess(Word wdesc)
{
    const int p = static_cast<int>(wdesc & 1);
    const Word w = shape_.wordAlign(wdesc);
    if (fptr_[p] == notProcess()) {
        fptr_[p] = w;
        bptr_[p] = w;
    } else {
        wsWrite(bptr_[p], ws::link, w);
        bptr_[p] = w;
    }
}

void
Transputer::scheduleProcess(Word wdesc)
{
    ++ctrs_.processStarts;
    // an external wake (link/timer completion) can land while the
    // local clock lags the queue; stamp with whichever is ahead so the
    // ring stays chronological
    trcAt(std::max(time_, queue_->now()), obs::Ev::Ready, wdesc);
    enqueueProcess(wdesc);
    const int p = static_cast<int>(wdesc & 1);
    if (state_ == CpuState::Idle) {
        wakeIfIdle();
    } else if (state_ == CpuState::Running && p == 0 && pri_ == 1 &&
               !preemptPending_) {
        preemptPending_ = true;
        // a wake caused by the CPU's own instruction (runp/startp of a
        // high-priority descriptor) is "ready" at CPU time; an
        // external wake (link/timer event) is ready at the event time.
        hpReadyTick_ = inExec_ ? time_ : queue_->now();
    }
}

void
Transputer::descheduleCurrent(bool save_iptr)
{
    TRANSPUTER_ASSERT(wptr_ != notProcess());
    if (save_iptr)
        wsWrite(wptr_, ws::iptr, iptr_);
    wptr_ = notProcess();
    pickNext();
}

void
Transputer::timesliceCheck()
{
    if (pri_ != 1 || wptr_ == notProcess())
        return;
    if (static_cast<int64_t>(cycles_) - sliceStartCycles_ <
        cfg_.timesliceCycles)
        return;
    if (fptr_[1] == notProcess())
        return; // nobody else to run
    // move to the back of the low-priority list
    ++ctrs_.timeslices;
    trc(obs::Ev::Timeslice, wptr_ | 1u);
    wsWrite(wptr_, ws::iptr, iptr_);
    enqueueProcess(wptr_ | 1u);
    wptr_ = notProcess();
    chargeCycles(isa::cycles::contextSwitch);
    pickNext();
}

void
Transputer::pickNext()
{
    TRANSPUTER_ASSERT(wptr_ == notProcess());
    // control moves to a different Iptr: the fetch buffer's word no
    // longer matches the instruction stream
    flushFetchBuffer();
    if (fptr_[0] != notProcess()) {
        const Word w = fptr_[0];
        fptr_[0] = (w == bptr_[0]) ? notProcess()
                                   : wsRead(w, ws::link);
        wptr_ = w;
        pri_ = 0;
        iptr_ = wsRead(w, ws::iptr);
        state_ = CpuState::Running;
        trc(obs::Ev::Run, wdesc());
        return;
    }
    if (lowSaved_) {
        restoreLowContext();
        return;
    }
    if (fptr_[1] != notProcess()) {
        const Word w = fptr_[1];
        fptr_[1] = (w == bptr_[1]) ? notProcess()
                                   : wsRead(w, ws::link);
        wptr_ = w;
        pri_ = 1;
        iptr_ = wsRead(w, ws::iptr);
        sliceStartCycles_ = static_cast<int64_t>(cycles_);
        state_ = CpuState::Running;
        trc(obs::Ev::Run, wdesc());
        return;
    }
    state_ = CpuState::Idle;
    idleSince_ = time_;
    trc(obs::Ev::Idle, 0);
}

void
Transputer::serviceInterrupt()
{
    preemptPending_ = false;
    if (pri_ != 1 || wptr_ == notProcess() || fptr_[0] == notProcess())
        return;
    // If the instruction that overlapped the wake was interruptible,
    // the architectural switch began at the wake point and the
    // displaced tail of the instruction is repaid when the
    // low-priority process resumes (paper section 3.2.4).
    Tick arch_switch_done;
    const Tick cp = cfg_.cyclePeriod;
    if (lastInstrInterruptible_ && hpReadyTick_ >= lastInstrStart_ &&
        hpReadyTick_ <= time_) {
        arch_switch_done =
            hpReadyTick_ + isa::cycles::switchLowToHigh * cp;
        lowDebtTicks_ += time_ - hpReadyTick_;
    } else {
        arch_switch_done = time_ + isa::cycles::switchLowToHigh * cp;
    }
    chargeCycles(isa::cycles::switchLowToHigh);
    preemptLatency_.add(
        static_cast<double>(arch_switch_done - hpReadyTick_) /
        static_cast<double>(cp));
    ++ctrs_.priorityInterrupts;
    const Word low = wdesc();
    saveLowContext();
    wptr_ = notProcess();
    pickNext();
    TRANSPUTER_ASSERT(pri_ == 0);
    trc(obs::Ev::Interrupt, wdesc(), low);
}

void
Transputer::saveLowContext()
{
    TRANSPUTER_ASSERT(!lowSaved_);
    writeWord(mem_.intSaveAddr(0), wdesc());
    writeWord(mem_.intSaveAddr(1), iptr_);
    writeWord(mem_.intSaveAddr(2), areg_);
    writeWord(mem_.intSaveAddr(3), breg_);
    writeWord(mem_.intSaveAddr(4), creg_);
    writeWord(mem_.intSaveAddr(5), oreg_);
    // the error flag is NOT part of the saved context: there is one
    // flag shared by both priority levels (like HaltOnError), so an
    // error raised -- or consumed by testerr -- at high priority must
    // stay visible after the return to low priority
    oreg_ = 0;
    lowSaved_ = true;
}

void
Transputer::restoreLowContext()
{
    TRANSPUTER_ASSERT(lowSaved_);
    lowSaved_ = false;
    const Word saved = readWord(mem_.intSaveAddr(0));
    wptr_ = shape_.wordAlign(saved);
    pri_ = 1;
    iptr_ = readWord(mem_.intSaveAddr(1));
    areg_ = readWord(mem_.intSaveAddr(2));
    breg_ = readWord(mem_.intSaveAddr(3));
    creg_ = readWord(mem_.intSaveAddr(4));
    oreg_ = readWord(mem_.intSaveAddr(5));
    chargeCycles(isa::cycles::switchHighToLow);
    // the repaid debt is the tail of an interrupted interruptible
    // instruction: a further high-priority wake landing inside it
    // must still see the low switch latency, not the whole tail
    if (lowDebtTicks_ > 0) {
        lastInstrStart_ = time_;
        lastInstrInterruptible_ = true;
        time_ += lowDebtTicks_;
        lowDebtTicks_ = 0;
    }
    // NB: the timeslice clock is NOT reset here -- the slice period
    // is wall-clock time, so time spent interrupted still counts
    // against the resumed process (otherwise frequent interrupts
    // would starve the other low-priority processes of rotation)
    state_ = CpuState::Running;
    trc(obs::Ev::Run, wdesc());
}

} // namespace transputer::core
