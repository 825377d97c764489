/**
 * @file
 * Instruction execution: the byte-at-a-time interpreter, the fused
 * loop over every cached chain (its inlined instructions in
 * core/semantics.hh), and the generic path of the remaining indirect
 * operations (paper sections 3.2.5 - 3.2.9).
 */

#include <bit>
#include <ostream>

#include "base/format.hh"
#include "core/blockc.hh"
#include "core/semantics.hh"
#include "isa/disasm.hh"
#include "isa/encoding.hh"
#include "isa/superop.hh"

namespace transputer::core
{

using isa::Fn;
using isa::Op;
using sem::overflows;
namespace cyc = transputer::isa::cycles;

bool
Transputer::fetchBufferHolds(Word word_addr) const
{
    // the buffered word must be the right one AND unwritten since it
    // was buffered (self-modifying code, link DMA into code)
    return lastFetchValid_ && lastFetchWord_ == word_addr &&
           mem_.writeGen(word_addr) == lastFetchGen_;
}

void
Transputer::setFetchBuffer(Word word_addr)
{
    lastFetchWord_ = word_addr;
    lastFetchGen_ = mem_.writeGen(word_addr);
    lastFetchValid_ = true;
}

void
Transputer::repinFetchBuffer()
{
    // after a restore the buffered word's content is byte-identical
    // to what was buffered (the whole image round-trips), but the
    // write-generation counters are process-local and were bumped by
    // the restore itself; re-reading the current generation keeps the
    // buffer valid without re-charging the fetch
    if (lastFetchValid_)
        lastFetchGen_ = mem_.writeGen(lastFetchWord_);
}

uint8_t
Transputer::fetchByte()
{
    // instruction fetch is word-granular (section 3.2.5: "as memory
    // is word accessed, a 32 bit transputer will receive four
    // instructions for every fetch"); off-chip code therefore pays
    // its wait states once per word of instructions, not per byte.  A
    // wild jump beyond populated memory skips the buffer (its
    // generation lookup would index past the end) and faults in
    // readByte below
    if (!mem_.isOnChip(iptr_) && mem_.contains(iptr_)) {
        const Word w = shape_.wordAlign(iptr_);
        if (!fetchBufferHolds(w)) {
            chargeCycles(mem_.accessWaits(iptr_));
            setFetchBuffer(w);
        }
    }
    const uint8_t b = mem_.readByte(iptr_);
    iptr_ = shape_.truncate(iptr_ + 1);
    return b;
}

int
Transputer::fetchWaits(Word start, int length)
{
    // same word-granular accounting as fetchByte, for a whole
    // predecoded chain at once
    int waits = 0;
    Word w = shape_.wordAlign(start);
    const Word last = shape_.wordAlign(
        shape_.truncate(start + static_cast<Word>(length - 1)));
    while (true) {
        if (!mem_.isOnChip(w) && !fetchBufferHolds(w)) {
            waits += mem_.accessWaits(w);
            setFetchBuffer(w);
        }
        if (w == last)
            break;
        w = shape_.truncate(w + static_cast<Word>(shape_.bytes));
    }
    return waits;
}

int
Transputer::runFused(Tick bound, int budget, bool &uncached)
{
    // The one loop over cached chains, with the hot CPU state hoisted
    // into locals (sem::Hoisted): the direct functions and inlined
    // operations run through their handlers, every other operation
    // through the core with the state handed over.  A miss fills its
    // slot and the run goes on.  The run ends at the bound, the
    // budget, a deschedule or an error halt, before a chain the cache
    // cannot hold (`uncached`: the caller's byte step runs it next,
    // without a second fill), and after its first non-fast chain: fast chains can neither schedule nor
    // cancel an event nor raise a preemption, so only a non-fast one
    // can move the bound.  Superblocks are entered from here, where a
    // control transfer lands on one (wantsBlockEntry).
    //
    // no fast instruction is interruptible, and serviceInterrupt only
    // reads lastInstrStart_ when the last one was
    lastInstrInterruptible_ = false;
    const PredecodeCache::Entry *const entries = icache_.entriesMut();
    const size_t imask = icache_.indexMask();
    const uint32_t *const gens = icache_.gensData();
    inExec_ = true;
    sem::Hoisted h(*this);
    // Host-side statistics.  n counts the chains this loop retires
    // (hits, filled misses and the closing non-fast chain); the budget
    // shrinks by what superblocks retire, which BlockStats counts.  Of
    // the n, all but `settled` (fills, hits already banked) are hits
    // still to bank.  The loop's cycles are the stretches between
    // superblocks: loopCyc holds the closed ones, cyc0 starts the
    // open one.
    int n = 0, inBlocks = 0, settled = 0;
    uint64_t cyc0 = h.cycles, loopCyc = 0;
    // also false after the run's non-fast chain
    bool running = state_ == CpuState::Running;
    // observation thresholds, hoisted like the rest of the hot state
    // (memory stores may alias any member); ~0/maxTick sentinels keep
    // the disabled path at two compares per chain
    uint64_t profNext = profNextCycle_;
    Tick tsNext = tsNextTick_;
    // the superblock where a control transfer lands, about to be
    // entered
    blockc::Superblock *sb = nullptr;
    const auto land = [&](Word target) -> blockc::Superblock * {
        return running && cfg_.blockCompile ? wantsBlockEntry(target)
                                            : nullptr;
    };
    // one epilogue for both exits, with the state spilled
    const auto bank = [this](int chains, int hits, uint64_t cycles) {
        icache_.addHits(static_cast<uint64_t>(hits));
        // one fused run of `chains` chains (bucketed by bit_width, so
        // bucket 0 is the empty run)
        ++ctrs_.fused.runs;
        ctrs_.fused.instructions += static_cast<uint64_t>(chains);
        ctrs_.fused.cycles += cycles;
        ++ctrs_.fused
              .lenLog2[std::bit_width(static_cast<uint32_t>(chains))];
        inExec_ = false;
    };
    try {
        while (n < budget && h.time <= bound && running) {
            if (h.cycles >= profNext || h.time >= tsNext) {
                // chain boundary crossed a sampling threshold: fire
                // with the architectural state spilled (oreg_ is 0
                // throughout the fused loop) and the run's hits banked
                h.spill();
                icache_.addHits(static_cast<uint64_t>(n - settled));
                settled = n;
                obsBoundaryFire(obs::kTierFused);
                h.reload();
                profNext = profNextCycle_;
                tsNext = tsNextTick_;
            }
            {
                const PredecodeCache::Entry *e =
                    &entries[static_cast<size_t>(h.iptr) & imask];
                if (!(e->length && e->tag == h.iptr &&
                      gens[e->gidx] == e->gen &&
                      gens[e->gidx2] == e->gen2)) [[unlikely]] {
                    e = icache_.fill(h.iptr); // a miss
                    if (!e) {
                        uncached = true; // the byte step runs it
                        break;
                    }
                    ++settled;
                }
                ++n;
                sem::retire(h, *e);
                switch (static_cast<Fn>(e->fn)) {
                  case Fn::J:
                    sem::j(h, e->operand);
                    running = state_ == CpuState::Running;
                    if ((sb = land(h.iptr)))
                        goto enter;
                    break;
                  case Fn::CJ:
                    // taken: maybe a back-edge
                    if (sem::cj(h, e->operand) && (sb = land(h.iptr)))
                        goto enter;
                    break;
                  case Fn::OPR: {
                    if (!(e->flags & isa::pflag::kFast)) [[unlikely]] {
                        // a non-fast operation, the one kind that can
                        // move the bound, runs in the core and ends
                        // the run; execOp faults an undefined one
                        // (kFast implies a defined operand)
                        h.toCore();
                        execOp(e->operand);
                        h.fromCore();
                        running = false;
                        break;
                    }
                    const Op op = static_cast<Op>(e->operand);
                    if (sem::operate(h, op))
                        break;
                    // the core runs the other fast operations
                    const Word next = h.iptr;
                    h.toCore();
                    execGenericOp(op);
                    h.fromCore();
                    running = state_ == CpuState::Running;
                    // lend's back-edge, gcall, ret, or a rotation at
                    // lend
                    if (h.iptr != next && !(h.err && h.haltOnError) &&
                        (sb = land(h.iptr)))
                        goto enter;
                    break;
                  }
                  // the other direct functions, each passed as a
                  // constant so that the handler's own switch folds
                  // away
#define TRANSPUTER_INLINE_CASE(name, kind, effects)                    \
                  case Fn::name:                                       \
                    sem::direct(h, Fn::name, e->operand);              \
                    break;
                    TRANSPUTER_INLINED_DIRECT(TRANSPUTER_INLINE_CASE)
#undef TRANSPUTER_INLINE_CASE
                  default:
                    break; // unreachable: pfix/nfix never end a chain
                }
            }
            if (h.err && h.haltOnError) {
                state_ = CpuState::Halted;
                trcAt(h.time, obs::Ev::Halt,
                      h.wp | static_cast<Word>(pri_));
                break;
            }
            continue;
          enter:
            // a superblock, entered at a chain boundary that the loop
            // head's checks admit; it returns with the state spilled
            if (n < budget && h.time <= bound && running) {
                loopCyc += h.cycles - cyc0;
                h.toCore();
                const int k = enterBlock(*sb, bound, budget - n);
                h.fromCore();
                cyc0 = h.cycles;
                budget -= k;
                inBlocks += k;
                running = state_ == CpuState::Running;
            }
            sb = nullptr;
        }
    } catch (...) {
        // a throw out of the core (a generic operation, a superblock)
        // leaves the state in the object; a superblock that threw has
        // banked its own stretch
        if (!h.inCore)
            h.spill();
        if (!sb)
            loopCyc += cycles_ - cyc0;
        bank(n, n - settled, loopCyc);
        throw;
    }
    h.spill();
    bank(n, n - settled, loopCyc + h.cycles - cyc0);
    return n + inBlocks;
}

void
Transputer::executeOneSlow()
{
    lastInstrStart_ = time_;
    lastInstrInterruptible_ = false;
    inExec_ = true;
    if (trace_) {
        uint8_t buf[8];
        for (int i = 0; i < 8; ++i)
            buf[i] = mem_.readByte(shape_.truncate(iptr_ + i));
        const auto d = isa::decode(buf, sizeof(buf), 0, shape_);
        std::string text = !d.complete
            ? std::string("pfix chain...")
            : d.isOperation && isa::opDefined(d.operand)
            ? std::string(isa::opName(static_cast<Op>(d.operand)))
            : fmt("{} #{}", isa::fnName(d.fn), hexWord(d.operand, 4));
        *trace_ << name_ << " t=" << time_ << " I=" << hexWord(iptr_)
                << " W=" << hexWord(wptr_) << " A=" << hexWord(areg_)
                << " B=" << hexWord(breg_) << " C=" << hexWord(creg_)
                << "  " << text << "\n";
    }
    const uint8_t b = fetchByte();
    ++instructions_;
    const Fn fn = static_cast<Fn>(b >> 4);
    ++ctrs_.fn[b >> 4];
    oreg_ = shape_.truncate(oreg_ | (b & 0x0F));
    switch (fn) {
      case Fn::PFIX:
        oreg_ = shape_.truncate(oreg_ << 4);
        chargeCycles(cyc::direct(fn));
        break;
      case Fn::NFIX:
        oreg_ = shape_.truncate(~oreg_ << 4);
        chargeCycles(cyc::direct(fn));
        break;
      case Fn::OPR: {
        const Word op = oreg_;
        oreg_ = 0;
        execOp(op);
        break;
      }
      default: {
        const Word operand = oreg_;
        oreg_ = 0;
        execDirect(fn, operand);
        break;
      }
    }
    inExec_ = false;
    if (errorFlag_ && haltOnError_) {
        state_ = CpuState::Halted;
        trc(obs::Ev::Halt, wdesc());
    }
}

void
Transputer::execDirect(Fn fn, Word operand)
{
    // each direct function passed as a constant, as in the fused loop,
    // so that one switch reaches its handler
    sem::Members m(*this);
    switch (fn) {
      case Fn::J:
        sem::j(m, operand);
        break;
      case Fn::CJ:
        sem::cj(m, operand);
        break;
#define TRANSPUTER_INLINE_CASE(name, kind, effects)                    \
      case Fn::name:                                                   \
        sem::direct(m, Fn::name, operand);                             \
        break;
        TRANSPUTER_INLINED_DIRECT(TRANSPUTER_INLINE_CASE)
#undef TRANSPUTER_INLINE_CASE
      default:
        panic("prefix/opr reached execDirect");
    }
}

void
Transputer::execOp(Word operation)
{
    if (!isa::opDefined(operation))
        fatal("{}: undefined operation #{} at iptr #{}", name_,
              hexWord(operation, 4), hexWord(iptr_));
    const Op op = static_cast<Op>(operation);
    if (sem::Members m(*this); sem::operate(m, op))
        return; // an inlined operation: counted and charged
    execGenericOp(op);
}

void
Transputer::execGenericOp(Op op)
{
    ++ctrs_.op[static_cast<size_t>(op)];
    chargeCycles(cyc::op(op));
    const int bits = shape_.bits;

    switch (op) {
      case Op::LB:
        areg_ = readByte(areg_);
        break;

      case Op::ENDP: {
        // Areg points at the (successor Iptr, count) pair
        const Word p = shape_.wordAlign(areg_);
        const Word count = readWord(shape_.index(p, 1));
        if (count == 1) {
            // last component: continue as the successor process
            wptr_ = p;
            iptr_ = readWord(shape_.index(p, 0));
            flushFetchBuffer();
        } else {
            writeWord(shape_.index(p, 1), shape_.truncate(count - 1));
            descheduleCurrent(false); // this component terminates
        }
        break;
      }

      case Op::GCALL:
        std::swap(areg_, iptr_);
        flushFetchBuffer();
        break;

      case Op::IN: {
        const Word count = areg_, chan = breg_, ptr = creg_;
        channelIn(count, chan, ptr);
        break;
      }

      case Op::PROD:
        chargeCycles(cyc::prod(areg_));
        areg_ = shape_.truncate(static_cast<uint64_t>(breg_) *
                                static_cast<uint64_t>(areg_));
        breg_ = creg_;
        break;

      case Op::OUT: {
        const Word count = areg_, chan = breg_, ptr = creg_;
        channelOut(count, chan, ptr);
        break;
      }

      case Op::STARTP: {
        const Word w = shape_.wordAlign(areg_);
        wsWrite(w, ws::iptr, shape_.truncate(iptr_ + breg_));
        scheduleProcess(w | static_cast<Word>(pri_));
        pop();
        pop();
        break;
      }

      case Op::OUTBYTE: {
        // A = channel, B = byte value (the channel is loaded last)
        const Word chan = areg_;
        writeWord(wptr_, breg_ & 0xFF); // Wptr[0] is the byte buffer
        channelOut(1, chan, wptr_);
        break;
      }

      case Op::OUTWORD: {
        const Word chan = areg_;
        writeWord(wptr_, breg_);
        channelOut(static_cast<Word>(shape_.bytes), chan, wptr_);
        break;
      }

      case Op::SETERR:
        setError();
        break;

      case Op::RESETCH: {
        const Word chan = areg_;
        if (ChannelPort *port = portFor(chan)) {
            port->reset();
            areg_ = notProcess();
        } else {
            areg_ = readWord(chan);
            writeWord(chan, notProcess());
        }
        break;
      }

      case Op::CSUB0:
        // A = limit, B = index: error unless index in [0, limit)
        if (breg_ >= areg_)
            setError();
        areg_ = breg_;
        breg_ = creg_;
        break;

      case Op::STOPP:
        descheduleCurrent(true);
        break;

      case Op::LADD: {
        const int64_t r = shape_.toSigned(breg_) +
                          shape_.toSigned(areg_) +
                          static_cast<int64_t>(creg_ & 1);
        if (overflows(shape_, r))
            setError();
        areg_ = shape_.truncate(static_cast<uint64_t>(r));
        break;
      }

      case Op::STLB:
        bptr_[1] = shape_.wordAlign(areg_);
        pop();
        break;

      case Op::STHF:
        fptr_[0] = areg_ == notProcess() ? areg_
                                         : shape_.wordAlign(areg_);
        pop();
        break;

      case Op::NORM: {
        // double word (hi = Breg, lo = Areg) shifted left until the
        // top bit of hi is set; Creg receives the shift distance
        uint64_t v = (static_cast<uint64_t>(breg_) << bits) | areg_;
        int places = 0;
        if (v == 0) {
            places = 2 * bits;
        } else {
            const uint64_t top = uint64_t{1} << (2 * bits - 1);
            while (!(v & top)) {
                v <<= 1;
                ++places;
            }
        }
        chargeCycles(cyc::norm(places));
        areg_ = shape_.truncate(v);
        breg_ = shape_.truncate(v >> bits);
        creg_ = shape_.truncate(static_cast<uint64_t>(places));
        break;
      }

      case Op::LDIV: {
        chargeCycles(cyc::ldiv(shape_));
        // unsigned (Creg:Breg) / Areg -> quotient Areg, rem Breg
        if (creg_ >= areg_) {
            setError(); // quotient would not fit in a word
            areg_ = 0;
            breg_ = 0;
        } else {
            const uint64_t dividend =
                (static_cast<uint64_t>(creg_) << bits) | breg_;
            const uint64_t d = areg_;
            areg_ = shape_.truncate(dividend / d);
            breg_ = shape_.truncate(dividend % d);
        }
        break;
      }

      case Op::STLF:
        fptr_[1] = areg_ == notProcess() ? areg_
                                         : shape_.wordAlign(areg_);
        pop();
        break;

      case Op::XDBLE:
        creg_ = breg_;
        breg_ = shape_.isNeg(areg_) ? shape_.mask : 0;
        break;

      case Op::LDPRI:
        push(static_cast<Word>(pri_));
        break;

      case Op::REM: {
        chargeCycles(cyc::rem(shape_));
        if (areg_ == 0 ||
            (areg_ == shape_.mask && breg_ == shape_.mostNeg)) {
            setError();
            areg_ = 0;
        } else {
            const int64_t r = shape_.toSigned(breg_) %
                              shape_.toSigned(areg_);
            areg_ = shape_.truncate(static_cast<uint64_t>(r));
        }
        breg_ = creg_;
        break;
      }

      case Op::RET:
        iptr_ = readWord(wptr_);
        wptr_ = shape_.index(wptr_, 4);
        flushFetchBuffer();
        break;

      case Op::LEND: {
        // Breg -> control block {index, count}; Areg = bytes back
        const Word ctrl = shape_.wordAlign(breg_);
        const Word count =
            shape_.truncate(readWord(shape_.index(ctrl, 1)) - 1);
        writeWord(shape_.index(ctrl, 1), count);
        if (shape_.toSigned(count) > 0) {
            chargeCycles(cyc::lendLoops);
            writeWord(ctrl,
                      shape_.truncate(readWord(ctrl) + 1)); // index++
            iptr_ = shape_.truncate(iptr_ - areg_);
            flushFetchBuffer();
            timesliceCheck(); // a descheduling point
        }
        break;
      }

      case Op::LDTIMER:
        push(clockReg(pri_));
        break;

      case Op::TESTERR:
        push(errorFlag_ ? 0 : 1);
        errorFlag_ = false;
        break;

      case Op::TESTPRANAL:
        push(0);
        break;

      case Op::TIN: {
        const Word t = areg_;
        pop();
        if (timeAfter(pri_, shape_.truncate(t + 1))) {
            break; // already past
        }
        chargeCycles(cyc::tinWaits);
        wsWrite(wptr_, ws::time, shape_.truncate(t + 1));
        timerInsert(pri_, wptr_, shape_.truncate(t + 1));
        descheduleCurrent(true);
        break;
      }

      case Op::DIV: {
        chargeCycles(cyc::div(shape_));
        if (areg_ == 0 ||
            (areg_ == shape_.mask && breg_ == shape_.mostNeg)) {
            setError();
            areg_ = 0;
        } else {
            const int64_t q = shape_.toSigned(breg_) /
                              shape_.toSigned(areg_);
            areg_ = shape_.truncate(static_cast<uint64_t>(q));
        }
        breg_ = creg_;
        break;
      }

      case Op::DIST: {
        // A = offset, B = guard, C = time
        const Word offset = areg_, guard = breg_, t = creg_;
        bool fired = false;
        if (guard != 0) {
            const Word tlink = wsRead(wptr_, ws::tlink);
            if (tlink != timeSet() && tlink != timeNotSet())
                timerRemove(pri_, wptr_); // still on the timer queue
            if (timeAfter(pri_, shape_.truncate(t + 1)) &&
                readWord(wptr_) == noneSelected()) {
                writeWord(wptr_, offset);
                fired = true;
            }
        }
        areg_ = fired ? 1 : 0;
        breg_ = creg_;
        break;
      }

      case Op::DISC: {
        // A = offset, B = guard, C = channel
        const Word offset = areg_, guard = breg_, chan = creg_;
        bool ready = false;
        if (guard != 0)
            ready = disableChannel(chan);
        bool fired = false;
        if (ready && readWord(wptr_) == noneSelected()) {
            writeWord(wptr_, offset);
            fired = true;
        }
        areg_ = fired ? 1 : 0;
        breg_ = creg_;
        break;
      }

      case Op::DISS: {
        // A = offset, B = guard
        const Word offset = areg_, guard = breg_;
        bool fired = false;
        if (guard != 0 && readWord(wptr_) == noneSelected()) {
            writeWord(wptr_, offset);
            fired = true;
        }
        areg_ = fired ? 1 : 0;
        breg_ = creg_;
        break;
      }

      case Op::LMUL: {
        chargeCycles(cyc::lmul(shape_));
        const uint64_t r = static_cast<uint64_t>(breg_) *
                           static_cast<uint64_t>(areg_) + creg_;
        areg_ = shape_.truncate(r);
        breg_ = shape_.truncate(r >> bits);
        break;
      }

      case Op::BCNT:
        areg_ = shape_.truncate(static_cast<uint64_t>(areg_) *
                                shape_.bytes);
        break;

      case Op::LSHR: {
        const Word count = areg_;
        const int n = static_cast<int>(
            std::min<Word>(count, static_cast<Word>(2 * bits)));
        chargeCycles(cyc::longShift(static_cast<Word>(n)));
        uint64_t v = (static_cast<uint64_t>(creg_) << bits) | breg_;
        v = n >= 2 * bits ? 0 : v >> n;
        areg_ = shape_.truncate(v);
        breg_ = shape_.truncate(v >> bits);
        break;
      }

      case Op::LSHL: {
        const Word count = areg_;
        const int n = static_cast<int>(
            std::min<Word>(count, static_cast<Word>(2 * bits)));
        chargeCycles(cyc::longShift(static_cast<Word>(n)));
        uint64_t v = (static_cast<uint64_t>(creg_) << bits) | breg_;
        v = n >= 2 * bits ? 0 : v << n;
        if (bits < 32)
            v &= (uint64_t{1} << (2 * bits)) - 1;
        areg_ = shape_.truncate(v);
        breg_ = shape_.truncate(v >> bits);
        break;
      }

      case Op::LSUM: {
        const uint64_t r = static_cast<uint64_t>(breg_) + areg_ +
                           (creg_ & 1);
        areg_ = shape_.truncate(r);
        breg_ = shape_.truncate(r >> bits) & 1;
        break;
      }

      case Op::LSUB: {
        const int64_t r = shape_.toSigned(breg_) -
                          shape_.toSigned(areg_) -
                          static_cast<int64_t>(creg_ & 1);
        if (overflows(shape_, r))
            setError();
        areg_ = shape_.truncate(static_cast<uint64_t>(r));
        break;
      }

      case Op::RUNP: {
        const Word w = areg_;
        pop();
        scheduleProcess(w);
        break;
      }

      case Op::XWORD: {
        // A = sign-bit power of two, B = part-word value
        const Word power = areg_;
        const Word mask = shape_.truncate(2 * power - 1);
        Word v = breg_ & mask;
        if (v & power)
            v = shape_.truncate(v | ~mask);
        areg_ = v;
        breg_ = creg_;
        break;
      }

      case Op::SB:
        writeByte(areg_, static_cast<uint8_t>(breg_ & 0xFF));
        pop();
        pop();
        break;

      case Op::GAJW: {
        const Word t = areg_;
        areg_ = wptr_;
        wptr_ = shape_.wordAlign(t);
        break;
      }

      case Op::SAVEL:
        writeWord(shape_.index(shape_.wordAlign(areg_), 0), fptr_[1]);
        writeWord(shape_.index(shape_.wordAlign(areg_), 1), bptr_[1]);
        pop();
        break;

      case Op::SAVEH:
        writeWord(shape_.index(shape_.wordAlign(areg_), 0), fptr_[0]);
        writeWord(shape_.index(shape_.wordAlign(areg_), 1), bptr_[0]);
        pop();
        break;

      case Op::WCNT: {
        const Word p = areg_;
        creg_ = breg_;
        breg_ = static_cast<Word>(shape_.byteSelect(p));
        areg_ = shape_.truncate(static_cast<uint64_t>(
            shape_.toSigned(p) >> shape_.byteSelectBits));
        break;
      }

      case Op::SHR: {
        const Word count = areg_;
        const int n = static_cast<int>(
            std::min<Word>(count, static_cast<Word>(2 * bits)));
        chargeCycles(cyc::shift(static_cast<Word>(n)));
        areg_ = n >= bits ? 0 : shape_.truncate(breg_ >> n);
        breg_ = creg_;
        break;
      }

      case Op::SHL: {
        const Word count = areg_;
        const int n = static_cast<int>(
            std::min<Word>(count, static_cast<Word>(2 * bits)));
        chargeCycles(cyc::shift(static_cast<Word>(n)));
        areg_ = n >= bits
                    ? 0
                    : shape_.truncate(static_cast<uint64_t>(breg_)
                                      << n);
        breg_ = creg_;
        break;
      }

      case Op::ALT:
        wsWrite(wptr_, ws::state, enabling());
        break;

      case Op::ALTWT:
        writeWord(wptr_, noneSelected());
        if (wsRead(wptr_, ws::state) == readyAlt())
            break;
        chargeCycles(cyc::altwtWaits);
        wsWrite(wptr_, ws::state, waitingAlt());
        descheduleCurrent(true);
        break;

      case Op::ALTEND:
        iptr_ = shape_.truncate(iptr_ + readWord(wptr_));
        flushFetchBuffer();
        break;

      case Op::ENBT: {
        // A = guard, B = time
        const Word guard = areg_, t = breg_;
        if (guard != 0) {
            const Word tlink = wsRead(wptr_, ws::tlink);
            if (tlink == timeNotSet()) {
                wsWrite(wptr_, ws::tlink, timeSet());
                wsWrite(wptr_, ws::time, t);
            } else if (shape_.toSigned(shape_.truncate(
                           t - wsRead(wptr_, ws::time))) < 0) {
                wsWrite(wptr_, ws::time, t); // earlier deadline
            }
        }
        breg_ = creg_;
        break;
      }

      case Op::ENBC: {
        // A = guard, B = channel
        const Word guard = areg_, chan = breg_;
        if (guard != 0)
            enableChannel(chan);
        breg_ = creg_;
        break;
      }

      case Op::ENBS:
        if (areg_ != 0)
            wsWrite(wptr_, ws::state, readyAlt());
        break;

      case Op::MOVE: {
        // A = count, B = destination, C = source
        const Word count = areg_, dst = breg_, src = creg_;
        chargeCycles(cyc::move(shape_, count));
        lastInstrInterruptible_ = true;
        copyMessage(dst, src, count);
        pop();
        pop();
        pop();
        break;
      }

      case Op::CSNGL: {
        // A = lo, B = hi: check the pair is a sign-extended single
        const Word expect = shape_.isNeg(areg_) ? shape_.mask : 0;
        if (breg_ != expect)
            setError();
        breg_ = creg_;
        break;
      }

      case Op::CCNT1:
        // A = limit, B = count: error if count == 0 or count > limit
        if (breg_ == 0 || breg_ > areg_)
            setError();
        areg_ = breg_;
        breg_ = creg_;
        break;

      case Op::TALT:
        wsWrite(wptr_, ws::state, enabling());
        wsWrite(wptr_, ws::tlink, timeNotSet());
        break;

      case Op::LDIFF: {
        const uint64_t bb = breg_, aa = areg_, borrow = creg_ & 1;
        const uint64_t r = bb - aa - borrow;
        areg_ = shape_.truncate(r);
        breg_ = (bb < aa + borrow) ? 1 : 0;
        break;
      }

      case Op::STHB:
        bptr_[0] = shape_.wordAlign(areg_);
        pop();
        break;

      case Op::TALTWT: {
        writeWord(wptr_, noneSelected());
        lastInstrInterruptible_ = true;
        if (wsRead(wptr_, ws::state) == readyAlt())
            break;
        const Word tlink = wsRead(wptr_, ws::tlink);
        if (tlink == timeSet()) {
            const Word t = wsRead(wptr_, ws::time);
            if (timeAfter(pri_, shape_.truncate(t + 1))) {
                wsWrite(wptr_, ws::state, readyAlt());
                break;
            }
            // queue on the timer list until the earliest deadline
            wsWrite(wptr_, ws::time, shape_.truncate(t + 1));
            timerInsert(pri_, wptr_, shape_.truncate(t + 1));
        }
        chargeCycles(cyc::taltwtWaits);
        wsWrite(wptr_, ws::state, waitingAlt());
        descheduleCurrent(true);
        break;
      }

      case Op::MUL: {
        chargeCycles(cyc::mul(shape_));
        const int64_t r = shape_.toSigned(breg_) * shape_.toSigned(areg_);
        if (overflows(shape_, r))
            setError();
        areg_ = shape_.truncate(static_cast<uint64_t>(r));
        breg_ = creg_;
        break;
      }

      case Op::STTIMER:
        timerBase_ = time_;
        timerOffset_[0] = areg_;
        timerOffset_[1] = areg_;
        timersRunning_ = true;
        pop();
        break;

      case Op::STOPERR:
        if (errorFlag_)
            descheduleCurrent(true);
        break;

      case Op::CWORD: {
        // A = sign-bit power of two, B = value: error unless value
        // representable in the part word
        const int64_t a = shape_.toSigned(areg_);
        const int64_t v = shape_.toSigned(breg_);
        if (v >= a || v < -a)
            setError();
        areg_ = breg_;
        breg_ = creg_;
        break;
      }

      case Op::CLRHALTERR:
        haltOnError_ = false;
        break;

      case Op::SETHALTERR:
        haltOnError_ = true;
        break;

      case Op::TESTHALTERR:
        push(haltOnError_ ? 1 : 0);
        break;

      default:
        break; // the inlined operations: sem::operate runs them
    }
}

} // namespace transputer::core
