/**
 * @file
 * One definition of each inlined instruction (paper sections 3.2.5 -
 * 3.2.9): the thirteen direct functions and the fast operations listed
 * in isa/superop.hh's TRANSPUTER_INLINED_* tables, plus the chain
 * retire step every predecoded tier shares.
 *
 * Each handler is a template over a state policy that says where the
 * CPU state lives:
 *   - Members: the Transputer's own registers, clock and counters
 *     (the byte-at-a-time interpreter);
 *   - Hoisted: copies in locals that the fused loop keeps in host
 *     registers.  Stores into the byte-addressed memory image may
 *     alias any member, so working through the object would reload
 *     the whole state after every write; the policy spills and
 *     reloads around every call that reads or writes the object;
 *   - Swept: Hoisted for the block executor, which takes the charges
 *     and stamps compilation already knows from its superblock's
 *     rows, once per sweep of steps.
 * Every cycle charge comes from isa/cycles.hh, so the tiers cannot
 * drift apart in semantics or timing.  A handler names the two kinds
 * of charge apart: charge() for the costs the instruction stream fixes
 * (prefixes, base costs) and chargeDynamic() for the ones the data
 * decides (wait states, a taken cj's extra cycles).
 */

#ifndef TRANSPUTER_CORE_SEMANTICS_HH
#define TRANSPUTER_CORE_SEMANTICS_HH

#include <utility>

#include "core/blockc.hh"
#include "core/transputer.hh"
#include "isa/cycles.hh"

namespace transputer::core::sem
{

using isa::Fn;
using isa::Op;
namespace cyc = isa::cycles;

#define TRANSPUTER_SEM_INLINE [[gnu::always_inline]] inline

/** Signed range check for a host-width intermediate result. */
TRANSPUTER_SEM_INLINE bool
overflows(const WordShape &s, int64_t v)
{
    return v > static_cast<int64_t>(s.mostPos) ||
           v < -static_cast<int64_t>(s.mostNeg);
}

/** WordShape::toSigned without its variable shift: the sign bit of a
 *  word is MostNeg. */
TRANSPUTER_SEM_INLINE int64_t
sgn(const WordShape &s, Word v)
{
    return static_cast<int64_t>((v & s.mask) ^ s.mostNeg) -
           static_cast<int64_t>(s.mostNeg);
}

/** What both policies share: the CPU, its memory and its counters. */
struct Core
{
    explicit Core(Transputer &t) : cpu(t), mem(t.mem_) {}

    Transputer &cpu;
    mem::Memory &mem;

    TRANSPUTER_SEM_INLINE void flushFetch() { cpu.flushFetchBuffer(); }

    TRANSPUTER_SEM_INLINE void
    countOp(Op o)
    {
        ++cpu.ctrs_.op[static_cast<size_t>(o)];
    }

    /** Function counts of one chain (prefixes under PFIX/NFIX). */
    TRANSPUTER_SEM_INLINE void
    countFns(const PredecodeCache::Entry &e)
    {
        if (e.pfixes | e.nfixes) {
            cpu.ctrs_.fn[static_cast<size_t>(Fn::PFIX)] += e.pfixes;
            cpu.ctrs_.fn[static_cast<size_t>(Fn::NFIX)] += e.nfixes;
        }
        ++cpu.ctrs_.fn[e.fn];
    }
};

/** State policy: the Transputer's own members. */
struct Members : Core
{
    explicit Members(Transputer &t)
        : Core(t), sh(t.shape_), period(t.cfg_.cyclePeriod),
          iptr(t.iptr_), a(t.areg_), b(t.breg_), c(t.creg_),
          wp(t.wptr_), time(t.time_), cycles(t.cycles_),
          err(t.errorFlag_)
    {}

    const WordShape &sh;
    const Tick period;
    Word &iptr, &a, &b, &c, &wp;
    Tick &time;
    uint64_t &cycles;
    bool &err;

    TRANSPUTER_SEM_INLINE void
    charge(int64_t n)
    {
        cycles += static_cast<uint64_t>(n);
        time += n * period;
    }
    TRANSPUTER_SEM_INLINE void chargeDynamic(int64_t n) { charge(n); }
    TRANSPUTER_SEM_INLINE void setError() { err = true; }

    TRANSPUTER_SEM_INLINE void deschedulePoint() { cpu.timesliceCheck(); }

    /** A store landed at offset off (nothing to note here). */
    TRANSPUTER_SEM_INLINE void stored(size_t) {}
};

/** State policy: the hot state hoisted into locals. */
struct Hoisted : Core
{
    explicit Hoisted(Transputer &t)
        : Core(t), sh(t.shape_), period(t.cfg_.cyclePeriod)
    {
        reload();
    }

    const WordShape sh;
    const Tick period;
    Word iptr, a, b, c, wp;
    Tick time, lastStart;
    uint64_t cycles, instructions;
    bool err, haltOnError;

    /** Set between toCore() and fromCore(): while a core member runs,
     *  the object holds the state, and a throw out of the core leaves
     *  its charges and stores there -- a tier's exception path must
     *  then not spill the locals over them. */
    bool inCore = false;

    /** Write the locals back (before anything reads the object). */
    TRANSPUTER_SEM_INLINE void
    spill()
    {
        cpu.iptr_ = iptr;
        cpu.areg_ = a;
        cpu.breg_ = b;
        cpu.creg_ = c;
        cpu.wptr_ = wp;
        cpu.time_ = time;
        cpu.lastInstrStart_ = lastStart;
        cpu.cycles_ = cycles;
        cpu.instructions_ = instructions;
    }

    /** Re-read the locals (after anything may have written the
     *  object: the core, or a superblock nested in a fused run). */
    TRANSPUTER_SEM_INLINE void
    reload()
    {
        iptr = cpu.iptr_;
        a = cpu.areg_;
        b = cpu.breg_;
        c = cpu.creg_;
        wp = cpu.wptr_;
        time = cpu.time_;
        lastStart = cpu.lastInstrStart_;
        cycles = cpu.cycles_;
        instructions = cpu.instructions_;
        err = cpu.errorFlag_;
        haltOnError = cpu.haltOnError_;
    }

    /** Hand the state to the core before a call that reads or writes
     *  the object... */
    TRANSPUTER_SEM_INLINE void
    toCore()
    {
        spill();
        inCore = true;
    }

    /** ...and take it back after the call returns. */
    TRANSPUTER_SEM_INLINE void
    fromCore()
    {
        inCore = false;
        reload();
    }

    TRANSPUTER_SEM_INLINE void
    charge(int64_t n)
    {
        cycles += static_cast<uint64_t>(n);
        time += n * period;
    }
    TRANSPUTER_SEM_INLINE void chargeDynamic(int64_t n) { charge(n); }

    TRANSPUTER_SEM_INLINE void
    setError()
    {
        err = true;
        cpu.errorFlag_ = true;
    }

    /** The off-chip word fetches of the chain at [start, start +
     *  length). */
    TRANSPUTER_SEM_INLINE void
    chargeFetch(Word start, int length)
    {
        if (const int w = cpu.fetchWaits(start, length))
            charge(w);
    }

    TRANSPUTER_SEM_INLINE void
    deschedulePoint()
    {
        toCore();
        cpu.timesliceCheck();
        fromCore();
    }

    /** A store landed at offset off (nothing to note here). */
    TRANSPUTER_SEM_INLINE void stored(size_t) {}
};

/**
 * State policy of the block executor: the hoisted state, with every
 * charge, count and stamp that compilation already knows taken from
 * the superblock's rows (blockc::Superblock::Row) once per sweep.  A
 * sweep is the run of steps retired since the last close(); closing
 * it folds in their prefix and base cycles and their instruction and
 * function counts, and sets iptr and lastStart as the interpreter
 * leaves them after the sweep's last chain.  A dynamic charge -- wait
 * states, a taken cj's extra cycles, an off-chip fetch -- closes the
 * sweep before it lands, so every stamp is the interpreter's.  The
 * executor closes the sweep too before anything reads the state: a
 * call into the core, an exit, a throw.
 */
struct Swept : Hoisted
{
    Swept(Transputer &t, const blockc::Superblock &sb)
        : Hoisted(t), codeLo(sb.codeLo), codeSpan(sb.codeSpan),
          steps(sb.steps.data()), rows(sb.rows.data()), st(steps),
          sweep0(steps)
    {}

    /** The guards' write-generation blocks [codeLo, codeLo +
     *  codeSpan]: only a store landing there (nearCode) can make a
     *  guard stale. */
    const size_t codeLo, codeSpan;
    bool nearCode = false;

    const blockc::Step *const steps;
    const blockc::Superblock::Row *const rows;
    /** Past the last retired step: the next step to dispatch, and
     *  inside a handler one past the step running (a step retires as
     *  its handler starts, as retire() runs first in the fused
     *  loop). */
    const blockc::Step *st;
    /** The open sweep's first step. */
    const blockc::Step *sweep0;
    /** Chains retired by closed sweeps. */
    int done = 0;

    /** Prefix and base cycles: the rows carry them. */
    TRANSPUTER_SEM_INLINE void charge(int64_t) {}

    /** A dynamic charge of the step running, after its stamp. */
    TRANSPUTER_SEM_INLINE void
    chargeDynamic(int64_t n)
    {
        close(st);
        Hoisted::charge(n);
    }

    /** The off-chip fetch of the step about to run (st), before its
     *  stamp. */
    TRANSPUTER_SEM_INLINE void
    chargeFetch(Word start, int length)
    {
        if (const int w = cpu.fetchWaits(start, length)) {
            close(st);
            Hoisted::charge(w);
        }
    }

    /** A store landed at offset off: note it if it hit the window. */
    TRANSPUTER_SEM_INLINE void
    stored(size_t off)
    {
        if (mem::Memory::blockAt(off) - codeLo <= codeSpan)
            nearCode = true;
    }

    /** Close the open sweep at `end`: fold in the rows' difference. */
    TRANSPUTER_SEM_INLINE void
    close(const blockc::Step *end)
    {
        if (end == sweep0)
            return;
        const blockc::Superblock::Row &r1 = rows[end - steps];
        const blockc::Superblock::Row &r0 = rows[sweep0 - steps];
        for (size_t f = 0; f < r1.fn.size(); ++f)
            cpu.ctrs_.fn[f] += static_cast<uint64_t>(r1.fn[f] - r0.fn[f]);
        instructions += static_cast<uint64_t>(r1.len - r0.len);
        lastStart = time + static_cast<Tick>(r1.stamp - r0.cycles) * period;
        Hoisted::charge(r1.cycles - r0.cycles);
        iptr = r1.iptr;
        done += static_cast<int>(end - sweep0);
        sweep0 = end;
    }
};

// ---------------------------------------------------------------------
// the chain retire step
// ---------------------------------------------------------------------

/**
 * Retire one predecoded chain up to its final function (the fused
 * loop): the off-chip fetch charge, the instruction and function
 * counts, the prefixes' cycles, the post-prefix lastInstrStart_ stamp
 * and the iptr advance.  The block executor takes the same from its
 * superblock's rows, once per sweep (Swept).
 */
template <class S>
TRANSPUTER_SEM_INLINE void
retire(S &m, const PredecodeCache::Entry &e)
{
    if (e.offChip)
        m.chargeFetch(e.tag, e.length);
    m.instructions += e.length;
    m.countFns(e);
    if (e.pfixes | e.nfixes)
        m.charge(e.pfixes * cyc::direct(Fn::PFIX) +
                 e.nfixes * cyc::direct(Fn::NFIX));
    // after the prefix charges, so the interruptible-instruction
    // window seen by serviceInterrupt matches the byte-at-a-time path
    // (which starts a fresh instruction at the final chain byte); the
    // field is snapshot state, so every tier stamps every chain
    m.lastStart = m.time;
    m.iptr = m.sh.truncate(e.tag + e.length); // the chain starts at iptr
}

// ---------------------------------------------------------------------
// evaluation stack and memory (wait states charged on access)
// ---------------------------------------------------------------------

template <class S>
TRANSPUTER_SEM_INLINE void
push(S &m, Word v)
{
    m.c = m.b;
    m.b = m.a;
    m.a = v;
}

template <class S>
TRANSPUTER_SEM_INLINE Word
pop(S &m)
{
    const Word v = m.a;
    m.a = m.b;
    m.b = m.c;
    return v;
}

/** A guest word load: the word's offset is computed once and serves
 *  its wait states and the access (mem::Memory's access path). */
template <class S>
TRANSPUTER_SEM_INLINE Word
read(S &m, Word addr)
{
    const size_t off = m.mem.wordOffset(addr);
    if (const int w = m.mem.waitsAt(off))
        m.chargeDynamic(w);
    return m.mem.readWordAt(off);
}

/** A guest word store: one offset for its wait states, the store and
 *  its write-generation block. */
template <class S>
TRANSPUTER_SEM_INLINE void
write(S &m, Word addr, Word v)
{
    const size_t off = m.mem.wordOffset(addr);
    if (const int w = m.mem.waitsAt(off))
        m.chargeDynamic(w);
    m.mem.writeWordAt(off, v);
    m.stored(off);
}

/** The word address `n` words (signed) from `base`.  `n` needs no
 *  sign extension: the sum wraps to the word width anyway. */
template <class S>
TRANSPUTER_SEM_INLINE Word
offset(S &m, Word base, Word n)
{
    return m.sh.truncate(base + n * static_cast<Word>(m.sh.bytes));
}

/** A signed result that sets the error flag when it does not fit. */
template <class S>
TRANSPUTER_SEM_INLINE Word
checked(S &m, int64_t r)
{
    if (overflows(m.sh, r))
        m.setError();
    return m.sh.truncate(static_cast<uint64_t>(r));
}

/** The result of a binary operation: A = r, and the stack pops. */
template <class S>
TRANSPUTER_SEM_INLINE void
result(S &m, Word r)
{
    m.a = r;
    m.b = m.c;
}

// ---------------------------------------------------------------------
// the direct functions (section 3.2.5)
// ---------------------------------------------------------------------

/** j: jump; a descheduling point (section 3.2.4). */
template <class S>
TRANSPUTER_SEM_INLINE void
j(S &m, Word op)
{
    m.charge(cyc::direct(Fn::J));
    m.iptr = m.sh.truncate(m.iptr + op);
    m.flushFetch();
    m.deschedulePoint();
}

/** cj: jump if Areg is zero, else pop.  @return true if taken.  The
 *  fall-through cost is the base cost; a taken branch's extra cycles
 *  are a dynamic charge. */
template <class S>
TRANSPUTER_SEM_INLINE bool
cj(S &m, Word op)
{
    m.charge(cyc::direct(Fn::CJ, false));
    if (m.a == 0) {
        m.chargeDynamic(cyc::direct(Fn::CJ, true) -
                        cyc::direct(Fn::CJ, false));
        m.iptr = m.sh.truncate(m.iptr + op);
        m.flushFetch();
        return true;
    }
    pop(m);
    return false;
}

/**
 * Every other direct function: each runs straight through to the next
 * chain (call's static target included).  Every tier passes `fn` as a
 * constant, one case per function (TRANSPUTER_INLINED_DIRECT), so each
 * copy folds to one case.
 */
template <class S>
TRANSPUTER_SEM_INLINE void
direct(S &m, Fn fn, Word op)
{
    m.charge(cyc::direct(fn));
    switch (fn) {
      case Fn::LDLP:
        push(m, offset(m, m.wp, op));
        break;
      case Fn::LDNL:
        m.a = read(m, offset(m, m.sh.wordAlign(m.a), op));
        break;
      case Fn::LDC:
        push(m, op);
        break;
      case Fn::LDNLP:
        m.a = offset(m, m.a, op);
        break;
      case Fn::LDL:
        push(m, read(m, offset(m, m.wp, op)));
        break;
      case Fn::ADC:
        m.a = checked(m, sgn(m.sh, m.a) + sgn(m.sh, op));
        break;
      case Fn::CALL: {
        // save Iptr and the stack below Wptr, enter the routine.  Iptr
        // is read once, before the stores: a store's wait states may
        // close the block executor's sweep, which leaves iptr at the
        // routine (the chain's successor on the block's path)
        const Word ret = m.iptr;
        const Word w = m.sh.index(m.wp, -4);
        write(m, m.sh.index(w, 0), ret);
        write(m, m.sh.index(w, 1), m.a);
        write(m, m.sh.index(w, 2), m.b);
        write(m, m.sh.index(w, 3), m.c);
        m.a = ret; // return address available to the callee
        m.wp = w;
        m.iptr = m.sh.truncate(ret + op);
        m.flushFetch();
        break;
      }
      case Fn::AJW:
        m.wp = offset(m, m.wp, op);
        break;
      case Fn::EQC:
        m.a = m.a == op ? 1 : 0;
        break;
      case Fn::STL: {
        const Word addr = offset(m, m.wp, op);
        write(m, addr, pop(m));
        break;
      }
      case Fn::STNL:
        write(m, offset(m, m.sh.wordAlign(m.a), op), m.b);
        m.a = m.c;
        break;
      default:
        break; // j and cj above; prefixes and opr never get here
    }
}

// ---------------------------------------------------------------------
// the inlined fast operations (section 3.2.9)
// ---------------------------------------------------------------------

/**
 * Run `o` if it is one of the inlined operations (isa/superop.hh's
 * TRANSPUTER_INLINED_OPS), counted and charged its cost.  @return
 * false, with nothing done, for any other operation: the core's
 * generic operation path (Transputer::execGenericOp) runs those.
 */
template <class S>
TRANSPUTER_SEM_INLINE bool
operate(S &m, Op o)
{
    switch (o) {
      case Op::ADD:
        result(m, checked(m, sgn(m.sh, m.b) + sgn(m.sh, m.a)));
        break;
      case Op::SUB:
        result(m, checked(m, sgn(m.sh, m.b) - sgn(m.sh, m.a)));
        break;
      case Op::DIFF:
        result(m, m.sh.truncate(m.b - m.a));
        break;
      case Op::SUM:
        result(m, m.sh.truncate(m.b + m.a));
        break;
      case Op::GT:
        result(m, sgn(m.sh, m.b) > sgn(m.sh, m.a) ? 1 : 0);
        break;
      case Op::REV:
        std::swap(m.a, m.b);
        break;
      case Op::WSUB:
        result(m, offset(m, m.a, m.b));
        break;
      case Op::BSUB:
        result(m, m.sh.truncate(m.a + m.b));
        break;
      case Op::AND:
        result(m, m.b & m.a);
        break;
      case Op::OR:
        result(m, m.b | m.a);
        break;
      case Op::XOR:
        result(m, m.b ^ m.a);
        break;
      case Op::NOT:
        m.a = m.sh.truncate(~m.a);
        break;
      case Op::MINT:
        push(m, m.sh.mostNeg);
        break;
      case Op::DUP:
        push(m, m.a);
        break;
      case Op::LDPI:
        m.a = m.sh.truncate(m.iptr + m.a);
        break;
      default:
        return false;
    }
    m.countOp(o);
    m.charge(cyc::op(o));
    return true;
}

} // namespace transputer::core::sem

#endif // TRANSPUTER_CORE_SEMANTICS_HH
