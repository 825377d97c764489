/**
 * @file
 * The instruction timing model (paper section 3.2.1 and tables).
 *
 * The paper's published costs are normative wherever it states them:
 *   ldc/stl/adc/ldlp/add = 1 cycle, ldl/ldnl/stnl = 2 cycles,
 *   prefixes = 1 cycle each, multiply = 7 + wordlength cycles for the
 *   two-byte pfix+mul sequence (so mul itself is 6 + wordlength),
 *   block communication = max(24, 21 + 8n/wordlength) cycles on
 *   average including the scheduling overhead, low-to-high priority
 *   switch bounded by 58 cycles, high-to-low switch 17 cycles.
 * Costs the paper does not state use T414-era figures from the data
 * sheet it cites as [14].
 *
 * The 58-cycle bound is reproduced structurally: the longest
 * non-interruptible instruction is the divide (7 + wordlength = 39
 * cycles on a 32-bit part) and the low-to-high switch itself costs 19
 * cycles; 39 + 19 = 58.  Longer instructions (block move, block
 * input/output) are interruptible, as the paper requires.
 */

#ifndef TRANSPUTER_ISA_CYCLES_HH
#define TRANSPUTER_ISA_CYCLES_HH

#include <cstdint>

#include "base/types.hh"
#include "isa/opcodes.hh"

namespace transputer::isa::cycles
{

/** Cost of a low-to-high priority switch (the interrupt itself). */
constexpr int switchLowToHigh = 19;

/** Cost of returning from high to low priority (paper: 17 cycles). */
constexpr int switchHighToLow = 17;

/** Cost of a same-priority context switch at a descheduling point. */
constexpr int contextSwitch = 2;

/** Cost of a direct function.  cj depends on whether it jumps. */
constexpr int
direct(Fn fn, bool cj_taken = false)
{
    switch (fn) {
      case Fn::J:     return 3;
      case Fn::LDLP:  return 1;
      case Fn::PFIX:  return 1;
      case Fn::LDNL:  return 2;
      case Fn::LDC:   return 1;
      case Fn::LDNLP: return 1;
      case Fn::NFIX:  return 1;
      case Fn::LDL:   return 2;
      case Fn::ADC:   return 1;
      case Fn::CALL:  return 7;
      case Fn::CJ:    return cj_taken ? 4 : 2;
      case Fn::AJW:   return 1;
      case Fn::EQC:   return 2;
      case Fn::STL:   return 1;
      case Fn::STNL:  return 2;
      case Fn::OPR:   return 0; // charged per operation
    }
    return 1;
}

/** Bit position of the most significant set bit (0 for v==0). */
constexpr int
msb(uint64_t v)
{
    int n = 0;
    while (v >>= 1)
        ++n;
    return n;
}

/** mul: paper table gives pfix+mul = 7 + wordlength total. */
constexpr int mul(const WordShape &s) { return 6 + s.bits; }

/** div / rem: the longest atomic instructions (39 on 32-bit). */
constexpr int div(const WordShape &s) { return 7 + s.bits; }
constexpr int rem(const WordShape &s) { return 5 + s.bits; }

/** prod: time proportional to log of the second operand (Areg). */
constexpr int prod(Word areg) { return 4 + (areg ? msb(areg) + 1 : 0); }

/** Long (double-word) arithmetic. */
constexpr int lmul(const WordShape &s) { return 1 + s.bits; }
constexpr int ldiv(const WordShape &s) { return 3 + s.bits; }

/** Shifts: linear in the shift distance. */
constexpr int shift(Word places) { return 2 + static_cast<int>(places); }
constexpr int longShift(Word places)
{
    return 3 + static_cast<int>(places);
}

/** norm: linear in the normalisation distance. */
constexpr int norm(int places) { return 5 + places; }

/**
 * Block move of n bytes: 8 cycles + 2 per word moved.  Interruptible
 * (see isInterruptible).
 */
constexpr int
move(const WordShape &s, Word n)
{
    const int words = static_cast<int>((n + s.bytes - 1) / s.bytes);
    return 8 + 2 * words;
}

/**
 * Channel communication (paper section 3.2.10): a block of n bytes
 * costs on average max(24, 21 + 8n/wordlength) cycles including the
 * scheduling overhead.  We charge the process that completes the
 * rendezvous (and performs the copy) the full formula plus the copy
 * excess, and the process that suspends a flat suspend cost, so the
 * per-process average matches the paper's formula.
 */
constexpr int
commFormula(const WordShape &s, Word n)
{
    const int v = 21 + static_cast<int>(8 * n) / s.bits;
    return v > 24 ? v : 24;
}

/** Cost charged to the side that suspends (first to the rendezvous). */
constexpr int commSuspend = 20;

/** Cost charged to the side that completes (copies + reschedules). */
constexpr int
commComplete(const WordShape &s, Word n)
{
    return 2 * commFormula(s, n) - commSuspend;
}

/** @name What an operation adds to its base cost (op()) on its
 *  longer path, and the event pin's fast input */
///@{
/** lend that loops back: 10 cycles in all. */
constexpr int lendLoops = 5;
/** tin whose time is still to come, so it waits: 30 in all. */
constexpr int tinWaits = 22;
/** altwt with no guard ready, so it waits: 17 in all. */
constexpr int altwtWaits = 12;
/** taltwt with no guard ready and no time passed, so it waits: 22
 *  in all. */
constexpr int taltwtWaits = 10;
/** An input from the event pin's channel that finds an event already
 *  signalled (the whole charge: in's base cost is 0). */
constexpr int eventInPending = 4;
///@}

/** Base cost of an indirect operation (context-free cases). */
constexpr int
op(Op o)
{
    switch (o) {
      case Op::REV:         return 1;
      case Op::LB:          return 5;
      case Op::BSUB:        return 1;
      case Op::ENDP:        return 13;
      case Op::DIFF:        return 1;
      case Op::ADD:         return 1;
      case Op::GCALL:       return 4;
      case Op::GT:          return 2;
      case Op::WSUB:        return 2;
      case Op::SUB:         return 1;
      case Op::STARTP:      return 12;
      case Op::SETERR:      return 1;
      case Op::RESETCH:     return 3;
      case Op::CSUB0:       return 2;
      case Op::STOPP:       return 11;
      case Op::LADD:        return 2;
      case Op::STLB:        return 1;
      case Op::STHF:        return 1;
      case Op::LDPI:        return 2;
      case Op::STLF:        return 1;
      case Op::XDBLE:       return 2;
      case Op::LDPRI:       return 1;
      case Op::RET:         return 5;
      case Op::LDTIMER:     return 2;
      case Op::TESTERR:     return 2;
      case Op::TESTPRANAL:  return 2;
      case Op::DIST:        return 8;
      case Op::DISC:        return 8;
      case Op::DISS:        return 4;
      case Op::NOT:         return 1;
      case Op::XOR:         return 1;
      case Op::BCNT:        return 2;
      case Op::LSUM:        return 3;
      case Op::LSUB:        return 2;
      case Op::RUNP:        return 10;
      case Op::XWORD:       return 4;
      case Op::SB:          return 4;
      case Op::GAJW:        return 2;
      case Op::SAVEL:       return 4;
      case Op::SAVEH:       return 4;
      case Op::WCNT:        return 5;
      case Op::MINT:        return 1;
      case Op::ALT:         return 2;
      case Op::ALTEND:      return 4;
      case Op::AND:         return 1;
      case Op::ENBT:        return 8;
      case Op::ENBC:        return 7;
      case Op::ENBS:        return 3;
      case Op::OR:          return 1;
      case Op::CSNGL:       return 3;
      case Op::CCNT1:       return 3;
      case Op::TALT:        return 4;
      case Op::LDIFF:       return 3;
      case Op::STHB:        return 1;
      case Op::SUM:         return 1;
      case Op::STTIMER:     return 1;
      case Op::STOPERR:     return 2;
      case Op::CWORD:       return 5;
      case Op::CLRHALTERR:  return 1;
      case Op::SETHALTERR:  return 1;
      case Op::TESTHALTERR: return 2;
      case Op::DUP:         return 1;
      // dynamic-cost operations get their base here; the CPU adds the
      // data-dependent part via the helpers above.
      case Op::LEND:        return 5;  // +lendLoops
      case Op::ALTWT:       return 5;  // +altwtWaits
      case Op::TALTWT:      return 12; // +taltwtWaits
      case Op::TIN:         return 8;  // +tinWaits
      case Op::IN:          return 0;  // charged via comm* helpers
      case Op::OUT:         return 0;
      case Op::OUTBYTE:     return 0;
      case Op::OUTWORD:     return 0;
      case Op::NORM:        return 0;
      case Op::MUL:         return 0;
      case Op::DIV:         return 0;
      case Op::REM:         return 0;
      case Op::PROD:        return 0;
      case Op::LMUL:        return 0;
      case Op::LDIV:        return 0;
      case Op::SHL:         return 0;
      case Op::SHR:         return 0;
      case Op::LSHL:        return 0;
      case Op::LSHR:        return 0;
      case Op::MOVE:        return 0;
    }
    return 1;
}

/**
 * True if the operation is implemented so that a priority switch can
 * occur during its execution (paper section 3.2.4: "the instructions
 * which may take a long time to execute have been implemented to
 * allow a switch during execution").
 */
constexpr bool
isInterruptible(Op o)
{
    switch (o) {
      case Op::MOVE:
      case Op::IN:
      case Op::OUT:
      case Op::OUTBYTE:
      case Op::OUTWORD:
      case Op::TALTWT:
        return true;
      default:
        return false;
    }
}

} // namespace transputer::isa::cycles

#endif // TRANSPUTER_ISA_CYCLES_HH
