/**
 * @file
 * Superop IR for the block-compiler execution tier (see DESIGN.md
 * "Block compiler").
 *
 * A superop is the unit the block compiler emits: one predecoded
 * chain bound to a specialized handler (the solo kinds), or a short
 * run of adjacent chains folded into a single handler (the fused
 * kinds).  Classification and fusion are pure functions over
 * isa::Predecoded values and solo kinds, so they are unit-testable
 * without a core.
 *
 * The solo kinds come from one table of the instructions every
 * execution tier inlines (TRANSPUTER_INLINED_*), each defined once
 * for all tiers in core/semantics.hh: each row names the function or
 * operation and its superop kind.
 *
 * Fusion rules are strictly peephole over the transputer's canonical
 * stack idioms (the compiler-emitted sequences the paper's examples
 * produce):
 *   - load/store pairs:  {ldc,ldlp,adc} ; stl
 *   - constant store:    ldc k ; adc m ; stl x
 *   - memory increment:  ldl x ; adc k ; stl y
 *   - loop back-edge:    cj exit ; j head       (head == block entry)
 * A fused superop runs its member chains' handlers in order after one
 * bound/budget pre-check for the whole group; fusion only removes
 * dispatch, never changes what a chain does.
 */

#ifndef TRANSPUTER_ISA_SUPEROP_HH
#define TRANSPUTER_ISA_SUPEROP_HH

#include <cstdint>

#include "isa/opcodes.hh"
#include "isa/predecode.hh"

namespace transputer::isa::superop
{

/** Effects of an inlined instruction that the block executor must
 *  check after running it (the last column of the tables below). */
namespace fx
{
constexpr unsigned kNone = 0;
constexpr unsigned kSetsError = 1 << 0; ///< may set the error flag
constexpr unsigned kStores = 1 << 1;    ///< stores to memory
constexpr unsigned kReadsIptr = 1 << 2; ///< reads Iptr
} // namespace fx

/**
 * The inlined instructions, one row each:
 *   X(isa::Fn or isa::Op name, superop kind, fx)
 * The two branches transfer control, so the block executor writes
 * their dispatch labels by hand; every other row runs straight
 * through to the next chain.
 */
#define TRANSPUTER_INLINED_BRANCHES(X)                                 \
    X(J, J, fx::kNone)                                                 \
    X(CJ, Cj, fx::kNone)

#define TRANSPUTER_INLINED_DIRECT(X)                                   \
    X(LDLP, Ldlp, fx::kNone)                                           \
    X(LDNL, Ldnl, fx::kNone)                                           \
    X(LDC, Ldc, fx::kNone)                                             \
    X(LDNLP, Ldnlp, fx::kNone)                                         \
    X(LDL, Ldl, fx::kNone)                                             \
    X(ADC, Adc, fx::kSetsError)                                        \
    X(CALL, Call, fx::kStores | fx::kReadsIptr)                        \
    X(AJW, Ajw, fx::kNone)                                             \
    X(EQC, Eqc, fx::kNone)                                             \
    X(STL, Stl, fx::kStores)                                           \
    X(STNL, Stnl, fx::kStores)

#define TRANSPUTER_INLINED_OPS(X)                                      \
    X(ADD, OpAdd, fx::kSetsError)                                      \
    X(SUB, OpSub, fx::kSetsError)                                      \
    X(DIFF, OpDiff, fx::kNone)                                         \
    X(SUM, OpSum, fx::kNone)                                           \
    X(GT, OpGt, fx::kNone)                                             \
    X(REV, OpRev, fx::kNone)                                           \
    X(WSUB, OpWsub, fx::kNone)                                         \
    X(BSUB, OpBsub, fx::kNone)                                         \
    X(AND, OpAnd, fx::kNone)                                           \
    X(OR, OpOr, fx::kNone)                                             \
    X(XOR, OpXor, fx::kNone)                                           \
    X(NOT, OpNot, fx::kNone)                                           \
    X(MINT, OpMint, fx::kNone)                                         \
    X(DUP, OpDup, fx::kNone)                                           \
    X(LDPI, OpLdpi, fx::kReadsIptr)

/** Handler kinds.  Order is the block executor's dispatch-table
 *  order. */
enum class Kind : uint8_t
{
#define TRANSPUTER_KIND(name, kind, effects) kind,
    // solo kinds (one chain each), in table order
    TRANSPUTER_INLINED_BRANCHES(TRANSPUTER_KIND)
    TRANSPUTER_INLINED_DIRECT(TRANSPUTER_KIND)
    TRANSPUTER_INLINED_OPS(TRANSPUTER_KIND)
#undef TRANSPUTER_KIND
    /** Any other fast, defined operation: the executor spills to the
     *  core's generic operation path and reloads. */
    OpGeneric,
    // fused superops (the head step carries these; member steps keep
    // their solo kinds so the executor can always fall back per chain)
    LdcStl,     ///< ldc k ; stl x          (2 chains)
    LdlpStl,    ///< ldlp k ; stl x         (2 chains)
    AdcStl,     ///< adc k ; stl x          (2 chains)
    LdcAdcStl,  ///< ldc k ; adc m ; stl x  (3 chains)
    LdlAdcStl,  ///< ldl x ; adc k ; stl y  (3 chains)
    CjLoop,     ///< cj exit ; j entry      (2 chains, loop back-edge)
    kCount
};

constexpr size_t kKinds = static_cast<size_t>(Kind::kCount);

/** Chains covered by a superop of this kind (1 for solo kinds). */
constexpr int
chainsOf(Kind k)
{
    switch (k) {
      case Kind::LdcStl:
      case Kind::LdlpStl:
      case Kind::AdcStl:
      case Kind::CjLoop:
        return 2;
      case Kind::LdcAdcStl:
      case Kind::LdlAdcStl:
        return 3;
      default:
        return 1;
    }
}

/**
 * The solo kind for one predecoded chain, or Kind::kCount when the
 * chain cannot run inside a superblock at all (non-fast, incomplete,
 * or an undefined operation).
 */
Kind classify(const Predecoded &d);

/**
 * Fusion decision at position i of a run of n chains whose solo kinds
 * are `solo`.  `cj_j_backedge` tells the matcher that chains i and
 * i+1 are a cj followed by a j whose target is the superblock entry
 * (only the caller knows the entry).
 * @return the fused head kind, or solo[i] when nothing matches.
 */
Kind fuse(const Kind *solo, size_t i, size_t n, bool cj_j_backedge);

} // namespace transputer::isa::superop

#endif // TRANSPUTER_ISA_SUPEROP_HH
