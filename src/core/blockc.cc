/**
 * @file
 * The block compiler and the superblock executor.  See blockc.hh for
 * the tier's contract.  The executor runs every chain through the
 * same handlers (core/semantics.hh), retire step and hoisted state as
 * the fused loop, so the tiers differ only in how they dispatch.
 */

#include "core/blockc.hh"

#include <algorithm>
#include <iterator>

#include "core/semantics.hh"

namespace transputer::core::blockc
{

using isa::Fn;
using isa::superop::Kind;
namespace cyc = isa::cycles;

namespace
{

/** Add a write-generation block to a guard set; false when full. */
bool
noteGuard(std::array<uint32_t, Superblock::kMaxGuards> &set,
          size_t &n, uint32_t gidx)
{
    for (size_t i = 0; i < n; ++i)
        if (set[i] == gidx)
            return true;
    if (n == Superblock::kMaxGuards)
        return false;
    set[n++] = gidx;
    return true;
}

/**
 * Worst-case cycle charge of one chain used as a non-final member of
 * a fused group: its prefixes, the dearer of its costs (cj pays more
 * when taken) and the slowest data access of a load or store.  Fused
 * groups are restricted to on-chip code, so there is no fetch charge.
 */
int
chainWorstCost(const PredecodeCache::Entry &e, int external_waits)
{
    const Fn fn = static_cast<Fn>(e.fn);
    int c = e.pfixes * cyc::direct(Fn::PFIX) +
            e.nfixes * cyc::direct(Fn::NFIX) +
            std::max(cyc::direct(fn, true), cyc::direct(fn, false));
    if (fn == Fn::LDL || fn == Fn::LDNL || fn == Fn::STL ||
        fn == Fn::STNL)
        c += external_waits;
    return c;
}

} // namespace

// ---------------------------------------------------------------------
// compiler
// ---------------------------------------------------------------------

Superblock *
BlockCache::compile(const PredecodeCache &icache, const WordShape &s,
                    int external_waits, Word entry)
{
    std::array<PredecodeCache::Entry, kMaxSteps> ents;
    std::array<Kind, kMaxSteps> solo;
    std::array<uint32_t, Superblock::kMaxGuards> guard_set;
    size_t nguards = 0;
    size_t n = 0;

    // Walk the static instruction stream from the entry, decoding
    // chain by chain, following CALLs (static target) and CJ/OPR
    // fall-throughs, until something ends the block: a jump (J ends
    // it whether or not it is the back-edge), a dynamic-target
    // operation (ret/gcall), a non-fast or undefined chain, a revisit
    // (joins would replay earlier steps out of order), a full guard
    // set, or the step limit.
    Word ip = entry;
    while (n < kMaxSteps) {
        bool seen = false;
        for (size_t j = 0; j < n && !seen; ++j)
            seen = ents[j].tag == ip;
        if (seen)
            break;
        PredecodeCache::Entry &e = ents[n];
        const isa::Predecoded d = icache.decode(ip, e);
        const Kind k = isa::superop::classify(d);
        if (k == Kind::kCount)
            break;
        if (!noteGuard(guard_set, nguards, e.gidx) ||
            !noteGuard(guard_set, nguards, e.gidx2))
            break;
        solo[n] = k;
        ++n;
        const Word next = s.truncate(ip + d.length);
        if (k == Kind::J)
            break;
        if (k == Kind::Call) {
            ip = s.truncate(next + d.operand);
            if (ip == entry)
                break;
            continue;
        }
        if (k == Kind::OpGeneric) {
            const isa::Op op = static_cast<isa::Op>(d.operand);
            if (op == isa::Op::RET || op == isa::Op::GCALL)
                break; // dynamic target: always the last step
        }
        ip = next;
    }
    if (n < kMinSteps)
        return nullptr; // negatively cached via the saturated heat slot

    if (!blocks_)
        blocks_ = std::make_unique<std::array<Superblock, kBlocks>>();
    Superblock &sb = (*blocks_)[blockIndex(entry)];
    sb.valid = false;
    sb.entry = entry;
    sb.nsteps = static_cast<uint16_t>(n);
    sb.steps.assign(n, Step{});
    sb.nguards = static_cast<uint8_t>(nguards);
    for (size_t i = 0; i < nguards; ++i)
        sb.guards[i] = {guard_set[i], icache.gensData()[guard_set[i]]};
    const auto [lo, hi] = std::minmax_element(
        guard_set.begin(), guard_set.begin() + nguards);
    sb.codeLo = *lo;
    sb.codeSpan = *hi - *lo;
    for (size_t i = 0; i < n; ++i) {
        sb.steps[i].e = ents[i];
        sb.steps[i].kind = sb.steps[i].solo = solo[i];
    }

    // fusion pass: longest peephole match wins; the head step carries
    // the fused kind, members keep their solo kinds for fallback
    size_t i = 0;
    while (i < n) {
        const bool backedge =
            solo[i] == Kind::Cj && i + 1 < n && solo[i + 1] == Kind::J &&
            s.truncate(ents[i + 1].tag + ents[i + 1].length +
                       ents[i + 1].operand) == entry;
        const Kind k = isa::superop::fuse(solo.data(), i, n, backedge);
        const int span = isa::superop::chainsOf(k);
        if (span > 1) {
            bool on_chip = true;
            int pre = 0;
            for (int j = 0; j < span; ++j)
                on_chip = on_chip && !ents[i + j].offChip;
            for (int j = 0; j + 1 < span; ++j)
                pre += chainWorstCost(ents[i + j], external_waits);
            if (on_chip && pre <= 255) {
                sb.steps[i].kind = k;
                sb.steps[i].groupPreCost = static_cast<uint8_t>(pre);
                i += static_cast<size_t>(span);
                continue;
            }
        }
        ++i;
    }

    // cumulative retire accounting (see Superblock::cum)
    sb.cum.assign(n + 1, {});
    for (size_t k = 0; k < n; ++k) {
        const PredecodeCache::Entry &e = ents[k];
        Superblock::CumRow row = sb.cum[k];
        row.fn[e.fn] += 1;
        row.fn[static_cast<size_t>(Fn::PFIX)] += e.pfixes;
        row.fn[static_cast<size_t>(Fn::NFIX)] += e.nfixes;
        row.len += e.length;
        sb.cum[k + 1] = row;
    }

    sb.valid = true;
    ++stats_.compiles;
    stats_.steps += n;
    return &sb;
}

} // namespace transputer::core::blockc

// ---------------------------------------------------------------------
// executor
// ---------------------------------------------------------------------

namespace transputer::core
{

namespace fx = isa::superop::fx;

/**
 * The step interpreter.  The guards hold at entry (enterBlock checks
 * them), and the executor re-reads them wherever the code bytes may
 * have moved since: after a handler store into the guards' window, a
 * generic operation, or a timeslice rotation at a jump.  The predecode
 * cache's slots are left alone; each retired chain banks one icache
 * hit (host-side statistics, like the fused loop's).
 */
int
Transputer::execBlock(blockc::Superblock &sb, Tick bound, int budget,
                      blockc::Deopt &why)
{
    using blockc::Deopt;
    using blockc::Step;
    static const void *const tbl[] = {
#define TRANSPUTER_LABEL(name, kind, effects) &&L_##kind,
        TRANSPUTER_INLINED_BRANCHES(TRANSPUTER_LABEL)
        TRANSPUTER_INLINED_DIRECT(TRANSPUTER_LABEL)
        TRANSPUTER_INLINED_OPS(TRANSPUTER_LABEL)
#undef TRANSPUTER_LABEL
        &&L_OpGeneric, &&L_LdcStl, &&L_LdlpStl, &&L_AdcStl,
        &&L_LdcAdcStl, &&L_LdlAdcStl, &&L_CjLoop,
    };
    static_assert(std::size(tbl) == isa::superop::kKinds,
                  "dispatch table must cover every superop kind");

    sem::Hoisted h(*this);
    h.codeLo = sb.codeLo; // the window STORE_RECHECK watches
    h.codeSpan = sb.codeSpan;
    const uint64_t cyc0 = h.cycles, icount0 = h.instructions;
    // one epilogue for both exits, with the state spilled
    const auto bank = [this, cyc0, icount0](int chains) {
        icache_.addHits(static_cast<uint64_t>(chains));
        obs::BlockStats &bs = bcache_->stats();
        bs.chains += static_cast<uint64_t>(chains);
        bs.instructions += instructions_ - icount0;
        bs.cycles += cycles_ - cyc0;
    };
    const blockc::Superblock::CumRow *const cum = sb.cum.data();
    const uint32_t *const gens = icache_.gensData();
    const Step *const steps = sb.steps.data();
    const size_t nsteps = sb.nsteps;
    Tick xbound = bound; // with the observation thresholds folded in
    const Step *st = nullptr;
    // The current linear sweep of retired steps is [sweep0, i); the
    // chains retired before it number `done`.  The budget is kept as
    // a step index: the sweep may run up to step ilimit, and iend is
    // the nearer of that and the block's end.
    size_t i = 0, sweep0 = 0;
    int done = 0;
    size_t ilimit = static_cast<size_t>(budget);
    size_t iend = std::min(nsteps, ilimit);

// A sweep's chain count, function counts and instruction bytes live
// only in i and the compile-time cum rows until FLUSH_SWEEP folds
// them into `done` and the architectural counters (ilimit is
// unchanged: the sweep's chains move from i - sweep0 into done).  It
// runs inside SPILL() (every exit and every call into the core that
// reads the counters spills first) and at every back-edge that
// restarts the walk at step 0, where i would move backwards.
// (Macros, not lambdas: a closure capturing the hoisted state would
// pin it in memory.)
#define FLUSH_SWEEP()                                                  \
    do {                                                               \
        if (i != sweep0) {                                             \
            const blockc::Superblock::CumRow &c1 = cum[i];             \
            const blockc::Superblock::CumRow &c0 = cum[sweep0];        \
            for (size_t f = 0; f < c1.fn.size(); ++f)                  \
                ctrs_.fn[f] += static_cast<uint64_t>(c1.fn[f] -        \
                                                     c0.fn[f]);        \
            h.instructions += static_cast<uint64_t>(c1.len - c0.len);  \
            done += static_cast<int>(i - sweep0);                      \
            sweep0 = i;                                                \
        }                                                              \
    } while (0)

#define SPILL()                                                        \
    do {                                                               \
        FLUSH_SWEEP();                                                 \
        h.spill();                                                     \
    } while (0)

// The observation thresholds fold into the time bound: inside the
// block, cycles and time advance in lockstep (every charge pairs
// cycles += k with time += k*period), so the profiler's cycle
// threshold maps exactly onto a tick and the per-chain bound check in
// NEXT() already exits at the sampling boundary (Deopt::Bound) -- the
// fused loop around the block fires the sample at that same chain
// boundary before the next chain executes.  With observation disabled
// both sentinels leave the bound untouched, so sampling costs the hot
// loop nothing.
// Recomputed after every reload: calls into the core may move the
// clock.
#define FOLD_OBS_BOUND()                                               \
    do {                                                               \
        xbound = bound;                                                \
        if (tsNextTick_ != maxTick && tsNextTick_ - 1 < xbound)        \
            xbound = tsNextTick_ - 1;                                  \
        if (profNextCycle_ != ~uint64_t{0}) {                          \
            const Tick tProf =                                         \
                profNextCycle_ > h.cycles                              \
                    ? h.time + static_cast<Tick>(profNextCycle_ -      \
                                                 h.cycles) *           \
                                   h.period                            \
                    : h.time;                                          \
            if (tProf - 1 < xbound)                                    \
                xbound = tProf - 1;                                    \
        }                                                              \
    } while (0)

// Per-chain prologue: the shared retire step.  Instruction and
// function counts flow through the sweep's cum rows, flushed in
// SPILL().
#define RETIRE()                                                       \
    do {                                                               \
        sem::retire<false>(h, st->e);                                  \
        ++i;                                                           \
    } while (0)

// The guards stand in for per-chain checks of the code bytes.  The
// chain that moved a generation has already retired; the deopt lands
// on the following chain boundary, exactly where the interpreter
// would re-decode.  GUARD_RECHECK reads the generations, after the
// core's own stores (a generic operation, a timeslice rotation at a
// jump), which take no note; STORE_RECHECK reads them only when a
// handler store landed in the guards' block window
// (sem::Hoisted::stored), since no store outside it can move one.
#define GUARD_RECHECK()                                                \
    do {                                                               \
        if (!sb.guardsOk(gens)) {                                      \
            why = Deopt::GuardStale;                                   \
            goto out;                                                  \
        }                                                              \
    } while (0)

#define STORE_RECHECK()                                                \
    do {                                                               \
        if (h.nearCode) {                                              \
            h.nearCode = false;                                        \
            GUARD_RECHECK();                                           \
        }                                                              \
    } while (0)

#define HALT_CHECK()                                                   \
    do {                                                               \
        if (h.err && h.haltOnError) {                                  \
            state_ = CpuState::Halted;                                 \
            trcAt(h.time, obs::Ev::Halt,                               \
                  h.wp | static_cast<Word>(pri_));                     \
            why = Deopt::Halt;                                         \
            goto out;                                                  \
        }                                                              \
    } while (0)

#define NEXT()                                                         \
    do {                                                               \
        if (i >= iend) {                                               \
            why = i >= ilimit       ? Deopt::Budget                    \
                  : h.time > xbound ? Deopt::Bound                     \
                                    : Deopt::End;                      \
            goto out;                                                  \
        }                                                              \
        if (h.time > xbound) {                                         \
            why = Deopt::Bound;                                        \
            goto out;                                                  \
        }                                                              \
        st = &steps[i];                                                \
        goto *tbl[static_cast<size_t>(st->kind)];                      \
    } while (0)

// A back-edge onto the entry: close the sweep, restart the walk.
#define LAP()                                                          \
    do {                                                               \
        FLUSH_SWEEP();                                                 \
        i = sweep0 = 0;                                                \
        ilimit = static_cast<size_t>(budget - done);                   \
        iend = std::min(nsteps, ilimit);                               \
    } while (0)

#define DIRECT(FN) sem::direct(h, isa::Fn::FN, st->e.operand)

// One straight-line chain: retire it, run its handler, then the
// checks its effects call for.
#define STEP(HANDLER, EFFECTS)                                         \
    do {                                                               \
        RETIRE();                                                      \
        HANDLER;                                                       \
        ++st;                                                          \
        if ((EFFECTS) & fx::kSetsError)                                \
            HALT_CHECK();                                              \
        if ((EFFECTS) & fx::kStores)                                   \
            STORE_RECHECK();                                           \
    } while (0)

// cj: a taken branch laps back to the entry or leaves the block.
#define CJ_STEP()                                                      \
    do {                                                               \
        RETIRE();                                                      \
        if (sem::cj(h, st->e.operand)) {                               \
            if (h.iptr == sb.entry) {                                  \
                LAP();                                                 \
                NEXT();                                                \
            }                                                          \
            why = Deopt::BranchOut;                                    \
            goto out;                                                  \
        }                                                              \
        ++st;                                                          \
    } while (0)

// Fused superops: one conservative pre-check of the budget and the
// bound for the whole group, then the member chains in order (the loop
// form ends in the j label).  Near a boundary the head re-dispatches
// through its solo kind.
#define GROUP(CHAINS)                                                  \
    do {                                                               \
        if (i + (CHAINS) > ilimit ||                                   \
            h.time + st->groupPreCost * h.period > xbound)             \
            goto *tbl[static_cast<size_t>(st->solo)];                  \
    } while (0)

    FOLD_OBS_BOUND();
    try {
        NEXT();

  L_J: {
        RETIRE();
        FLUSH_SWEEP(); // the descheduling point runs core code
        const Word target = h.sh.truncate(h.iptr + st->e.operand);
        const Word wp = h.wp;
        sem::j(h, st->e.operand);
        FOLD_OBS_BOUND();
        if (state_ != CpuState::Running) {
            why = Deopt::Deschedule;
            goto out;
        }
        if (h.wp != wp)
            GUARD_RECHECK(); // a rotation saved state through the core
        if (h.iptr == sb.entry) {
            LAP();
            NEXT();
        }
        // a timeslice rotation moved to another process at the same
        // code address; a plain forward/exit jump is a branch out
        why = h.iptr == target ? Deopt::BranchOut : Deopt::Deschedule;
        goto out;
      }

  L_Cj:
        CJ_STEP();
        NEXT();

#define TRANSPUTER_SOLO_DIRECT(name, kind, effects)                    \
  L_##kind:                                                            \
        STEP(DIRECT(name), effects);                                   \
        NEXT();
#define TRANSPUTER_SOLO_OP(name, kind, effects)                        \
  L_##kind:                                                            \
        STEP(sem::operate(h, isa::Op::name), effects);                 \
        NEXT();
        TRANSPUTER_INLINED_DIRECT(TRANSPUTER_SOLO_DIRECT)
        TRANSPUTER_INLINED_OPS(TRANSPUTER_SOLO_OP)
#undef TRANSPUTER_SOLO_DIRECT
#undef TRANSPUTER_SOLO_OP

  L_OpGeneric:
        // any other fast operation: hand the state to the core's
        // generic operation path (it owns the counters and cycle
        // charges), take it back, and re-join the block if control
        // fell through -- this is how lend-loop back-edges, gcall/ret
        // tails and the error-flag operations stay inside the tier
        RETIRE();
        FLUSH_SWEEP();
        h.toCore();
        execGenericOp(static_cast<isa::Op>(st->e.operand));
        h.fromCore();
        FOLD_OBS_BOUND();
        if (h.err && h.haltOnError) {
            state_ = CpuState::Halted;
            trcAt(h.time, obs::Ev::Halt, wdesc());
            why = Deopt::Halt;
            goto out;
        }
        if (state_ != CpuState::Running) {
            why = Deopt::Deschedule;
            goto out;
        }
        GUARD_RECHECK();
        if (i < nsteps && h.iptr == steps[i].e.tag)
            NEXT();
        if (h.iptr == sb.entry) {
            LAP();
            NEXT();
        }
        why = Deopt::BranchOut;
        goto out;

  L_LdcStl:
        GROUP(2);
        STEP(DIRECT(LDC), fx::kNone);
        STEP(DIRECT(STL), fx::kStores);
        NEXT();

  L_LdlpStl:
        GROUP(2);
        STEP(DIRECT(LDLP), fx::kNone);
        STEP(DIRECT(STL), fx::kStores);
        NEXT();

  L_AdcStl:
        GROUP(2);
        STEP(DIRECT(ADC), fx::kSetsError); // the store must not pass a halt
        STEP(DIRECT(STL), fx::kStores);
        NEXT();

  L_LdcAdcStl:
        GROUP(3);
        STEP(DIRECT(LDC), fx::kNone);
        STEP(DIRECT(ADC), fx::kSetsError);
        STEP(DIRECT(STL), fx::kStores);
        NEXT();

  L_LdlAdcStl:
        GROUP(3);
        STEP(DIRECT(LDL), fx::kNone);
        STEP(DIRECT(ADC), fx::kSetsError);
        STEP(DIRECT(STL), fx::kStores);
        NEXT();

  L_CjLoop:
        GROUP(2);
        CJ_STEP(); // taken: leaves the loop, j never runs
        goto L_J;

  out:
        SPILL();
    } catch (...) {
        if (!h.inCore) // else the core threw: the object holds the state
            SPILL();
        bank(done);
        throw;
    }
    bank(done);
    return done;

#undef FLUSH_SWEEP
#undef SPILL
#undef FOLD_OBS_BOUND
#undef RETIRE
#undef GUARD_RECHECK
#undef STORE_RECHECK
#undef HALT_CHECK
#undef NEXT
#undef LAP
#undef DIRECT
#undef STEP
#undef CJ_STEP
#undef GROUP
}

// ---------------------------------------------------------------------
// Transputer integration (the tier entry points)
// ---------------------------------------------------------------------

// the unique_ptr members need blockc's complete types to destroy
Transputer::~Transputer() = default;

obs::Counters
Transputer::counters() const
{
    obs::Counters c = ctrs_;
    c.instructions = instructions_;
    c.cycles = cycles_;
    c.icacheHits = icache_.hits();
    c.icacheMisses = icache_.misses();
    c.icacheInvalidations = icache_.invalidations();
    if (bcache_)
        c.blockc = bcache_->stats();
    return c;
}

void
Transputer::restoreBlockTier(const obs::BlockStats &s)
{
    if (bcache_) {
        bcache_->invalidateAll();
        bcache_->restoreStats(s);
    }
    // without a live cache the stats stay in ctrs_.blockc, which
    // importSnap already restored wholesale
}

/**
 * Whether compiling a superblock can pay off here: the tier's entry
 * and deopt overhead only amortizes over long chain runs.  A fused run
 * ends where a superblock would -- at the bound, the budget, a
 * deschedule or a non-fast chain (the run retires it, a superblock
 * leaves it to the fused loop) -- so the fused tier's observed mean
 * run length predicts a superblock's.  Short-run workloads
 * (communication-bound loops: dbsearch averages 8-11 chains) run
 * faster staying in the fused tier, so promotion waits until the
 * evidence says otherwise.  The gate reads the mean from the first
 * run on (before any run it admits the compile).  The decision reads
 * only counters that snapshots round-trip, so replays repeat it
 * exactly.
 */
bool
Transputer::blockPromotionAllowed() const
{
    const auto &f = ctrs_.fused;
    return f.instructions >= blockc::BlockCache::kMinMeanRun * f.runs;
}

void
Transputer::ensureBlockTier()
{
    if (!bcache_) {
        bcache_ = std::make_unique<blockc::BlockCache>();
        // stats accumulated (or snapshot-restored) while the tier had
        // no live cache were carried in ctrs_.blockc; counters()
        // reads the live cache once one exists
        bcache_->restoreStats(ctrs_.blockc);
    }
}

size_t
Transputer::blockTierFootprint() const
{
    return bcache_ ? bcache_->footprintBytes() : 0;
}

int
Transputer::enterBlock(blockc::Superblock &sb, Tick bound, int budget)
{
    blockc::BlockCache &bc = *bcache_;
    if (!sb.guardsOk(icache_.gensData())) {
        ++bc.stats().deopts[static_cast<size_t>(
            blockc::Deopt::Entry)];
        bc.invalidate(sb);
        return 0;
    }
    ++bc.stats().enters;
    blockc::Deopt why = blockc::Deopt::End;
    const int n = execBlock(sb, bound, budget, why);
    ++bc.stats().deopts[static_cast<size_t>(why)];
    // flight ring only (not the trace ring), and only the abnormal
    // reasons: Bound/Budget/End are how every batched dispatch ends,
    // and recording them would evict the scheduler history a
    // post-mortem actually needs.  A GuardStale streak before a hang
    // is exactly what this is for.
    if (flightOn_ && why != blockc::Deopt::Bound &&
        why != blockc::Deopt::Budget && why != blockc::Deopt::End)
        recordFlight(time_, obs::Ev::Deopt,
                     static_cast<uint64_t>(why),
                     static_cast<uint64_t>(n), 0);
    if (why == blockc::Deopt::GuardStale)
        bc.invalidate(sb); // self-modified: re-heat and recompile
    return n;
}

blockc::Superblock *
Transputer::wantsBlockEntry(Word iptr)
{
    // the tier's one heat probe, where a control transfer in runFused
    // lands: the block compiled there, or compiled right now if the
    // target just crossed the heat threshold and the promotion gate
    // allows it
    ensureBlockTier();
    blockc::BlockCache &bc = *bcache_;
    blockc::Superblock *sb = bc.find(iptr);
    if (!sb && bc.heat(iptr)) {
        if (!blockPromotionAllowed()) {
            bc.cool(iptr);
            return nullptr;
        }
        sb = bc.compile(icache_, shape_, cfg_.externalWaits, iptr);
    }
    return sb;
}

bool
Transputer::hasBlockTable() const
{
    return bcache_ && bcache_->hasTable();
}

} // namespace transputer::core
