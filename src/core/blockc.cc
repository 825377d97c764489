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

/** Cycles of a chain's prefixes. */
int
prefixCost(const PredecodeCache::Entry &e)
{
    return e.pfixes * cyc::direct(Fn::PFIX) +
           e.nfixes * cyc::direct(Fn::NFIX);
}

/** The base cost a step's handler charges: cj at its fall-through
 *  cost, a generic operation nothing (the core charges it). */
int
baseCost(Kind k, const PredecodeCache::Entry &e)
{
    const Fn fn = static_cast<Fn>(e.fn);
    if (fn != Fn::OPR)
        return cyc::direct(fn, false);
    return k == Kind::OpGeneric
               ? 0
               : cyc::op(static_cast<isa::Op>(e.operand));
}

/** What a step's dynamic charges can add at most: a taken cj's extra
 *  cycles, each data access and each off-chip fetch word at
 *  `external_waits`. */
int
dynamicCostBound(const PredecodeCache::Entry &e, const WordShape &s,
                 int external_waits)
{
    const Fn fn = static_cast<Fn>(e.fn);
    int c = fn == Fn::CJ
                ? cyc::direct(Fn::CJ, true) - cyc::direct(Fn::CJ, false)
                : 0;
    if (fn == Fn::LDL || fn == Fn::LDNL || fn == Fn::STL ||
        fn == Fn::STNL)
        c += external_waits;
    else if (fn == Fn::CALL)
        c += 4 * external_waits;
    if (e.offChip) {
        const Word first = s.wordAlign(e.tag);
        const Word last = s.wordAlign(
            s.truncate(e.tag + static_cast<Word>(e.length - 1)));
        const int words =
            static_cast<int>(s.truncate(last - first) /
                             static_cast<Word>(s.bytes)) + 1;
        c += words * external_waits;
    }
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
    std::array<Word, kMaxSteps> succ; // each step's successor
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
        const Word next = s.truncate(ip + d.length);
        succ[n] = k == Kind::Call ? s.truncate(next + d.operand) : next;
        ++n;
        if (k == Kind::J)
            break;
        if (k == Kind::Call) {
            ip = succ[n - 1];
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
        const PredecodeCache::Entry &e = ents[i];
        Step &st = sb.steps[i];
        st.operand = e.operand;
        st.next = s.truncate(e.tag + e.length);
        st.length = e.length;
        st.solo = solo[i];
        st.kind = e.offChip ? kFetchFirst : solo[i];
    }

    // fusion pass: longest peephole match wins; the head step carries
    // the fused kind, members keep their solo kinds for fallback.
    // Fused groups are on-chip code only: no member has a fetch.
    size_t i = 0;
    while (i < n) {
        const bool backedge =
            solo[i] == Kind::Cj && i + 1 < n && solo[i + 1] == Kind::J &&
            s.truncate(sb.steps[i + 1].next + ents[i + 1].operand) ==
                entry;
        const Kind k = isa::superop::fuse(solo.data(), i, n, backedge);
        const size_t span = static_cast<size_t>(isa::superop::chainsOf(k));
        if (span > 1 &&
            std::none_of(ents.begin() + i, ents.begin() + i + span,
                         [](const PredecodeCache::Entry &e) {
                             return e.offChip;
                         })) {
            sb.steps[i].kind = k;
            i += span;
            continue;
        }
        ++i;
    }

    // cumulative rows (see Superblock::rows)
    sb.rows.assign(n + 1, {});
    for (size_t k = 0; k < n; ++k) {
        const PredecodeCache::Entry &e = ents[k];
        Superblock::Row row = sb.rows[k];
        row.fn[e.fn] += 1;
        row.fn[static_cast<size_t>(Fn::PFIX)] += e.pfixes;
        row.fn[static_cast<size_t>(Fn::NFIX)] += e.nfixes;
        row.len += e.length;
        const auto prefix = static_cast<uint32_t>(prefixCost(e));
        const auto base = static_cast<uint32_t>(baseCost(solo[k], e));
        row.stamp = row.cycles + prefix;
        row.cycles = row.stamp + base;
        row.worst += prefix + base +
                     static_cast<uint32_t>(
                         dynamicCostBound(e, s, external_waits));
        row.iptr = succ[k];
        sb.rows[k + 1] = row;
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
        &&L_Fetch, // blockc::kFetchFirst
    };
    static_assert(std::size(tbl) == isa::superop::kKinds + 1,
                  "dispatch table must cover every superop kind and "
                  "the off-chip fetch");

    sem::Swept h(*this, sb);
    const uint64_t cyc0 = h.cycles, icount0 = h.instructions;
    // one epilogue for both exits, with the state spilled
    const auto bank = [this, cyc0, icount0](int chains) {
        icache_.addHits(static_cast<uint64_t>(chains));
        obs::BlockStats &bs = bcache_->stats();
        bs.chains += static_cast<uint64_t>(chains);
        bs.instructions += instructions_ - icount0;
        bs.cycles += cycles_ - cyc0;
    };
    const blockc::Superblock::Row *const rows = h.rows;
    const Step *const steps = h.steps;
    const size_t nsteps = sb.nsteps;
    Tick xbound = bound; // with the observation thresholds folded in
    // The open sweep may run up to step iend without a check, and ends
    // there for stopWhy.
    const Step *iend = steps;
    Deopt stopWhy = Deopt::End;

// The observation thresholds fold into the time bound: inside the
// block, cycles and time advance in lockstep (every charge pairs
// cycles += k with time += k*period), so the profiler's cycle
// threshold maps exactly onto a tick and the step index below stops at
// the sampling boundary -- where the block fires the sample itself,
// at the chain boundary the fused loop would, and goes on.  With
// observation disabled both sentinels leave the bound untouched, so
// sampling costs the hot loop nothing.  Recomputed after every
// reload: calls into the core may move the clock.
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

// A sweep starts (entry, a lap, after a call into the core, a stop
// short of the bound) with its state exact.  Its steps [st, iend) run
// without a check: iend is the least of the block's end, the budget
// as a step index, and one past the last step whose worst-case start
// (the rows' worst column) is still within xbound.  A step's actual
// start is never later than its worst case, so every step the index
// admits is one the interpreter would run.
#define BOUND_SWEEP()                                                  \
    do {                                                               \
        const size_t s0_ = static_cast<size_t>(h.st - steps);          \
        const size_t left_ =                                           \
            static_cast<size_t>(std::max(budget - h.done, 0));         \
        size_t e_ = nsteps;                                            \
        stopWhy = Deopt::End;                                          \
        if (left_ <= nsteps - s0_) {                                   \
            e_ = s0_ + left_;                                          \
            stopWhy = Deopt::Budget;                                   \
        }                                                              \
        const Tick slack_ = xbound - h.time;                           \
        while (e_ > s0_ && static_cast<Tick>(rows[e_ - 1].worst -      \
                                             rows[s0_].worst) *        \
                                   h.period >                          \
                               slack_) {                               \
            --e_;                                                      \
            stopWhy = Deopt::Bound;                                    \
        }                                                              \
        iend = steps + e_;                                             \
    } while (0)

// The guards stand in for per-chain checks of the code bytes.  The
// chain that moved a generation has already retired; the deopt lands
// on the following chain boundary, exactly where the interpreter
// would re-decode.  GUARD_RECHECK reads the generations, after the
// core's own stores (a generic operation, a timeslice rotation at a
// jump), which take no note; STORE_RECHECK reads them only when a
// handler store landed in the guards' block window
// (sem::Swept::stored), since no store outside it can move one.
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
            h.close(h.st); /* the trace reads the clock */             \
            state_ = CpuState::Halted;                                 \
            trcAt(h.time, obs::Ev::Halt,                               \
                  h.wp | static_cast<Word>(pri_));                     \
            why = Deopt::Halt;                                         \
            goto out;                                                  \
        }                                                              \
    } while (0)

// One compare per step: the bound, the budget and the block's end are
// the step index iend.
#define NEXT()                                                         \
    do {                                                               \
        if (h.st >= iend)                                              \
            goto stop;                                                 \
        goto *tbl[static_cast<size_t>(h.st->kind)];                    \
    } while (0)

// A back-edge onto the entry: close the sweep, restart the walk.
#define LAP()                                                          \
    do {                                                               \
        h.close(h.st);                                                 \
        h.st = h.sweep0 = steps;                                       \
        BOUND_SWEEP();                                                 \
    } while (0)

#define DIRECT(FN) sem::direct(h, isa::Fn::FN, h.st[-1].operand)

// One straight-line chain: retire it (the sweep's rows do the
// accounting), run its handler, then the checks its effects call for.
#define STEP(HANDLER, EFFECTS)                                         \
    do {                                                               \
        ++h.st;                                                        \
        if ((EFFECTS) & fx::kReadsIptr)                                \
            h.iptr = h.st[-1].next;                                    \
        HANDLER;                                                       \
        if ((EFFECTS) & fx::kSetsError)                                \
            HALT_CHECK();                                              \
        if ((EFFECTS) & fx::kStores)                                   \
            STORE_RECHECK();                                           \
    } while (0)

// cj: a taken branch (its extra cycles closed the sweep) laps back to
// the entry or leaves the block.
#define CJ_STEP()                                                      \
    do {                                                               \
        ++h.st;                                                        \
        h.iptr = h.st[-1].next;                                        \
        if (sem::cj(h, h.st[-1].operand)) {                            \
            if (h.iptr == sb.entry) {                                  \
                LAP();                                                 \
                NEXT();                                                \
            }                                                          \
            why = Deopt::BranchOut;                                    \
            goto out;                                                  \
        }                                                              \
    } while (0)

// Fused superops: the whole group must fit under the step index, then
// the member chains run in order (the loop form ends in the j label).
// Near a boundary the head re-dispatches through its solo kind.
#define GROUP(CHAINS)                                                  \
    do {                                                               \
        if (iend - h.st < (CHAINS))                                    \
            goto *tbl[static_cast<size_t>(h.st->solo)];                \
    } while (0)

    const uint32_t *const gens = icache_.gensData();
    FOLD_OBS_BOUND();
    BOUND_SWEEP();
    try {
        NEXT();

  L_J: {
        ++h.st;
        h.close(h.st); // the descheduling point runs core code; the
                       // close leaves iptr at the fall-through
        const Word op = h.st[-1].operand;
        const Word target = h.sh.truncate(h.iptr + op);
        const Word wp = h.wp;
        sem::j(h, op);
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

  L_OpGeneric: {
        // any other fast operation: hand the state to the core's
        // generic operation path (it owns the counters and cycle
        // charges; the close leaves iptr at the fall-through), take it
        // back, and re-join the block if control fell through -- this
        // is how lend-loop back-edges, gcall/ret tails and the
        // error-flag operations stay inside the tier
        ++h.st;
        h.close(h.st);
        const Step &g = h.st[-1];
        h.toCore();
        execGenericOp(static_cast<isa::Op>(g.operand));
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
        if (h.iptr == g.next && h.st != steps + nsteps) {
            BOUND_SWEEP();
            NEXT();
        }
        if (h.iptr == sb.entry) {
            LAP();
            NEXT();
        }
        why = Deopt::BranchOut;
        goto out;
      }

  L_Fetch: {
        // an off-chip chain: its word fetches land before its stamp,
        // then its own kind runs it
        const Step &f = *h.st;
        h.chargeFetch(h.sh.truncate(f.next - f.length), f.length);
        goto *tbl[static_cast<size_t>(f.solo)];
      }

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

  stop:
        if (stopWhy == Deopt::Bound) {
            // the worst case may stop short of the bound: a sweep from
            // the exact clock admits at least its first step while the
            // clock is within xbound, so the block runs to the chain
            // boundary the interpreter stops at.  Past an observation
            // threshold there but not the bound, sample and go on
            h.close(h.st);
            if (h.time > xbound && h.time <= bound) {
                h.toCore();
                obsBoundaryFire(obs::kTierBlock);
                h.fromCore();
                FOLD_OBS_BOUND();
            }
            if (h.time <= xbound) {
                BOUND_SWEEP();
                NEXT();
            }
        }
        why = stopWhy;
  out:
        h.close(h.st);
        h.spill();
    } catch (...) {
        if (!h.inCore) {
            // a handler threw (a load or store outside populated
            // memory): its chain has retired without a transfer of
            // control, since a call faults before it enters its
            // routine
            h.close(h.st);
            h.iptr = h.st[-1].next;
            h.spill();
        } // else the core threw: the object holds the state
        bank(h.done);
        throw;
    }
    bank(h.done);
    return h.done;

#undef FOLD_OBS_BOUND
#undef BOUND_SWEEP
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
    // lands: the block compiled there; else, only while the promotion
    // gate is open, a heat count, and a compile right now if the
    // target just crossed the threshold.  A closed gate touches
    // neither the heat table nor the cache
    if (bcache_)
        if (blockc::Superblock *sb = bcache_->find(iptr))
            return sb;
    if (!blockPromotionAllowed())
        return nullptr;
    ensureBlockTier();
    // the worst case a block's step index assumes: without external
    // memory, an access that charges wait states faults right after,
    // and no later step runs
    const int waits = cfg_.externalBytes ? cfg_.externalWaits : 0;
    return bcache_->heat(iptr)
               ? bcache_->compile(icache_, shape_, waits, iptr)
               : nullptr;
}

bool
Transputer::hasBlockTable() const
{
    return bcache_ && bcache_->hasTable();
}

} // namespace transputer::core
