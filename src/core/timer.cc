/**
 * @file
 * The two timers (paper section 2.2.2).
 *
 * Each priority level has an incrementing clock: the high-priority
 * clock ticks every microsecond, the low-priority clock every 64
 * microseconds.  Time values are full modular words, compared with
 * the signed difference (AFTER).  Processes performing a delayed
 * input are held on a per-priority timer queue, a memory-linked list
 * through the TLink.s workspace slots ordered by wake-up time, whose
 * head pointer lives in the reserved TPtrLoc words.  Expiry is driven
 * by a single pending event on the simulation queue.
 */

#include <algorithm>

#include "core/transputer.hh"

namespace transputer::core
{

namespace
{

constexpr Tick usPerTick0 = 1;   ///< high-priority clock: 1 us
constexpr Tick usPerTick1 = 64;  ///< low-priority clock: 64 us

Tick
usPerTickOf(int pri)
{
    return pri == 0 ? usPerTick0 : usPerTick1;
}

} // namespace

Word
Transputer::clockAt(int pri, Tick t) const
{
    if (!timersRunning_)
        return timerOffset_[pri];
    const Tick elapsed_us = (t - timerBase_) / ticksPerUs;
    return shape_.truncate(timerOffset_[pri] +
                           static_cast<uint64_t>(
                               elapsed_us / usPerTickOf(pri)));
}

Tick
Transputer::tickFor(int pri, Word tv) const
{
    const Word now_clock = clockAt(pri, time_);
    const int64_t delta =
        shape_.toSigned(shape_.truncate(tv - now_clock));
    if (delta <= 0)
        return time_;
    const Tick per = usPerTickOf(pri) * ticksPerUs;
    const Tick ticks_now = (time_ - timerBase_) / per;
    return timerBase_ + (ticks_now + delta) * per;
}

bool
Transputer::timeAfter(int pri, Word tv) const
{
    const Word clock = clockAt(pri, time_);
    return shape_.toSigned(shape_.truncate(clock - tv)) >= 0;
}

void
Transputer::timerInsert(int pri, Word wptr, Word tv)
{
    ++ctrs_.timerWaits;
    trc(obs::Ev::WaitTimer, wptr | static_cast<Word>(pri), tv);
    const Word head_addr = mem_.tptrLocAddr(pri);
    const Word now_clock = clockAt(pri, time_);
    const int64_t key = shape_.toSigned(shape_.truncate(tv - now_clock));

    Word prev = notProcess();
    Word cur = readWord(head_addr);
    while (cur != notProcess()) {
        const Word cur_tv = wsRead(cur, ws::time);
        const int64_t cur_key =
            shape_.toSigned(shape_.truncate(cur_tv - now_clock));
        if (key < cur_key)
            break;
        prev = cur;
        cur = wsRead(cur, ws::tlink);
    }
    wsWrite(wptr, ws::tlink, cur);
    if (prev == notProcess())
        writeWord(head_addr, wptr);
    else
        wsWrite(prev, ws::tlink, wptr);
    armTimerEvent();
}

void
Transputer::timerRemove(int pri, Word wptr)
{
    const Word head_addr = mem_.tptrLocAddr(pri);
    Word prev = notProcess();
    Word cur = readWord(head_addr);
    while (cur != notProcess()) {
        const Word next = wsRead(cur, ws::tlink);
        if (cur == wptr) {
            if (prev == notProcess())
                writeWord(head_addr, next);
            else
                wsWrite(prev, ws::tlink, next);
            wsWrite(wptr, ws::tlink, timeNotSet());
            armTimerEvent();
            return;
        }
        prev = cur;
        cur = next;
    }
    // not on the queue (already expired): nothing to do
}

void
Transputer::timerExpire()
{
    // when the CPU is idle its local clock lags the event queue;
    // expiry happens in global time
    time_ = std::max(time_, queue_->now());
    for (int pri = 0; pri < 2; ++pri) {
        const Word head_addr = mem_.tptrLocAddr(pri);
        Word head = readWord(head_addr);
        while (head != notProcess() &&
               timeAfter(pri, wsRead(head, ws::time))) {
            const Word next = wsRead(head, ws::tlink);
            writeWord(head_addr, next);
            wsWrite(head, ws::tlink, timeNotSet());
            ++ctrs_.timerWakes;
            const Word st = wsRead(head, ws::state);
            if (st == waitingAlt()) {
                // a timer-ALT waiter: make it ready
                wsWrite(head, ws::state, readyAlt());
                scheduleProcess(head | static_cast<Word>(pri));
            } else {
                // a plain delayed input (tin)
                scheduleProcess(head | static_cast<Word>(pri));
            }
            head = readWord(head_addr);
        }
    }
    armTimerEvent();
}

void
Transputer::armTimerEvent()
{
    Tick earliest = maxTick;
    for (int pri = 0; pri < 2; ++pri) {
        const Word head = mem_.readWord(mem_.tptrLocAddr(pri));
        if (head == notProcess())
            continue;
        const Word tv = mem_.readWord(shape_.index(head, ws::time));
        earliest = std::min(earliest, tickFor(pri, tv));
    }
    queue_->cancelStatic(timerEvent_);
    if (earliest == maxTick)
        return;
    // clamp an already-passed deadline to the CPU's architectural
    // time, not the queue clock: the local clock is never behind the
    // queue on any path that arms the timer, and the architectural
    // time is identical in serial and shard-parallel runs (the queue
    // clock depends on how execution was batched)
    queue_->scheduleStatic(
        std::max(earliest, time_),
        sim::EventKey{actorId_, sim::chanTimer, ++selfSeq_},
        timerEvent_);
}

} // namespace transputer::core
