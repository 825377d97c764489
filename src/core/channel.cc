/**
 * @file
 * Channel communication (paper section 3.2.10).
 *
 * Internal channels are single memory words: NotProcess when idle,
 * otherwise the descriptor of the process waiting on them (whose
 * State.s workspace slot holds its buffer pointer, or an ALT state).
 * Communication happens when both processes are ready; the data is
 * copied from outputter to inputter and both proceed.  The in/out
 * instructions dispatch on the channel address, so the very same code
 * drives a link (external channel) through its ChannelPort.
 */

#include "core/transputer.hh"
#include "isa/cycles.hh"

namespace transputer::core
{

namespace cyc = transputer::isa::cycles;

int
Transputer::portIndexFor(Word chan_addr) const
{
    const Word a = shape_.wordAlign(chan_addr);
    for (int i = 0; i < 4; ++i) {
        if (a == mem_.linkOutAddr(i))
            return i;
        if (a == mem_.linkInAddr(i))
            return 4 + i;
    }
    return -1;
}

ChannelPort *
Transputer::portFor(Word chan_addr) const
{
    const int idx = portIndexFor(chan_addr);
    if (idx < 0)
        return nullptr;
    ChannelPort *p = idx < 4 ? outPorts_[idx] : inPorts_[idx - 4];
    if (!p)
        fatal("{}: channel #{} is a link address with no attached "
              "link", name_, hexWord(chan_addr));
    return p;
}

bool
Transputer::isEventChannel(Word chan_addr) const
{
    return shape_.wordAlign(chan_addr) == mem_.eventAddr();
}

void
Transputer::channelIn(Word count, Word chan, Word ptr)
{
    if (isEventChannel(chan)) {
        eventIn();
        return;
    }
    const int idx = portIndexFor(chan);
    if (idx >= 0) {
        ChannelPort *port = portFor(chan);
        ++ctrs_.chanLinkIn;
        chargeCycles(cyc::commSuspend);
        const Word w = wdesc();
        trc(obs::Ev::WaitChan, w, chan);
        descheduleCurrent(true);
        port->requestInput(w, ptr, count);
        return;
    }
    internalIn(count, chan, ptr);
}

void
Transputer::channelOut(Word count, Word chan, Word ptr)
{
    const int idx = portIndexFor(chan);
    if (idx >= 0) {
        ChannelPort *port = portFor(chan);
        ++ctrs_.chanLinkOut;
        chargeCycles(cyc::commSuspend);
        const Word w = wdesc();
        trc(obs::Ev::WaitChan, w, chan);
        descheduleCurrent(true);
        port->requestOutput(w, ptr, count);
        return;
    }
    internalOut(count, chan, ptr);
}

void
Transputer::internalIn(Word count, Word chan, Word ptr)
{
    ++ctrs_.chanInternalIn;
    const Word word = readWord(chan);
    if (word == notProcess()) {
        // first at the rendezvous: wait for the outputter
        chargeCycles(cyc::commSuspend);
        writeWord(chan, wdesc());
        wsWrite(wptr_, ws::state, ptr);
        trc(obs::Ev::WaitChan, wdesc(), chan);
        descheduleCurrent(true);
        return;
    }
    // an outputter is waiting; its buffer pointer is in State.s
    chargeCycles(cyc::commComplete(shape_, count));
    const Word other = shape_.wordAlign(word);
    const Word src = wsRead(other, ws::state);
    copyMessage(ptr, src, count);
    writeWord(chan, notProcess());
    trc(obs::Ev::Rendezvous, word, chan, count);
    scheduleProcess(word);
}

void
Transputer::internalOut(Word count, Word chan, Word ptr)
{
    ++ctrs_.chanInternalOut;
    const Word word = readWord(chan);
    if (word == notProcess()) {
        chargeCycles(cyc::commSuspend);
        writeWord(chan, wdesc());
        wsWrite(wptr_, ws::state, ptr);
        trc(obs::Ev::WaitChan, wdesc(), chan);
        descheduleCurrent(true);
        return;
    }
    const Word other = shape_.wordAlign(word);
    const Word st = wsRead(other, ws::state);
    if (st == enabling() || st == waitingAlt() || st == readyAlt()) {
        // the waiter is ALT-ing: mark its guard ready, leave our
        // descriptor in the channel, and wait for the actual input
        chargeCycles(cyc::commSuspend);
        writeWord(chan, wdesc());
        wsWrite(wptr_, ws::state, ptr);
        const Word their_wdesc = word;
        trc(obs::Ev::WaitChan, wdesc(), chan);
        descheduleCurrent(true);
        if (st == enabling()) {
            wsWrite(other, ws::state, readyAlt());
        } else if (st == waitingAlt()) {
            wsWrite(other, ws::state, readyAlt());
            scheduleProcess(their_wdesc);
        }
        return;
    }
    // a plain inputter is waiting; copy straight into its buffer
    chargeCycles(cyc::commComplete(shape_, count));
    const Word dst = st;
    copyMessage(dst, ptr, count);
    writeWord(chan, notProcess());
    trc(obs::Ev::Rendezvous, wdesc(), chan, count);
    scheduleProcess(word);
}

void
Transputer::copyMessage(Word dst, Word src, Word count)
{
    for (Word i = 0; i < count; ++i)
        writeByte(shape_.truncate(dst + i),
                  readByte(shape_.truncate(src + i)));
}

void
Transputer::enableChannel(Word chan)
{
    if (isEventChannel(chan)) {
        if (enableEvent())
            wsWrite(wptr_, ws::state, readyAlt());
        return;
    }
    const int idx = portIndexFor(chan);
    if (idx >= 0) {
        if (portFor(chan)->enableInput(wdesc()))
            wsWrite(wptr_, ws::state, readyAlt());
        return;
    }
    const Word word = readWord(chan);
    if (word == notProcess()) {
        writeWord(chan, wdesc());
    } else if (word != wdesc()) {
        // an outputter is already waiting on this channel
        wsWrite(wptr_, ws::state, readyAlt());
    }
}

bool
Transputer::disableChannel(Word chan)
{
    if (isEventChannel(chan))
        return disableEvent();
    const int idx = portIndexFor(chan);
    if (idx >= 0)
        return portFor(chan)->disableInput();
    const Word word = readWord(chan);
    if (word == wdesc()) {
        writeWord(chan, notProcess()); // we were the only registrant
        return false;
    }
    return word != notProcess(); // an outputter is waiting
}

void
Transputer::eventIn()
{
    if (eventPending_ > 0) {
        --eventPending_;
        chargeCycles(cyc::eventInPending);
        return;
    }
    chargeCycles(cyc::commSuspend);
    eventWaiter_ = wdesc();
    descheduleCurrent(true);
}

bool
Transputer::enableEvent()
{
    if (eventPending_ > 0)
        return true;
    eventAltWaiter_ = wdesc();
    return false;
}

bool
Transputer::disableEvent()
{
    // the pending count is consumed by the selected branch's input,
    // not here: another guard may have been selected instead
    eventAltWaiter_ = notProcess();
    return eventPending_ > 0;
}

} // namespace transputer::core
