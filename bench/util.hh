/**
 * @file
 * Shared helpers for the benchmark harnesses: single-CPU assembly
 * rigs, occam rigs with a console, and paper-vs-measured table
 * printing.  Every bench binary prints the rows the paper reports
 * next to what the emulator measures; EXPERIMENTS.md records both.
 */

#ifndef TRANSPUTER_BENCH_UTIL_HH
#define TRANSPUTER_BENCH_UTIL_HH

#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/transputer.hh"
#include "net/network.hh"
#include "net/occam_boot.hh"
#include "net/peripherals.hh"
#include "sim/event_queue.hh"
#include "tasm/assembler.hh"

namespace transputer::bench
{

/** A single transputer driven by assembler source. */
class AsmRig
{
  public:
    explicit AsmRig(const core::Config &cfg = {}) : cpu(queue, cfg) {}

    void
    load(const std::string &src)
    {
        img = tasm::assemble(src, cpu.memory().memStart(),
                             cpu.shape());
        cpu.memory().load(img.origin, img.bytes.data(),
                          img.bytes.size());
        wptr0 = cpu.shape().index(
            cpu.shape().wordAlign(img.end() + cpu.shape().bytes - 1),
            400);
    }

    void
    run(const std::string &src, const std::string &entry = "start",
        Tick limit = 2'000'000'000)
    {
        load(src);
        cpu.boot(img.symbol(entry), wptr0);
        queue.runUntil(limit);
    }

    Word
    local(int n) const
    {
        return cpu.memory().readWord(cpu.shape().index(wptr0, n));
    }

    sim::EventQueue queue;
    core::Transputer cpu;
    tasm::Image img;
    Word wptr0 = 0;
};

/** Fixed-width table printing. */
class Table
{
  public:
    explicit Table(std::vector<int> widths) : widths_(std::move(widths))
    {}

    template <typename... Cells>
    void
    row(const Cells &...cells)
    {
        std::vector<std::string> v;
        (v.push_back(render(cells)), ...);
        row(v);
    }

    void
    row(const std::vector<std::string> &v)
    {
        std::ostringstream os;
        for (size_t i = 0; i < v.size(); ++i) {
            const int w = i < widths_.size() ? widths_[i] : 12;
            os << std::left << std::setw(w) << v[i] << " ";
        }
        std::cout << os.str() << "\n";
    }

    void
    rule()
    {
        int total = 0;
        for (int w : widths_)
            total += w + 1;
        std::cout << std::string(static_cast<size_t>(total), '-')
                  << "\n";
    }

  private:
    static std::string render(const std::string &s) { return s; }
    static std::string render(const char *s) { return s; }

    template <typename T>
    static std::string
    render(const T &v)
    {
        std::ostringstream os;
        os << v;
        return os.str();
    }

    std::vector<int> widths_;
};

inline void
heading(const std::string &title)
{
    std::cout << "\n=== " << title << " ===\n";
}

} // namespace transputer::bench

#endif // TRANSPUTER_BENCH_UTIL_HH
