/**
 * @file
 * Shared helpers for the benchmark harnesses: single-CPU assembly
 * rigs, occam rigs with a console, and paper-vs-measured table
 * printing.  Every bench binary prints the rows the paper reports
 * next to what the emulator measures; EXPERIMENTS.md records both.
 */

#ifndef TRANSPUTER_BENCH_UTIL_HH
#define TRANSPUTER_BENCH_UTIL_HH

#include <cerrno>
#include <csignal>
#include <cstdint>
#include <cstring>
#include <iomanip>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <sys/ptrace.h>
#include <sys/wait.h>
#include <unistd.h>

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

/** What countHostSteps measured: the host instructions of the window
 *  and the result it reported (steps < 0: skipped, see why). */
struct HostSteps
{
    long steps = -1;
    uint64_t result = 0;
    std::string why;
};

/**
 * Count the host instructions of one window of work, deterministically:
 * a forked child calls prepare() (untraced), which returns the window,
 * a callable returning std::optional<uint64_t>; the child runs it
 * between two raise(SIGSTOP) markers while the parent single-steps it
 * with ptrace, and then hands the window's result back through a pipe
 * (nullopt: the window's own check failed).  Where ptrace is refused,
 * `why` says so.
 */
template <typename Prepare>
HostSteps
countHostSteps(Prepare prepare)
{
    HostSteps out;
    int fds[2];
    if (pipe(fds) != 0) {
        out.why = std::string("pipe: ") + std::strerror(errno);
        return out;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        out.why = std::string("fork: ") + std::strerror(errno);
        close(fds[0]);
        close(fds[1]);
        return out;
    }
    if (pid == 0) {
        close(fds[0]);
        if (ptrace(PTRACE_TRACEME, 0, nullptr, nullptr) != 0)
            _exit(2);
        auto window = prepare();
        raise(SIGSTOP);
        const std::optional<uint64_t> r = window();
        raise(SIGSTOP);
        if (!r)
            _exit(3);
        const uint64_t v = *r;
        _exit(write(fds[1], &v, sizeof v) == sizeof v ? 0 : 4);
    }
    close(fds[1]);
    int status = 0;
    long steps = 0;
    bool marked = false;
    while (waitpid(pid, &status, 0) == pid && WIFSTOPPED(status)) {
        if (WSTOPSIG(status) == SIGSTOP) {
            if (marked) { // the second marker: let the child finish
                ptrace(PTRACE_CONT, pid, nullptr, nullptr);
                continue;
            }
            marked = true;
        } else {
            ++steps;
        }
        if (ptrace(PTRACE_SINGLESTEP, pid, nullptr, nullptr) != 0) {
            out.why = std::string("PTRACE_SINGLESTEP: ") +
                      std::strerror(errno);
            kill(pid, SIGKILL);
            waitpid(pid, &status, 0);
            close(fds[0]);
            return out;
        }
    }
    uint64_t v = 0;
    const bool got = read(fds[0], &v, sizeof v) == sizeof v;
    close(fds[0]);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0 || !got) {
        out.why = WIFEXITED(status) && WEXITSTATUS(status) == 2
                      ? "PTRACE_TRACEME refused"
                      : "the traced child failed its window";
        return out;
    }
    out.steps = steps;
    out.result = v;
    return out;
}

} // namespace transputer::bench

#endif // TRANSPUTER_BENCH_UTIL_HH
