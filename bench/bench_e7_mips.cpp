/**
 * @file
 * E7: instruction rate (paper section 3.2.1).
 *
 * "Many of the instructions execute in a single cycle, and typical
 * sequences of commonly used instructions can deliver a 15 MIPS
 * execution rate" (at 20 MHz, i.e. ~1.33 cycles per instruction),
 * and section 3.2.3/3.2.5: "most of the executed operations
 * (typically 80%) are encoded in a single byte".
 *
 * Measured over representative instruction mixes, including code the
 * occam compiler generates.
 */

#include "apps/e7.hh"
#include "net/occam_boot.hh"

#include "util.hh"

using namespace transputer;
using namespace transputer::bench;

namespace
{

struct Mix
{
    const char *name;
    double mips;      ///< logical operations per second
    double raw_mips;  ///< raw instructions (incl. prefixes) per sec
    double cpi;
    double one_byte_pct;
};

Mix
measureAsm(const char *name, const std::string &body,
           const std::string &data = "")
{
    AsmRig rig;
    rig.run(apps::countedLoop(2000, body) + data);
    const double cycles = static_cast<double>(rig.cpu.cycles());
    const double instr = static_cast<double>(rig.cpu.instructions());
    // a logical operation is an instruction with its prefix chain
    // folded in; chains are nearly always one prefix long, so the
    // prefix count approximates the number of multi-byte operations
    const auto &fc = rig.cpu.fnCounts();
    const double prefixes = static_cast<double>(fc[2] + fc[6]);
    const double ops = instr - prefixes;
    const double one_byte = std::max(0.0, ops - prefixes);
    // the processor runs at 20 MHz (50 ns cycles)
    return Mix{name, ops / (cycles * 50e-9) / 1e6,
               instr / (cycles * 50e-9) / 1e6, cycles / ops,
               100.0 * one_byte / ops};
}

} // namespace

int
main()
{
    heading("E7: execution rate (paper section 3.2.1: \"15 MIPS\")");

    Table t({30, 10, 10, 10, 16});
    t.row("instruction mix", "MIPS", "MIPS", "cyc/op",
          "1-byte ops (%)");
    t.row("", "(ops)", "(instr)", "", "");
    t.rule();

    std::vector<Mix> mixes;
    mixes.push_back(
        measureAsm("single-cycle instructions", apps::e7Body()));
    mixes.push_back(measureAsm(
        "loads/stores/constants",
        "  ldc 5\n stl 1\n ldl 1\n stl 2\n ldc 9\n stl 3\n"
        "  ldl 2\n stl 4\n"));
    mixes.push_back(measureAsm(
        "expression evaluation",
        "  ldl 1\n ldl 2\n add\n stl 3\n"
        "  ldl 3\n adc 7\n stl 4\n"
        "  ldl 4\n ldl 1\n xor\n stl 5\n"));
    mixes.push_back(measureAsm(
        "array traversal",
        "  ldc 0\n stl 1\n"
        "  ldl 1\n ldap tab\n wsub\n ldnl 0\n stl 2\n"
        "  ldl 1\n adc 1\n ldc 7\n and\n stl 1\n",
        ".align\ntab: .space 64\n"));
    mixes.push_back(measureAsm(
        "with multiplies",
        "  ldl 1\n ldl 2\n add\n ldl 3\n ldl 4\n add\n mul\n"
        "  stl 5\n"));

    for (const auto &m : mixes)
        t.row(m.name, m.mips, m.raw_mips, m.cpi, m.one_byte_pct);
    t.rule();
    std::cout << "paper: \"typical sequences of commonly used "
              "instructions can deliver a 15 MIPS execution rate\" at "
              "20 MHz;\nmultiply-heavy code is slower (multiply is "
              "7+wordlength cycles) exactly as the paper's own tables "
              "imply.\n";
    return 0;
}
