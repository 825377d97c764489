/**
 * @file
 * The E7 MIPS loop: the paper's "typical sequences of commonly used
 * instructions" (section 3.2.1) as straight-line assembler -- six
 * runs of constants, local stores and local pointers -- under a
 * counted back edge.  The benches, tprof and tsnap all run this text.
 */

#ifndef TRANSPUTER_APPS_E7_HH
#define TRANSPUTER_APPS_E7_HH

#include <cstdint>
#include <string>

namespace transputer::apps
{

/** The straight-line body of one E7 iteration. */
inline std::string
e7Body()
{
    std::string body;
    for (int r = 0; r < 6; ++r)
        body += "  ldc 5\n stl 1\n adc 3\n stl 2\n ldc 9\n"
                "  adc 1\n stl 3\n ldlp 4\n stl 4\n";
    return body;
}

/** `body` run `iterations` times, then `stopp`; the counter lives in
 *  local 30, which the body must leave alone. */
inline std::string
countedLoop(int64_t iterations, const std::string &body)
{
    return "start:\n"
           "  ldc " + std::to_string(iterations) + "\n stl 30\n"
           "outer:\n" + body +
           "  ldl 30\n adc -1\n stl 30\n"
           "  ldl 30\n cj done\n  j outer\n"
           "done: stopp\n";
}

/** The E7 loop, `iterations` times. */
inline std::string
e7LoopSource(int64_t iterations)
{
    return countedLoop(iterations, e7Body());
}

} // namespace transputer::apps

#endif // TRANSPUTER_APPS_E7_HH
