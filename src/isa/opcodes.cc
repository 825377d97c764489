#include "isa/opcodes.hh"

#include <array>
#include <unordered_map>

namespace transputer::isa
{

namespace
{

constexpr std::array<std::string_view, 16> fnNames = {
    "j",   "ldlp", "pfix", "ldnl", "ldc", "ldnlp", "nfix", "ldl",
    "adc", "call", "cj",   "ajw",  "eqc", "stl",   "stnl", "opr",
};

struct OpEntry
{
    Op op;
    std::string_view name;
};

constexpr std::array opTable = {
    OpEntry{Op::REV, "rev"},
    OpEntry{Op::LB, "lb"},
    OpEntry{Op::BSUB, "bsub"},
    OpEntry{Op::ENDP, "endp"},
    OpEntry{Op::DIFF, "diff"},
    OpEntry{Op::ADD, "add"},
    OpEntry{Op::GCALL, "gcall"},
    OpEntry{Op::IN, "in"},
    OpEntry{Op::PROD, "prod"},
    OpEntry{Op::GT, "gt"},
    OpEntry{Op::WSUB, "wsub"},
    OpEntry{Op::OUT, "out"},
    OpEntry{Op::SUB, "sub"},
    OpEntry{Op::STARTP, "startp"},
    OpEntry{Op::OUTBYTE, "outbyte"},
    OpEntry{Op::OUTWORD, "outword"},
    OpEntry{Op::SETERR, "seterr"},
    OpEntry{Op::RESETCH, "resetch"},
    OpEntry{Op::CSUB0, "csub0"},
    OpEntry{Op::STOPP, "stopp"},
    OpEntry{Op::LADD, "ladd"},
    OpEntry{Op::STLB, "stlb"},
    OpEntry{Op::STHF, "sthf"},
    OpEntry{Op::NORM, "norm"},
    OpEntry{Op::LDIV, "ldiv"},
    OpEntry{Op::LDPI, "ldpi"},
    OpEntry{Op::STLF, "stlf"},
    OpEntry{Op::XDBLE, "xdble"},
    OpEntry{Op::LDPRI, "ldpri"},
    OpEntry{Op::REM, "rem"},
    OpEntry{Op::RET, "ret"},
    OpEntry{Op::LEND, "lend"},
    OpEntry{Op::LDTIMER, "ldtimer"},
    OpEntry{Op::TESTERR, "testerr"},
    OpEntry{Op::TESTPRANAL, "testpranal"},
    OpEntry{Op::TIN, "tin"},
    OpEntry{Op::DIV, "div"},
    OpEntry{Op::DIST, "dist"},
    OpEntry{Op::DISC, "disc"},
    OpEntry{Op::DISS, "diss"},
    OpEntry{Op::LMUL, "lmul"},
    OpEntry{Op::NOT, "not"},
    OpEntry{Op::XOR, "xor"},
    OpEntry{Op::BCNT, "bcnt"},
    OpEntry{Op::LSHR, "lshr"},
    OpEntry{Op::LSHL, "lshl"},
    OpEntry{Op::LSUM, "lsum"},
    OpEntry{Op::LSUB, "lsub"},
    OpEntry{Op::RUNP, "runp"},
    OpEntry{Op::XWORD, "xword"},
    OpEntry{Op::SB, "sb"},
    OpEntry{Op::GAJW, "gajw"},
    OpEntry{Op::SAVEL, "savel"},
    OpEntry{Op::SAVEH, "saveh"},
    OpEntry{Op::WCNT, "wcnt"},
    OpEntry{Op::SHR, "shr"},
    OpEntry{Op::SHL, "shl"},
    OpEntry{Op::MINT, "mint"},
    OpEntry{Op::ALT, "alt"},
    OpEntry{Op::ALTWT, "altwt"},
    OpEntry{Op::ALTEND, "altend"},
    OpEntry{Op::AND, "and"},
    OpEntry{Op::ENBT, "enbt"},
    OpEntry{Op::ENBC, "enbc"},
    OpEntry{Op::ENBS, "enbs"},
    OpEntry{Op::MOVE, "move"},
    OpEntry{Op::OR, "or"},
    OpEntry{Op::CSNGL, "csngl"},
    OpEntry{Op::CCNT1, "ccnt1"},
    OpEntry{Op::TALT, "talt"},
    OpEntry{Op::LDIFF, "ldiff"},
    OpEntry{Op::STHB, "sthb"},
    OpEntry{Op::TALTWT, "taltwt"},
    OpEntry{Op::SUM, "sum"},
    OpEntry{Op::MUL, "mul"},
    OpEntry{Op::STTIMER, "sttimer"},
    OpEntry{Op::STOPERR, "stoperr"},
    OpEntry{Op::CWORD, "cword"},
    OpEntry{Op::CLRHALTERR, "clrhalterr"},
    OpEntry{Op::SETHALTERR, "sethalterr"},
    OpEntry{Op::TESTHALTERR, "testhalterr"},
    OpEntry{Op::DUP, "dup"},
};

const std::unordered_map<std::string_view, Fn> &
fnLookup()
{
    static const auto *map = [] {
        auto *m = new std::unordered_map<std::string_view, Fn>;
        for (size_t i = 0; i < fnNames.size(); ++i)
            m->emplace(fnNames[i], static_cast<Fn>(i));
        return m;
    }();
    return *map;
}

const std::unordered_map<std::string_view, Op> &
opLookup()
{
    static const auto *map = [] {
        auto *m = new std::unordered_map<std::string_view, Op>;
        for (const auto &e : opTable)
            m->emplace(e.name, e.op);
        return m;
    }();
    return *map;
}

/** Operation codes are small (T414 numbering stops below 0x60), so
 *  every code-indexed lookup is one array read. */
constexpr size_t opSpace = 0x100;

/** Mnemonic by operation code; empty for an undefined code. */
constexpr auto opNameTable = [] {
    std::array<std::string_view, opSpace> t{};
    for (const auto &e : opTable)
        t[static_cast<size_t>(e.op)] = e.name;
    return t;
}();

} // namespace

std::string_view
fnName(Fn fn)
{
    return fnNames[static_cast<size_t>(fn) & 0xF];
}

std::string_view
opName(Op op)
{
    const uint32_t code = static_cast<uint32_t>(op);
    return opDefined(code) ? opNameTable[code] : std::string_view{"?op?"};
}

std::optional<Fn>
fnFromName(std::string_view name)
{
    auto it = fnLookup().find(name);
    if (it == fnLookup().end())
        return std::nullopt;
    return it->second;
}

std::optional<Op>
opFromName(std::string_view name)
{
    auto it = opLookup().find(name);
    if (it == opLookup().end())
        return std::nullopt;
    return it->second;
}

bool
opDefined(uint32_t code)
{
    return code < opSpace && !opNameTable[code].empty();
}

} // namespace transputer::isa
