#include "isa/superop.hh"

namespace transputer::isa::superop
{

Kind
classify(const Predecoded &d)
{
    if (!d.complete() || !d.fast())
        return Kind::kCount;
#define TRANSPUTER_FN_CASE(name, kind, effects)                        \
    case Fn::name:                                                     \
        return Kind::kind;
#define TRANSPUTER_OP_CASE(name, kind, effects)                        \
    case Op::name:                                                     \
        return Kind::kind;
    switch (d.fn) {
        TRANSPUTER_INLINED_BRANCHES(TRANSPUTER_FN_CASE)
        TRANSPUTER_INLINED_DIRECT(TRANSPUTER_FN_CASE)
      case Fn::OPR:
        break;
      default:
        return Kind::kCount; // prefixes never end a chain
    }
    if (!(d.flags & pflag::kOpDefined))
        return Kind::kCount;
    switch (static_cast<Op>(d.operand)) {
        TRANSPUTER_INLINED_OPS(TRANSPUTER_OP_CASE)
      default:
        return Kind::OpGeneric;
    }
#undef TRANSPUTER_FN_CASE
#undef TRANSPUTER_OP_CASE
}

Kind
fuse(const Kind *solo, size_t i, size_t n, bool cj_j_backedge)
{
    const Kind k0 = solo[i];
    const Kind k1 = i + 1 < n ? solo[i + 1] : Kind::kCount;
    const Kind k2 = i + 2 < n ? solo[i + 2] : Kind::kCount;

    // triples first: the longest match wins
    if (k1 == Kind::Adc && k2 == Kind::Stl) {
        if (k0 == Kind::Ldc)
            return Kind::LdcAdcStl;
        if (k0 == Kind::Ldl)
            return Kind::LdlAdcStl;
    }

    if (k1 == Kind::Stl) {
        switch (k0) {
          case Kind::Ldc:  return Kind::LdcStl;
          case Kind::Ldlp: return Kind::LdlpStl;
          case Kind::Adc:  return Kind::AdcStl;
          default: break;
        }
    }

    if (k0 == Kind::Cj && k1 == Kind::J && cj_j_backedge)
        return Kind::CjLoop;

    return k0;
}

} // namespace transputer::isa::superop
