#include "ir/instruction.hh"

#include <cmath>
#include <algorithm>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "common/logging.hh"

namespace regless::ir
{

namespace
{

float
asFloat(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

std::uint32_t
asBits(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof(bits));
    return bits;
}

} // namespace

const char *
opcodeName(Opcode op)
{
    switch (op) {
      case Opcode::Nop: return "nop";
      case Opcode::Mov: return "mov";
      case Opcode::MovImm: return "movi";
      case Opcode::Tid: return "tid";
      case Opcode::CtaId: return "ctaid";
      case Opcode::IAdd: return "iadd";
      case Opcode::ISub: return "isub";
      case Opcode::IMul: return "imul";
      case Opcode::IMad: return "imad";
      case Opcode::IAddImm: return "iaddi";
      case Opcode::IMulImm: return "imuli";
      case Opcode::FAdd: return "fadd";
      case Opcode::FMul: return "fmul";
      case Opcode::FFma: return "ffma";
      case Opcode::Shl: return "shl";
      case Opcode::Shr: return "shr";
      case Opcode::And: return "and";
      case Opcode::Or: return "or";
      case Opcode::Xor: return "xor";
      case Opcode::IMin: return "imin";
      case Opcode::IMax: return "imax";
      case Opcode::SetLt: return "setlt";
      case Opcode::SetGe: return "setge";
      case Opcode::SetEq: return "seteq";
      case Opcode::SetNe: return "setne";
      case Opcode::Selp: return "selp";
      case Opcode::Rcp: return "rcp";
      case Opcode::Sqrt: return "sqrt";
      case Opcode::LdGlobal: return "ld.global";
      case Opcode::StGlobal: return "st.global";
      case Opcode::LdShared: return "ld.shared";
      case Opcode::StShared: return "st.shared";
      case Opcode::Bra: return "bra";
      case Opcode::Jmp: return "jmp";
      case Opcode::Bar: return "bar";
      case Opcode::Exit: return "exit";
    }
    return "?";
}

Instruction::Instruction(Opcode op, RegId dst, std::vector<RegId> srcs,
                         std::int64_t imm, Pc target)
    : _op(op), _dst(dst), _srcs(std::move(srcs)), _imm(imm), _target(target)
{
}

bool
Instruction::isSharedAccess() const
{
    return _op == Opcode::LdShared || _op == Opcode::StShared;
}

bool
Instruction::isMemAccess() const
{
    return isGlobalLoad() || isGlobalStore() || isSharedAccess();
}

bool
Instruction::isBlockTerminator() const
{
    return isBranch() || isJump() || isExit() || isBarrier();
}

FuClass
Instruction::fuClass() const
{
    switch (_op) {
      case Opcode::Rcp:
      case Opcode::Sqrt:
        return FuClass::Sfu;
      case Opcode::LdGlobal:
      case Opcode::StGlobal:
      case Opcode::LdShared:
      case Opcode::StShared:
        return FuClass::Mem;
      case Opcode::Bra:
      case Opcode::Jmp:
      case Opcode::Bar:
      case Opcode::Exit:
        return FuClass::Control;
      default:
        return FuClass::Alu;
    }
}

namespace
{

/** Apply @a f lane by lane to the source operands @a src. */
template <typename F, typename... Src>
LaneValues
lanewise(F f, const Src &...src)
{
    LaneValues out;
    for (unsigned lane = 0; lane < warpSize; ++lane)
        out[lane] = f(src[lane]...);
    return out;
}

std::int32_t
asSigned(std::uint32_t v)
{
    return static_cast<std::int32_t>(v);
}

} // namespace

unsigned
Instruction::aluSrcCount() const
{
    switch (_op) {
      case Opcode::MovImm:
      case Opcode::Tid:
      case Opcode::CtaId:
        return 0;
      case Opcode::Mov:
      case Opcode::IAddImm:
      case Opcode::IMulImm:
      case Opcode::Rcp:
      case Opcode::Sqrt:
        return 1;
      case Opcode::IMad:
      case Opcode::FFma:
      case Opcode::Selp:
        return 3;
      case Opcode::IAdd:
      case Opcode::ISub:
      case Opcode::IMul:
      case Opcode::FAdd:
      case Opcode::FMul:
      case Opcode::Shl:
      case Opcode::Shr:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::IMin:
      case Opcode::IMax:
      case Opcode::SetLt:
      case Opcode::SetGe:
      case Opcode::SetEq:
      case Opcode::SetNe:
        return 2;
      default:
        panic("Instruction::evaluate on non-ALU opcode ",
              opcodeName(_op));
    }
}

LaneValues
Instruction::evaluate(const LaneValues *const *srcs, std::size_t count) const
{
    if (count < aluSrcCount())
        throw std::out_of_range(std::string(opcodeName(_op)) +
                                " reads more sources than it was given");
    const auto imm = static_cast<std::uint32_t>(_imm);
    // One dispatch per instruction; the lane loops below inline their
    // operation.
    switch (_op) {
      case Opcode::Mov:
        return *srcs[0];
      case Opcode::MovImm:
      case Opcode::CtaId: {
        LaneValues out;
        out.fill(imm);
        return out;
      }
      case Opcode::Tid: {
        // Warp-relative offset is added by the SM; evaluate yields
        // the lane component so the IR stays context-free.
        LaneValues out;
        for (unsigned lane = 0; lane < warpSize; ++lane)
            out[lane] = lane + imm;
        return out;
      }
      case Opcode::IAdd:
        return lanewise([](auto a, auto b) { return a + b; }, *srcs[0],
                        *srcs[1]);
      case Opcode::ISub:
        return lanewise([](auto a, auto b) { return a - b; }, *srcs[0],
                        *srcs[1]);
      case Opcode::IMul:
        return lanewise([](auto a, auto b) { return a * b; }, *srcs[0],
                        *srcs[1]);
      case Opcode::IMad:
        return lanewise([](auto a, auto b, auto c) { return a * b + c; },
                        *srcs[0], *srcs[1], *srcs[2]);
      case Opcode::IAddImm:
        return lanewise([imm](auto a) { return a + imm; }, *srcs[0]);
      case Opcode::IMulImm:
        return lanewise([imm](auto a) { return a * imm; }, *srcs[0]);
      case Opcode::FAdd:
        return lanewise(
            [](auto a, auto b) { return asBits(asFloat(a) + asFloat(b)); },
            *srcs[0], *srcs[1]);
      case Opcode::FMul:
        return lanewise(
            [](auto a, auto b) { return asBits(asFloat(a) * asFloat(b)); },
            *srcs[0], *srcs[1]);
      case Opcode::FFma:
        return lanewise(
            [](auto a, auto b, auto c) {
                return asBits(asFloat(a) * asFloat(b) + asFloat(c));
            },
            *srcs[0], *srcs[1], *srcs[2]);
      case Opcode::Shl:
        return lanewise([](auto a, auto b) { return a << (b & 31); },
                        *srcs[0], *srcs[1]);
      case Opcode::Shr:
        return lanewise([](auto a, auto b) { return a >> (b & 31); },
                        *srcs[0], *srcs[1]);
      case Opcode::And:
        return lanewise([](auto a, auto b) { return a & b; }, *srcs[0],
                        *srcs[1]);
      case Opcode::Or:
        return lanewise([](auto a, auto b) { return a | b; }, *srcs[0],
                        *srcs[1]);
      case Opcode::Xor:
        return lanewise([](auto a, auto b) { return a ^ b; }, *srcs[0],
                        *srcs[1]);
      case Opcode::IMin:
        return lanewise(
            [](auto a, auto b) {
                return static_cast<std::uint32_t>(
                    std::min(asSigned(a), asSigned(b)));
            },
            *srcs[0], *srcs[1]);
      case Opcode::IMax:
        return lanewise(
            [](auto a, auto b) {
                return static_cast<std::uint32_t>(
                    std::max(asSigned(a), asSigned(b)));
            },
            *srcs[0], *srcs[1]);
      case Opcode::SetLt:
        return lanewise(
            [](auto a, auto b) -> std::uint32_t {
                return asSigned(a) < asSigned(b);
            },
            *srcs[0], *srcs[1]);
      case Opcode::SetGe:
        return lanewise(
            [](auto a, auto b) -> std::uint32_t {
                return asSigned(a) >= asSigned(b);
            },
            *srcs[0], *srcs[1]);
      case Opcode::SetEq:
        return lanewise(
            [](auto a, auto b) -> std::uint32_t { return a == b; },
            *srcs[0], *srcs[1]);
      case Opcode::SetNe:
        return lanewise(
            [](auto a, auto b) -> std::uint32_t { return a != b; },
            *srcs[0], *srcs[1]);
      case Opcode::Selp:
        return lanewise([](auto a, auto b, auto p) { return p ? a : b; },
                        *srcs[0], *srcs[1], *srcs[2]);
      case Opcode::Rcp:
        return lanewise(
            [](auto a) {
                const float f = asFloat(a);
                return asBits(f == 0.0f ? 0.0f : 1.0f / f);
            },
            *srcs[0]);
      case Opcode::Sqrt:
        return lanewise(
            [](auto a) {
                const float f = asFloat(a);
                return asBits(f < 0.0f ? 0.0f : std::sqrt(f));
            },
            *srcs[0]);
      default:
        panic("Instruction::evaluate on non-ALU opcode ",
              opcodeName(_op));
    }
}

LaneValues
Instruction::evaluate(const std::vector<LaneValues> &srcs) const
{
    std::array<const LaneValues *, 3> ptrs{};
    const std::size_t count = std::min(srcs.size(), ptrs.size());
    for (std::size_t i = 0; i < count; ++i)
        ptrs[i] = &srcs[i];
    return evaluate(ptrs.data(), count);
}

std::string
Instruction::toString() const
{
    std::ostringstream oss;
    oss << opcodeName(_op);
    bool first = true;
    auto sep = [&]() -> std::ostream & {
        oss << (first ? " " : ", ");
        first = false;
        return oss;
    };
    if (_dst != invalidReg)
        sep() << "r" << _dst;
    for (RegId s : _srcs)
        sep() << "r" << s;
    if (_op == Opcode::MovImm || _op == Opcode::IAddImm ||
        _op == Opcode::IMulImm || isMemAccess()) {
        sep() << _imm;
    }
    if (_target != invalidPc)
        sep() << "@" << _target;
    return oss.str();
}

} // namespace regless::ir
