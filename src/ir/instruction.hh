/**
 * @file
 * Register-level instruction representation.
 *
 * The IR models post-register-allocation GPU machine code, the
 * abstraction the RegLess compiler operates on: SSA has been lowered,
 * register numbers are architectural, and control flow is explicit
 * branches between numbered instructions. Each instruction also carries
 * enough semantics to be executed functionally across 32 lanes, which is
 * what makes the eviction compressor's pattern matching meaningful.
 */

#ifndef REGLESS_IR_INSTRUCTION_HH
#define REGLESS_IR_INSTRUCTION_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hh"

namespace regless::ir
{

/** One register's value across all 32 lanes of a warp. */
using LaneValues = std::array<std::uint32_t, warpSize>;

/** Machine opcodes. Arithmetic is integer unless prefixed with F. */
enum class Opcode : std::uint8_t
{
    Nop,
    Mov,     ///< dst = src0
    MovImm,  ///< dst = imm (broadcast)
    Tid,     ///< dst = lane id + warp id * warpSize (thread index)
    CtaId,   ///< dst = block index (broadcast)
    IAdd,    ///< dst = src0 + src1
    ISub,    ///< dst = src0 - src1
    IMul,    ///< dst = src0 * src1
    IMad,    ///< dst = src0 * src1 + src2
    IAddImm, ///< dst = src0 + imm
    IMulImm, ///< dst = src0 * imm
    FAdd,    ///< float add (bit-cast semantics)
    FMul,    ///< float multiply
    FFma,    ///< float fused multiply-add
    Shl,     ///< dst = src0 << (src1 & 31)
    Shr,     ///< dst = src0 >> (src1 & 31)
    And,     ///< dst = src0 & src1
    Or,      ///< dst = src0 | src1
    Xor,     ///< dst = src0 ^ src1
    IMin,    ///< signed minimum
    IMax,    ///< signed maximum
    SetLt,   ///< dst = (int)src0 < (int)src1 ? 1 : 0
    SetGe,   ///< dst = (int)src0 >= (int)src1 ? 1 : 0
    SetEq,   ///< dst = src0 == src1 ? 1 : 0
    SetNe,   ///< dst = src0 != src1 ? 1 : 0
    Selp,    ///< dst = src2 ? src0 : src1 (per lane)
    Rcp,     ///< special-function reciprocal approximation
    Sqrt,    ///< special-function square root approximation
    LdGlobal, ///< dst = mem[src0 + imm]
    StGlobal, ///< mem[src1 + imm] = src0
    LdShared, ///< dst = shmem[src0 + imm]
    StShared, ///< shmem[src1 + imm] = src0
    Bra,     ///< if (src0 != 0 per lane) goto target
    Jmp,     ///< goto target
    Bar,     ///< block-wide barrier
    Exit,    ///< thread terminates
};

/** @return a short mnemonic for @a op. */
const char *opcodeName(Opcode op);

/** Broad functional-unit class used for latency and issue modelling. */
enum class FuClass : std::uint8_t
{
    Alu,     ///< integer/float pipeline
    Sfu,     ///< special function unit (Rcp, Sqrt)
    Mem,     ///< LSU: global/shared memory
    Control, ///< branches, barrier, exit
};

/**
 * One machine instruction. Instances are immutable after kernel
 * construction; all compiler annotations live in side tables keyed by PC.
 */
class Instruction
{
  public:
    Instruction() = default;

    /** Full constructor; prefer the factory helpers in KernelBuilder. */
    Instruction(Opcode op, RegId dst, std::vector<RegId> srcs,
                std::int64_t imm = 0, Pc target = invalidPc);

    Opcode op() const { return _op; }
    RegId dst() const { return _dst; }
    const std::vector<RegId> &srcs() const { return _srcs; }
    std::int64_t imm() const { return _imm; }
    Pc target() const { return _target; }

    /** @return true when the instruction writes a destination register. */
    bool writesReg() const { return _dst != invalidReg; }

    bool isGlobalLoad() const { return _op == Opcode::LdGlobal; }
    bool isGlobalStore() const { return _op == Opcode::StGlobal; }
    bool isSharedAccess() const;
    bool isMemAccess() const;
    bool isBranch() const { return _op == Opcode::Bra; }
    bool isJump() const { return _op == Opcode::Jmp; }
    bool isBarrier() const { return _op == Opcode::Bar; }
    bool isExit() const { return _op == Opcode::Exit; }

    /** @return true for instructions that terminate a basic block. */
    bool isBlockTerminator() const;

    /** Functional-unit class for latency modelling. */
    FuClass fuClass() const;

    /**
     * Compute the destination lane values from source lane values.
     * Memory and control instructions must not be passed here; their
     * effects are applied by the SM pipeline.
     *
     * @param srcs Source operand values, one pointer per source
     *        register; throws std::out_of_range when @a count is
     *        fewer than the opcode reads.
     * @return Destination lane values.
     */
    LaneValues evaluate(const LaneValues *const *srcs,
                        std::size_t count) const;

    /** evaluate() over values held in a vector (tests). */
    LaneValues evaluate(const std::vector<LaneValues> &srcs) const;

    /** Render as "iadd r1, r2, r3"-style text for debugging. */
    std::string toString() const;

  private:
    /** Source operands an ALU/SFU opcode reads (panics otherwise). */
    unsigned aluSrcCount() const;

    Opcode _op = Opcode::Nop;
    RegId _dst = invalidReg;
    std::vector<RegId> _srcs;
    std::int64_t _imm = 0;
    Pc _target = invalidPc;
};

} // namespace regless::ir

#endif // REGLESS_IR_INSTRUCTION_HH
