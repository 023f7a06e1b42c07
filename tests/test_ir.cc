/**
 * @file
 * Unit tests for the IR: instruction semantics, CFG construction,
 * dominators/postdominators, loops, and the kernel-builder DSL.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>

#include "ir/cfg_analysis.hh"
#include "ir/kernel.hh"
#include "workloads/kernel_builder.hh"
#include "workloads/random_kernel.hh"
#include "workloads/rodinia.hh"

namespace regless
{
namespace
{

using ir::LaneValues;
using ir::Opcode;
using workloads::KernelBuilder;
using workloads::Label;

LaneValues
lanes(std::uint32_t base, std::uint32_t stride)
{
    LaneValues v{};
    for (unsigned i = 0; i < warpSize; ++i)
        v[i] = base + i * stride;
    return v;
}

TEST(InstructionTest, IntegerArithmetic)
{
    ir::Instruction add(Opcode::IAdd, 0, {1, 2});
    LaneValues out = add.evaluate({lanes(10, 1), lanes(5, 2)});
    for (unsigned i = 0; i < warpSize; ++i)
        EXPECT_EQ(out[i], 15 + i * 3);

    ir::Instruction mad(Opcode::IMad, 0, {1, 2, 3});
    out = mad.evaluate({lanes(2, 0), lanes(3, 0), lanes(1, 1)});
    for (unsigned i = 0; i < warpSize; ++i)
        EXPECT_EQ(out[i], 6 + 1 + i);
}

TEST(InstructionTest, ImmediateForms)
{
    ir::Instruction movi(Opcode::MovImm, 0, {}, 77);
    LaneValues out = movi.evaluate({});
    for (unsigned i = 0; i < warpSize; ++i)
        EXPECT_EQ(out[i], 77u);

    ir::Instruction addi(Opcode::IAddImm, 0, {1}, 5);
    out = addi.evaluate({lanes(0, 1)});
    for (unsigned i = 0; i < warpSize; ++i)
        EXPECT_EQ(out[i], i + 5);
}

TEST(InstructionTest, TidProducesLaneIndexPlusOffset)
{
    ir::Instruction t(Opcode::Tid, 0, {}, 64);
    LaneValues out = t.evaluate({});
    for (unsigned i = 0; i < warpSize; ++i)
        EXPECT_EQ(out[i], 64 + i);
}

TEST(InstructionTest, FloatArithmeticBitCasts)
{
    auto fbits = [](float f) {
        std::uint32_t b;
        std::memcpy(&b, &f, 4);
        return b;
    };
    LaneValues a{}, b{};
    for (unsigned i = 0; i < warpSize; ++i) {
        a[i] = fbits(1.5f);
        b[i] = fbits(2.5f);
    }
    ir::Instruction fadd(Opcode::FAdd, 0, {1, 2});
    LaneValues out = fadd.evaluate({a, b});
    EXPECT_EQ(out[0], fbits(4.0f));

    ir::Instruction fmul(Opcode::FMul, 0, {1, 2});
    out = fmul.evaluate({a, b});
    EXPECT_EQ(out[3], fbits(3.75f));
}

TEST(InstructionTest, Comparisons)
{
    ir::Instruction lt(Opcode::SetLt, 0, {1, 2});
    LaneValues out = lt.evaluate({lanes(0, 1), lanes(16, 0)});
    for (unsigned i = 0; i < warpSize; ++i)
        EXPECT_EQ(out[i], i < 16 ? 1u : 0u);

    // Signed comparison: -1 < 1.
    LaneValues neg{}, pos{};
    for (unsigned i = 0; i < warpSize; ++i) {
        neg[i] = 0xffffffffu;
        pos[i] = 1;
    }
    out = lt.evaluate({neg, pos});
    EXPECT_EQ(out[0], 1u);
}

TEST(InstructionTest, SelpPicksPerLane)
{
    ir::Instruction selp(Opcode::Selp, 0, {1, 2, 3});
    LaneValues pred{};
    for (unsigned i = 0; i < warpSize; ++i)
        pred[i] = i % 2;
    LaneValues out = selp.evaluate({lanes(100, 0), lanes(200, 0), pred});
    for (unsigned i = 0; i < warpSize; ++i)
        EXPECT_EQ(out[i], i % 2 ? 100u : 200u);
}

TEST(InstructionTest, Classification)
{
    ir::Instruction ld(Opcode::LdGlobal, 0, {1}, 0);
    EXPECT_TRUE(ld.isGlobalLoad());
    EXPECT_TRUE(ld.isMemAccess());
    EXPECT_FALSE(ld.isBlockTerminator());
    EXPECT_EQ(ld.fuClass(), ir::FuClass::Mem);

    ir::Instruction bra(Opcode::Bra, invalidReg, {3}, 0, 7);
    EXPECT_TRUE(bra.isBranch());
    EXPECT_TRUE(bra.isBlockTerminator());
    EXPECT_FALSE(bra.writesReg());
    EXPECT_EQ(bra.fuClass(), ir::FuClass::Control);

    ir::Instruction rcp(Opcode::Rcp, 0, {1});
    EXPECT_EQ(rcp.fuClass(), ir::FuClass::Sfu);
}

TEST(InstructionTest, ToStringMentionsOperands)
{
    ir::Instruction add(Opcode::IAdd, 4, {1, 2});
    std::string s = add.toString();
    EXPECT_NE(s.find("iadd"), std::string::npos);
    EXPECT_NE(s.find("r4"), std::string::npos);
    EXPECT_NE(s.find("r1"), std::string::npos);
}

TEST(KernelTest, StraightLineSingleBlock)
{
    KernelBuilder b("straight");
    RegId t = b.tid();
    RegId x = b.iaddi(t, 1);
    RegId y = b.imul(x, t);
    b.st(y, t);
    ir::Kernel k = b.build();

    EXPECT_EQ(k.blocks().size(), 1u);
    EXPECT_EQ(k.block(0).firstPc(), 0u);
    EXPECT_EQ(k.block(0).lastPc(), k.numInsns() - 1);
    EXPECT_GE(k.numRegs(), 3u);
}

TEST(KernelTest, DiamondCfg)
{
    // if (tid < 8) x = 1 else x = 2; store x
    KernelBuilder b("diamond");
    RegId t = b.tid();
    RegId limit = b.movi(8);
    RegId p = b.setLt(t, limit);
    Label else_l = b.newLabel();
    Label join_l = b.newLabel();
    RegId x = b.reg();
    RegId notp = b.setEq(p, b.movi(0));
    b.braIf(notp, else_l);
    b.moviTo(x, 1);
    b.jmp(join_l);
    b.bind(else_l);
    b.moviTo(x, 2);
    b.bind(join_l);
    b.st(x, t);
    ir::Kernel k = b.build();

    // Expect: entry, then-block, else-block, join.
    EXPECT_EQ(k.blocks().size(), 4u);
    const ir::BasicBlock &entry = k.block(0);
    ASSERT_EQ(entry.successors().size(), 2u);

    ir::CfgAnalysis cfg(k);
    ir::BlockId join = k.blockOf(k.numInsns() - 1);
    EXPECT_TRUE(cfg.dominates(0, join));
    EXPECT_TRUE(cfg.postdominates(join, 0));
    EXPECT_FALSE(cfg.dominates(entry.successors()[0], join));
    EXPECT_TRUE(cfg.backEdges().empty());
    for (const ir::BasicBlock &bb : k.blocks())
        EXPECT_TRUE(cfg.reachable(bb.id()));
}

TEST(KernelTest, LoopHasBackEdge)
{
    // for (i = 0; i < 10; ++i) acc += i
    KernelBuilder b("loop");
    RegId i = b.reg();
    RegId acc = b.reg();
    b.moviTo(i, 0);
    b.moviTo(acc, 0);
    RegId limit = b.movi(10);
    Label head = b.newLabel();
    b.bind(head);
    b.iaddTo(acc, acc, i);
    b.iaddiTo(i, i, 1);
    RegId p = b.setLt(i, limit);
    b.braIf(p, head);
    b.st(acc, i);
    ir::Kernel k = b.build();

    ir::CfgAnalysis cfg(k);
    ASSERT_EQ(cfg.backEdges().size(), 1u);
    auto [from, to] = cfg.backEdges()[0];
    EXPECT_TRUE(cfg.dominates(to, from));
    EXPECT_TRUE(cfg.inAnyLoop(from));
    EXPECT_TRUE(cfg.inAnyLoop(to));
    // The loop body blocks are in the natural loop.
    auto loop = cfg.naturalLoop(from, to);
    EXPECT_GE(loop.size(), 1u);
}

TEST(KernelTest, BlockOfMapsEveryPc)
{
    KernelBuilder b("map");
    RegId t = b.tid();
    Label skip = b.newLabel();
    RegId p = b.setLt(t, b.movi(4));
    b.braIf(p, skip);
    b.st(t, t);
    b.bind(skip);
    ir::Kernel k = b.build();
    for (Pc pc = 0; pc < k.numInsns(); ++pc) {
        ir::BlockId bb = k.blockOf(pc);
        EXPECT_TRUE(k.block(bb).contains(pc));
    }
}

TEST(KernelTest, DisassembleMentionsName)
{
    KernelBuilder b("dis");
    b.st(b.tid(), b.movi(0));
    ir::Kernel k = b.build();
    EXPECT_NE(k.disassemble().find("dis"), std::string::npos);
}

TEST(KernelBuilderTest, AppendsExitWhenMissing)
{
    KernelBuilder b("noexit");
    b.st(b.tid(), b.movi(0));
    ir::Kernel k = b.build();
    EXPECT_TRUE(k.instructions().back().isExit());
}

TEST(KernelBuilderTest, BarrierTerminatesBlock)
{
    KernelBuilder b("barrier");
    RegId t = b.tid();
    b.bar();
    b.st(t, t);
    ir::Kernel k = b.build();
    EXPECT_GE(k.blocks().size(), 2u);
    // The barrier block falls through to the next block.
    ir::BlockId bar_bb = k.blockOf(1);
    ASSERT_EQ(k.block(bar_bb).successors().size(), 1u);
}

TEST(CfgAnalysisTest, UnreachableBlockDetected)
{
    // jmp over a dead block.
    KernelBuilder b("dead");
    RegId t = b.tid();
    Label after = b.newLabel();
    b.jmp(after);
    b.st(t, t); // unreachable
    b.bind(after);
    b.st(t, t);
    ir::Kernel k = b.build();
    ir::CfgAnalysis cfg(k);
    ir::BlockId dead = k.blockOf(2);
    EXPECT_FALSE(cfg.reachable(dead));
    EXPECT_TRUE(cfg.reachable(0));
}

TEST(CfgAnalysisTest, ImmediatePostdominatorMatchesItsDefinition)
{
    // The precomputed answer must equal a search over the postdominator
    // sets: the first strict pdom p of b (by id) that strictly
    // postdominates no other strict pdom of b.
    std::vector<ir::Kernel> kernels = workloads::allRodinia();
    for (std::uint64_t seed = 1; seed <= 20; ++seed)
        kernels.push_back(workloads::randomKernel(seed));
    for (const ir::Kernel &k : kernels) {
        ir::CfgAnalysis cfg(k);
        for (ir::BlockId b = 0; b < k.blocks().size(); ++b) {
            ir::BlockId expect = ir::invalidBlock;
            const std::vector<ir::BlockId> pdoms = cfg.postdominatorsOf(b);
            for (ir::BlockId p : pdoms) {
                if (p == b)
                    continue;
                bool closest = true;
                for (ir::BlockId q : pdoms) {
                    if (q != b && q != p && cfg.postdominates(p, q))
                        closest = false;
                }
                if (closest) {
                    expect = p;
                    break;
                }
            }
            EXPECT_EQ(cfg.immediatePostdominator(b), expect)
                << k.name() << " block " << b;
        }
    }
}

TEST(InstructionTest, EvaluateChecksItsSourceCount)
{
    ir::Instruction mad(ir::Opcode::IMad, 4, {1, 2, 3});
    const ir::LaneValues a = lanes(2, 1), b = lanes(3, 0);
    const ir::LaneValues *two[] = {&a, &b};
    EXPECT_THROW(mad.evaluate(two, 2), std::out_of_range);
    EXPECT_THROW(mad.evaluate({a, b}), std::out_of_range);
    EXPECT_EQ(mad.evaluate({a, b, a})[5], 7u * 3u + 7u);
}

} // namespace
} // namespace regless
