/**
 * @file
 * Unit tests for the tensor substrate: matrix mechanics, op semantics,
 * and cost-ledger accounting.
 */
#include <gtest/gtest.h>

#include "dbscore/common/error.h"
#include "dbscore/tensor/matrix.h"
#include "dbscore/tensor/ops.h"

namespace dbscore {
namespace {

TEST(MatrixTest, ConstructionAndAccess)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.ByteSize(), 24u);
    m.At(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m.At(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(m.RowPtr(1)[2], 5.0f);
}

TEST(MatrixTest, RejectsBadStorage)
{
    EXPECT_THROW(Matrix(2, 2, std::vector<float>(3)), InvalidArgument);
}

TEST(OpsTest, MatMulKnownResult)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
    Matrix c = MatMul(a, b);
    EXPECT_FLOAT_EQ(c.At(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c.At(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c.At(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c.At(1, 1), 154.0f);
}

TEST(OpsTest, MatMulShapeMismatchThrows)
{
    Matrix a(2, 3);
    Matrix b(2, 2);
    EXPECT_THROW(MatMul(a, b), InvalidArgument);
}

TEST(OpsTest, MatMulRecordsCost)
{
    Matrix a(4, 8);
    Matrix b(8, 2);
    CostLedger ledger;
    MatMul(a, b, &ledger);
    const OpCost& cost = ledger.Cost(OpKind::kGemm);
    EXPECT_EQ(cost.flops, 2u * 4 * 8 * 2);
    EXPECT_EQ(cost.bytes_read, (4u * 8 + 8u * 2) * sizeof(float));
    EXPECT_EQ(cost.bytes_written, 4u * 2 * sizeof(float));
    EXPECT_EQ(cost.invocations, 1u);
}

TEST(OpsTest, LessEqualRowSemantics)
{
    Matrix x(2, 2, {1.0f, 5.0f, 3.0f, 2.0f});
    Matrix th(1, 2, {2.0f, 2.0f});
    Matrix out = LessEqualRow(x, th);
    EXPECT_FLOAT_EQ(out.At(0, 0), 1.0f);  // 1 <= 2
    EXPECT_FLOAT_EQ(out.At(0, 1), 0.0f);  // 5 > 2
    EXPECT_FLOAT_EQ(out.At(1, 0), 0.0f);
    EXPECT_FLOAT_EQ(out.At(1, 1), 1.0f);  // boundary: 2 <= 2
    EXPECT_THROW(LessEqualRow(x, Matrix(1, 3)), InvalidArgument);
}

TEST(OpsTest, EqualsRowSemantics)
{
    Matrix x(1, 3, {1.0f, 2.0f, 3.0f});
    Matrix e(1, 3, {1.0f, 0.0f, 3.0f});
    Matrix out = EqualsRow(x, e);
    EXPECT_FLOAT_EQ(out.At(0, 0), 1.0f);
    EXPECT_FLOAT_EQ(out.At(0, 1), 0.0f);
    EXPECT_FLOAT_EQ(out.At(0, 2), 1.0f);
}

TEST(OpsTest, GatherColumns)
{
    Matrix x(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix g = GatherColumns(x, {2, 0, 2});
    EXPECT_EQ(g.cols(), 3u);
    EXPECT_FLOAT_EQ(g.At(0, 0), 3.0f);
    EXPECT_FLOAT_EQ(g.At(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(g.At(1, 2), 6.0f);
    EXPECT_THROW(GatherColumns(x, {3}), InvalidArgument);
    EXPECT_THROW(GatherColumns(x, {-1}), InvalidArgument);
}

TEST(OpsTest, ArgMaxTieBreaksLow)
{
    Matrix x(3, 3, {0, 1, 1,   // tie between 1 and 2 -> 1
                    2, 1, 0,
                    0, 0, 5});
    auto arg = ArgMaxRows(x);
    EXPECT_EQ(arg[0], 1);
    EXPECT_EQ(arg[1], 0);
    EXPECT_EQ(arg[2], 2);
    EXPECT_THROW(ArgMaxRows(Matrix(2, 0)), InvalidArgument);
}

TEST(OpsTest, AddAndScale)
{
    Matrix a(1, 2, {1, 2});
    Matrix b(1, 2, {10, 20});
    Matrix sum = Add(a, b);
    EXPECT_FLOAT_EQ(sum.At(0, 1), 22.0f);
    Matrix scaled = Scale(sum, 0.5f);
    EXPECT_FLOAT_EQ(scaled.At(0, 0), 5.5f);
    EXPECT_THROW(Add(a, Matrix(2, 2)), InvalidArgument);
}

TEST(CostLedgerTest, AccumulatesAcrossOps)
{
    CostLedger ledger;
    Matrix a(8, 8);
    Matrix b(8, 8);
    MatMul(a, b, &ledger);
    MatMul(a, b, &ledger);
    Add(a, b, &ledger);
    EXPECT_EQ(ledger.Cost(OpKind::kGemm).invocations, 2u);
    EXPECT_EQ(ledger.Cost(OpKind::kElementwise).invocations, 1u);
    EXPECT_EQ(ledger.TotalInvocations(), 3u);
    OpCost total = ledger.Total();
    EXPECT_GT(total.flops, 0u);
    ledger.Clear();
    EXPECT_EQ(ledger.TotalInvocations(), 0u);
}

TEST(CostLedgerTest, SummaryMentionsUsedKinds)
{
    CostLedger ledger;
    Matrix a(2, 2);
    Matrix b(2, 2);
    MatMul(a, b, &ledger);
    std::string summary = ledger.Summary();
    EXPECT_NE(summary.find("gemm"), std::string::npos);
    EXPECT_EQ(summary.find("gather"), std::string::npos);
}

/** Large multithreaded GEMM agrees with a naive reference. */
TEST(OpsTest, LargeMatMulMatchesNaive)
{
    const std::size_t m = 64;
    const std::size_t k = 96;
    const std::size_t n = 48;
    Matrix a(m, k);
    Matrix b(k, n);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a.data()[i] = static_cast<float>((i * 7) % 5) - 2.0f;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
        b.data()[i] = static_cast<float>((i * 3) % 7) - 3.0f;
    }
    Matrix c = MatMul(a, b);
    for (std::size_t i = 0; i < m; i += 13) {
        for (std::size_t j = 0; j < n; j += 11) {
            float expected = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk) {
                expected += a.At(i, kk) * b.At(kk, j);
            }
            ASSERT_FLOAT_EQ(c.At(i, j), expected);
        }
    }
}

}  // namespace
}  // namespace dbscore
