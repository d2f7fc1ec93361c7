#include "tensor/tensor.h"

#include <gtest/gtest.h>

#include "reference_ops.h"
#include "tensor/tensor_ops.h"

namespace slime {
namespace {

TEST(TensorTest, ZerosShapeAndValues) {
  Tensor t = Tensor::Zeros({2, 3});
  EXPECT_EQ(t.numel(), 6);
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 2);
  EXPECT_EQ(t.size(1), 3);
  EXPECT_EQ(t.size(-1), 3);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(TensorTest, ScalarRankZero) {
  Tensor s = Tensor::Scalar(3.5f);
  EXPECT_EQ(s.dim(), 0);
  EXPECT_EQ(s.numel(), 1);
  EXPECT_FLOAT_EQ(s[0], 3.5f);
}

TEST(TensorTest, FromVectorAndAt) {
  Tensor t = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ((t.At({0, 0})), 1.0f);
  EXPECT_FLOAT_EQ((t.At({0, 1})), 2.0f);
  EXPECT_FLOAT_EQ((t.At({1, 0})), 3.0f);
  EXPECT_FLOAT_EQ((t.At({1, 1})), 4.0f);
}

TEST(TensorTest, CopySharesStorageCloneDoesNot) {
  Tensor a = Tensor::Ones({4});
  Tensor b = a;
  b[0] = 7.0f;
  EXPECT_FLOAT_EQ(a[0], 7.0f);
  EXPECT_TRUE(a.SharesStorage(b));
  Tensor c = a.Clone();
  c[1] = 9.0f;
  EXPECT_FLOAT_EQ(a[1], 1.0f);
  EXPECT_FALSE(a.SharesStorage(c));
}

TEST(TensorTest, ReshapeInfersExtent) {
  Tensor t = Tensor::Zeros({2, 6});
  Tensor r = t.Reshape({3, -1});
  EXPECT_EQ(r.size(0), 3);
  EXPECT_EQ(r.size(1), 4);
  EXPECT_TRUE(t.SharesStorage(r));
}

TEST(TensorOpsTest, AddSameShape) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = ops::Add(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 22, 33}));
}

TEST(TensorOpsTest, BroadcastRowVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3}, {10, 20, 30});
  Tensor c = ops::Add(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(TensorOpsTest, BroadcastColumnVector) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({2, 1}, {100, 200});
  Tensor c = ops::Mul(a, b);
  EXPECT_EQ(c.ToVector(),
            (std::vector<float>{100, 200, 300, 800, 1000, 1200}));
}

TEST(TensorOpsTest, ReduceToColumn) {
  Tensor g = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = ops::ReduceTo(g, {2, 1});
  EXPECT_EQ(r.ToVector(), (std::vector<float>{6, 15}));
}

TEST(TensorOpsTest, ReduceToRow) {
  Tensor g = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = ops::ReduceTo(g, {3});
  EXPECT_EQ(r.ToVector(), (std::vector<float>{5, 7, 9}));
}

TEST(TensorOpsTest, MatMulKnownValues) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = ops::MatMul(a, b);
  EXPECT_EQ(c.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(TensorOpsTest, MatMulTransBMatchesMatMul) {
  Rng rng(1);
  Tensor a = Tensor::Randn({4, 5}, &rng);
  Tensor b = Tensor::Randn({6, 5}, &rng);
  Tensor expected = ops::MatMul(a, reference::TransposeLastTwo(b));
  Tensor got = ops::MatMulTransB(a, b);
  ASSERT_TRUE(expected.SameShape(got));
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(expected[i], got[i], 1e-5);
  }
}

TEST(TensorOpsTest, MatMulTransAMatchesMatMul) {
  Rng rng(2);
  Tensor a = Tensor::Randn({5, 4}, &rng);
  Tensor b = Tensor::Randn({5, 6}, &rng);
  Tensor expected = ops::MatMul(reference::TransposeLastTwo(a), b);
  Tensor got = ops::MatMulTransA(a, b);
  ASSERT_TRUE(expected.SameShape(got));
  for (int64_t i = 0; i < got.numel(); ++i) {
    EXPECT_NEAR(expected[i], got[i], 1e-5);
  }
}

TEST(TensorOpsTest, BatchMatMul) {
  Rng rng(3);
  Tensor a = Tensor::Randn({3, 2, 4}, &rng);
  Tensor b = Tensor::Randn({3, 4, 5}, &rng);
  Tensor c = ops::BatchMatMul(a, b);
  EXPECT_EQ(c.shape(), (std::vector<int64_t>{3, 2, 5}));
  // Check one batch element against the 2-D kernel.
  Tensor a1({2, 4});
  Tensor b1({4, 5});
  std::copy(a.data() + 8, a.data() + 16, a1.data());
  std::copy(b.data() + 20, b.data() + 40, b1.data());
  Tensor c1 = ops::MatMul(a1, b1);
  for (int64_t i = 0; i < 10; ++i) {
    EXPECT_NEAR(c[10 + i], c1[i], 1e-5);
  }
}

TEST(TensorOpsTest, SumAxisMiddle) {
  Tensor a = Tensor::FromVector({2, 2, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor s = ops::SumAxis(a, 1, false);
  EXPECT_EQ(s.shape(), (std::vector<int64_t>{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{4, 6, 12, 14}));
  Tensor k = ops::SumAxis(a, 1, true);
  EXPECT_EQ(k.shape(), (std::vector<int64_t>{2, 1, 2}));
}

TEST(TensorOpsTest, TransposeLastTwoBatched) {
  Tensor a = Tensor::FromVector({2, 2, 3}, {1, 2, 3, 4, 5, 6,
                                            7, 8, 9, 10, 11, 12});
  Tensor t = reference::TransposeLastTwo(a);
  EXPECT_EQ(t.shape(), (std::vector<int64_t>{2, 3, 2}));
  EXPECT_FLOAT_EQ((t.At({0, 0, 1})), 4.0f);
  EXPECT_FLOAT_EQ((t.At({1, 2, 0})), 9.0f);
}

TEST(TensorOpsTest, DotAndNorm) {
  Tensor a = Tensor::FromVector({3}, {3, 4, 0});
  EXPECT_DOUBLE_EQ(ops::Dot(a, a), 25.0);
  EXPECT_DOUBLE_EQ(ops::Norm(a), 5.0);
}

TEST(RngTest, DeterministicStreams) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.NextUint64(), b.NextUint64());
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const uint64_t v = rng.Uniform(7);
    EXPECT_LT(v, 7u);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(7);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.Gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

}  // namespace
}  // namespace slime
