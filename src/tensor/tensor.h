#ifndef SLIME4REC_TENSOR_TENSOR_H_
#define SLIME4REC_TENSOR_TENSOR_H_

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

#include "common/macros.h"
#include "common/random.h"

namespace slime {

/// A dense, contiguous, row-major float32 tensor with value semantics and a
/// shared underlying buffer (copying a Tensor aliases its storage; use
/// Clone() for a deep copy). This is the storage substrate for the autograd
/// layer; it performs no differentiation itself.
///
/// Shapes use int64_t extents. A rank-0 tensor (shape {}) holds one scalar.
class Tensor {
 public:
  /// An undefined tensor; defined() is false, every accessor checks.
  Tensor() = default;

  /// Zero-initialised tensor of the given shape.
  explicit Tensor(std::vector<int64_t> shape);

  /// Rank-0 scalar.
  static Tensor Scalar(float v);

  /// Zeros/ones/constant of the given shape.
  static Tensor Zeros(std::vector<int64_t> shape);
  static Tensor Ones(std::vector<int64_t> shape);
  static Tensor Full(std::vector<int64_t> shape, float v);

  /// Tensor wrapping a copy of `values`; numel must match the shape.
  static Tensor FromVector(std::vector<int64_t> shape,
                           const std::vector<float>& values);

  /// Gaussian(0, stddev) initialised tensor.
  static Tensor Randn(std::vector<int64_t> shape, Rng* rng,
                      float stddev = 1.0f);

  /// Uniform [lo, hi) initialised tensor.
  static Tensor RandUniform(std::vector<int64_t> shape, Rng* rng, float lo,
                            float hi);

  bool defined() const { return data_ != nullptr; }

  const std::vector<int64_t>& shape() const { return shape_; }
  int64_t dim() const { return static_cast<int64_t>(shape_.size()); }

  /// Extent of dimension `i`; negative `i` counts from the end.
  int64_t size(int64_t i) const;

  int64_t numel() const { return numel_; }

  float* data() {
    SLIME_CHECK(defined());
    return data_->data() + offset_;
  }
  const float* data() const {
    SLIME_CHECK(defined());
    return data_->data() + offset_;
  }

  float& operator[](int64_t flat) {
    SLIME_CHECK(flat >= 0 && flat < numel_);
    return data()[flat];
  }
  float operator[](int64_t flat) const {
    SLIME_CHECK(flat >= 0 && flat < numel_);
    return data()[flat];
  }

  /// Multi-dimensional element access (rank must match index count).
  float& At(std::initializer_list<int64_t> idx);
  float At(std::initializer_list<int64_t> idx) const;

  /// Returns a tensor viewing the same buffer with a new shape. One extent
  /// may be -1 and is inferred. numel must be preserved.
  Tensor Reshape(std::vector<int64_t> shape) const;

  /// Deep copy.
  Tensor Clone() const;

  /// Sets every element.
  void Fill(float v);
  void Zero() { Fill(0.0f); }

  /// True if shapes are identical.
  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Whether this and `other` view the same buffer.
  bool SharesStorage(const Tensor& other) const {
    return data_ != nullptr && data_ == other.data_;
  }

  /// Whether this is the only Tensor viewing its buffer (no copy, view or
  /// saved alias could observe a write through it).
  bool UniqueStorage() const {
    return data_ != nullptr && data_.use_count() == 1;
  }

  /// "[2, 3, 4]" style rendering for diagnostics.
  std::string ShapeString() const;

  /// Flattens to std::vector for tests.
  std::vector<float> ToVector() const;

 private:
  std::shared_ptr<std::vector<float>> data_;
  std::vector<int64_t> shape_;
  int64_t numel_ = 0;
  int64_t offset_ = 0;
};

/// Product of extents; checks non-negativity.
int64_t ShapeNumel(const std::vector<int64_t>& shape);

/// Renders a shape like "[2, 3]".
std::string ShapeToString(const std::vector<int64_t>& shape);

}  // namespace slime

#endif  // SLIME4REC_TENSOR_TENSOR_H_
