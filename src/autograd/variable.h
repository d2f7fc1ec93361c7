#ifndef SLIME4REC_AUTOGRAD_VARIABLE_H_
#define SLIME4REC_AUTOGRAD_VARIABLE_H_

#include <functional>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace slime {
namespace autograd {

/// Who owns a value. A Variable's value lives in one block shared by that
/// Variable and its copies, and by nothing else: it is freed when the last
/// copy goes. The graph is made of Nodes, and a Node holds no value, only
/// gradient bookkeeping (shape, gradient, parents, closure); a child's
/// `parents` keep the parent's Node, never its value. So an op output that
/// no backward closure reads dies as soon as the forward code drops its last
/// Variable, and one that a closure does read stays alive in that closure
/// until Backward() runs the closure and releases it.
///
/// The op-author rule: a backward closure captures the Tensors it reads; it
/// never reads a parent node's value (Node has none). A parent's shape is
/// `Node::shape`.

/// A node in the dynamically-built computation graph. Users interact with
/// Variable (a shared handle); Node is exposed so operation implementations
/// in ops.cc can build graphs.
struct Node {
  /// Shape of the value, recorded when the Variable was made: gradients are
  /// checked against it after the value itself may have been freed.
  std::vector<int64_t> shape;
  /// Gradient of the final scalar loss w.r.t. the value; set by
  /// AccumulateGrad on first touch during the backward pass. Backward()
  /// releases it again on op outputs once it has been propagated; only
  /// leaves keep theirs.
  Tensor grad;
  bool requires_grad = false;
  /// Parents (operation inputs). Only set on op outputs.
  std::vector<std::shared_ptr<Node>> parents;
  /// Propagates `grad` into the parents, reading only the Tensors it
  /// captured. Null on leaves, and reset on op outputs by the Backward()
  /// that ran it (parents without a backward_fn mark a consumed graph).
  std::function<void(const Tensor& grad_out)> backward_fn;
};

/// RAII scope that turns graph building off on the current thread: inside
/// it, MakeOpVariable returns a bare value node with no parents and no
/// backward closure, so every activation is freed when its last consumer
/// returns. Scopes nest; each restores the state it found. Other threads
/// are unaffected.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool prev_;
};

/// Adds `g` into `node->grad`. On first touch the node adopts `g`'s buffer
/// when no other Tensor shares it (a closure's local passed with std::move)
/// and keeps a copy otherwise (a shared upstream gradient, a view of one).
/// No-op when the node does not require grad. `g` must have the node's
/// recorded shape.
void AccumulateGrad(const std::shared_ptr<Node>& node, Tensor g);

/// A differentiable tensor: a shared handle to a value and its graph Node.
/// Copying a Variable aliases both. Default-constructed Variables are
/// undefined.
class Variable {
 public:
  Variable() = default;

  /// Wraps `value` as a graph leaf.
  explicit Variable(Tensor value, bool requires_grad = false);

  bool defined() const { return node_ != nullptr; }

  const Tensor& value() const;
  /// Mutable access for optimizers (in-place parameter updates). A
  /// reassignment must keep the shape the node recorded.
  Tensor& mutable_value();

  /// Gradient accumulated by the last Backward(); zeros-shaped if the
  /// backward pass never reached this node.
  const Tensor& grad() const;
  bool has_grad() const;

  bool requires_grad() const;

  /// Clears the accumulated gradient (optimizer step boundary).
  void ZeroGrad();

  /// Runs reverse-mode differentiation from this scalar (numel == 1)
  /// variable, accumulating into every reachable requires-grad leaf.
  /// Consumes the graph: each op output's backward closure (with the
  /// tensors it saved) and gradient are released as soon as it has run,
  /// so a graph can be backpropagated once; a Backward() that reaches a
  /// consumed op output is a SLIME_CHECK failure.
  void Backward() const;

  const std::shared_ptr<Node>& node() const { return node_; }

  /// Shorthand accessors.
  const std::vector<int64_t>& shape() const { return value().shape(); }
  int64_t numel() const { return value().numel(); }
  int64_t size(int64_t i) const { return value().size(i); }

 private:
  friend Variable MakeOpVariable(Tensor value,
                                 std::vector<std::shared_ptr<Node>> parents,
                                 std::function<void(const Tensor&)> backward);

  std::shared_ptr<Tensor> value_;
  std::shared_ptr<Node> node_;
};

/// Builds an op-output Variable; requires_grad is inferred from parents and
/// `backward` is dropped when no parent needs gradients or a NoGradScope is
/// active on this thread.
Variable MakeOpVariable(Tensor value,
                        std::vector<std::shared_ptr<Node>> parents,
                        std::function<void(const Tensor&)> backward);

/// True inside a NoGradScope on this thread.
bool NoGradActive();

/// Whether an op may write its result over `v`'s buffer: a NoGradScope is
/// active on this thread, `v` is the only handle on its node (so also on
/// its value: every copy of a Variable holds both), and no other Tensor
/// shares its storage. Callers pass operands they give up (moved in)
/// and never read them again.
bool CanReuse(const Variable& v);

/// Convenience leaf constructors.
inline Variable Constant(Tensor t) { return Variable(std::move(t), false); }
inline Variable Param(Tensor t) { return Variable(std::move(t), true); }

}  // namespace autograd
}  // namespace slime

#endif  // SLIME4REC_AUTOGRAD_VARIABLE_H_
