#include "autograd/variable.h"

#include <unordered_set>

#include "tensor/tensor_ops.h"

namespace slime {
namespace autograd {

void AccumulateGrad(const std::shared_ptr<Node>& node, Tensor g) {
  if (!node || !node->requires_grad) return;
  SLIME_CHECK_MSG(g.shape() == node->shape,
                  "gradient shape " << g.ShapeString() << " != value shape "
                                    << ShapeToString(node->shape));
  if (!node->grad.defined()) {
    node->grad = g.UniqueStorage() ? std::move(g) : g.Clone();
  } else {
    ops::AddInPlace(&node->grad, g);
  }
}

Variable::Variable(Tensor value, bool requires_grad)
    : value_(std::make_shared<Tensor>(std::move(value))),
      node_(std::make_shared<Node>()) {
  node_->shape = value_->shape();
  node_->requires_grad = requires_grad;
}

const Tensor& Variable::value() const {
  SLIME_CHECK(defined());
  return *value_;
}

Tensor& Variable::mutable_value() {
  SLIME_CHECK(defined());
  return *value_;
}

const Tensor& Variable::grad() const {
  SLIME_CHECK(defined());
  if (!node_->grad.defined()) {
    node_->grad = Tensor::Zeros(node_->shape);
  }
  return node_->grad;
}

bool Variable::has_grad() const { return defined() && node_->grad.defined(); }

bool Variable::requires_grad() const {
  return defined() && node_->requires_grad;
}

void Variable::ZeroGrad() {
  SLIME_CHECK(defined());
  node_->grad = Tensor();
}

void Variable::Backward() const {
  SLIME_CHECK(defined());
  SLIME_CHECK_MSG(value_->numel() == 1,
                  "Backward() requires a scalar, got shape "
                      << value_->ShapeString());
  // Iterative post-order DFS to get a topological order (children after all
  // of their ancestors' processing). Traversal is pruned at nodes that do
  // not require grad: nothing upstream of them can receive gradient.
  std::vector<Node*> topo;
  std::unordered_set<Node*> visited;
  struct Frame {
    Node* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  if (node_->requires_grad) {
    stack.push_back({node_.get(), 0});
    visited.insert(node_.get());
  }
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      Node* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && !visited.count(p)) {
        visited.insert(p);
        stack.push_back({p, 0});
      }
    } else {
      // Parents without a closure: an earlier Backward() ran and released
      // it. Going on would silently leave the leaves behind it without
      // gradient.
      SLIME_CHECK_MSG(f.node->parents.empty() || f.node->backward_fn,
                      "Backward() reached a graph that an earlier Backward() "
                      "already consumed; run the forward pass again to "
                      "backpropagate a second time");
      topo.push_back(f.node);
      stack.pop_back();
    }
  }
  // topo is in post-order: parents before children. Seed the root and walk
  // children-first (reverse order). Once an op output has propagated its
  // gradient nothing reads it or its closure again, so both are released
  // here: saved activations and intermediate gradients die at last use
  // instead of when the whole graph does.
  AccumulateGrad(node_, Tensor::Ones(node_->shape));
  for (size_t i = topo.size(); i-- > 0;) {
    Node* n = topo[i];
    if (n->backward_fn && n->grad.defined()) {
      n->backward_fn(std::move(n->grad));
      n->backward_fn = nullptr;
      n->grad = Tensor();
    }
  }
}

namespace {
thread_local bool no_grad = false;
}  // namespace

NoGradScope::NoGradScope() : prev_(no_grad) { no_grad = true; }

NoGradScope::~NoGradScope() { no_grad = prev_; }

bool NoGradActive() { return no_grad; }

bool CanReuse(const Variable& v) {
  return no_grad && v.defined() && v.node().use_count() == 1 &&
         v.value().UniqueStorage();
}

Variable MakeOpVariable(Tensor value,
                        std::vector<std::shared_ptr<Node>> parents,
                        std::function<void(Tensor)> backward) {
  Variable v(std::move(value), false);
  if (no_grad) return v;
  bool any = false;
  for (const auto& p : parents) {
    if (p && p->requires_grad) {
      any = true;
      break;
    }
  }
  if (any) {
    v.node()->requires_grad = true;
    v.node()->parents = std::move(parents);
    v.node()->backward_fn = std::move(backward);
  }
  return v;
}

}  // namespace autograd
}  // namespace slime
