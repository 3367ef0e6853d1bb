#include "nn/autodiff.hpp"

#include <chrono>
#include <unordered_set>

#include "common/check.hpp"

namespace nitho::nn {
namespace {

thread_local GraphArena* g_active_arena = nullptr;

}  // namespace

GraphArena::Scope::Scope(GraphArena& arena) : prev_(g_active_arena) {
  g_active_arena = &arena;
}

GraphArena::Scope::~Scope() { g_active_arena = prev_; }

Var GraphArena::alloc_node() {
  if (live_ < nodes_.size()) return nodes_[live_++];
  nodes_.push_back(std::make_shared<Node>());
  ++live_;
  return nodes_.back();
}

Tensor GraphArena::take_buffer(const std::vector<int>& shape) {
  const std::int64_t want = shape_numel(shape);
  for (std::size_t i = buffers_.size(); i-- > 0;) {
    if (buffers_[i].numel() == want) {
      Tensor t = std::move(buffers_[i]);
      buffers_.erase(buffers_.begin() + static_cast<std::ptrdiff_t>(i));
      t.reset_shape(shape);
      ++reused_;
      return t;
    }
  }
  return Tensor{};
}

void GraphArena::reclaim(Tensor&& t) {
  // Bounded: a fixed-shape training step reclaims the same buffer set every
  // reset, so the cap only guards against pathological shape churn.
  if (t.numel() > 0 && buffers_.size() < 256) buffers_.push_back(std::move(t));
}

void GraphArena::reset() {
  // Pass 1: cut the graph edges so interior reference counts collapse to
  // the pool's own handle.
  for (std::size_t i = 0; i < live_; ++i) {
    nodes_[i]->inputs.clear();
    nodes_[i]->backward_fn = nullptr;
  }
  // Pass 2: recycle what is now exclusively pool-owned; evict (but leave
  // intact) anything the caller still holds, e.g. cached constant leaves.
  for (std::size_t i = 0; i < live_; ++i) {
    if (nodes_[i].use_count() != 1) {
      nodes_[i] = std::make_shared<Node>();
      continue;
    }
    Node& n = *nodes_[i];
    reclaim(std::move(n.value));
    reclaim(std::move(n.grad));
    n.value = Tensor{};
    n.grad = Tensor{};
    n.requires_grad = false;
    n.op = "leaf";
  }
  live_ = 0;
}

Tensor arena_tensor(std::vector<int> shape, bool zeroed) {
  if (g_active_arena != nullptr && shape_numel(shape) > 0) {
    Tensor t = g_active_arena->take_buffer(shape);
    if (t.numel() > 0) {
      if (zeroed) t.fill(0.0f);
      return t;
    }
  }
  return Tensor(std::move(shape));
}

Tensor& Node::ensure_grad() {
  if (grad.numel() != value.numel()) grad = arena_tensor(value.shape());
  return grad;
}

Var make_leaf(Tensor value, bool requires_grad) {
  auto n = g_active_arena ? g_active_arena->alloc_node()
                          : std::make_shared<Node>();
  n->value = std::move(value);
  n->requires_grad = requires_grad;
  return n;
}

Var make_node(Tensor value, std::vector<Var> inputs,
              std::function<void(Node&)> backward_fn, const char* op) {
  auto n = g_active_arena ? g_active_arena->alloc_node()
                          : std::make_shared<Node>();
  n->value = std::move(value);
  n->op = op;
  for (const Var& in : inputs) {
    check(in != nullptr, "null input to op");
    n->requires_grad = n->requires_grad || in->requires_grad;
  }
  if (n->requires_grad) {
    n->inputs = std::move(inputs);
    n->backward_fn = std::move(backward_fn);
  }
  return n;
}

namespace {

// Iterative post-order DFS over nodes that require gradients.
void topo_sort(const Var& root, std::vector<Node*>& order) {
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack;
  if (!root->requires_grad) return;
  stack.emplace_back(root.get(), 0);
  visited.insert(root.get());
  while (!stack.empty()) {
    auto& [node, next] = stack.back();
    if (next < node->inputs.size()) {
      Node* child = node->inputs[next++].get();
      if (child->requires_grad && !visited.count(child)) {
        visited.insert(child);
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
}

}  // namespace

void backward(const Var& root, VjpTimer* timer) {
  check(root != nullptr, "backward of null var");
  check(root->value.numel() == 1, "backward requires a scalar root");
  if (!root->requires_grad) return;
  std::vector<Node*> order;
  topo_sort(root, order);
  root->ensure_grad();
  root->grad[0] = 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* n = *it;
    if (!n->backward_fn || n->grad.numel() != n->value.numel()) continue;
    if (timer == nullptr) {
      n->backward_fn(*n);
      continue;
    }
    const auto t0 = std::chrono::steady_clock::now();
    n->backward_fn(*n);
    timer->record(n->op, std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count());
  }
}

void zero_grad(std::span<const Var> params) {
  for (const Var& p : params) {
    if (p && p->grad.numel() > 0) p->grad.fill(0.0f);
  }
}

std::int64_t parameter_count(std::span<const Var> params) {
  std::int64_t total = 0;
  for (const Var& p : params) {
    if (p) total += p->value.numel();
  }
  return total;
}

}  // namespace nitho::nn
