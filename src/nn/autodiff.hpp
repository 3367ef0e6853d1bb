#pragma once
// Define-by-run reverse-mode automatic differentiation.
//
// A Var is a shared node holding a value tensor, a lazily allocated gradient
// and a closure that scatters the node's gradient into its inputs.  Complex
// tensors are real tensors with trailing dim 2, which makes real-valued
// reverse mode automatically Wirtinger-correct for the complex layers
// (DESIGN.md §5).

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "nn/tensor.hpp"

namespace nitho::nn {

struct Node;
using Var = std::shared_ptr<Node>;

struct Node {
  Tensor value;
  Tensor grad;  // empty until ensure_grad()
  bool requires_grad = false;
  std::vector<Var> inputs;
  std::function<void(Node&)> backward_fn;  // may be empty (leaf / constant)
  const char* op = "leaf";

  /// Allocates a zero gradient of the value's shape if not present.
  Tensor& ensure_grad();
};

/// Creates a leaf node (parameter when requires_grad, constant otherwise).
Var make_leaf(Tensor value, bool requires_grad = false);

/// Creates an interior node; requires_grad is inherited from the inputs and
/// backward_fn is dropped when nothing upstream needs gradients.
Var make_node(Tensor value, std::vector<Var> inputs,
              std::function<void(Node&)> backward_fn, const char* op);

/// Per-op timing sink for backward(): receives the op name and the wall
/// time of every vjp the pass runs.  Timing only — the arithmetic is the
/// same with or without one.
class VjpTimer {
 public:
  virtual ~VjpTimer() = default;
  virtual void record(const char* op, double seconds) = 0;
};

/// Reverse pass from a scalar root: seeds d(root)/d(root) = 1 and pushes
/// gradients through the graph in reverse topological order.  With a timer
/// each vjp is timed and reported; without one (the default) the cost is
/// one branch per node.
void backward(const Var& root, VjpTimer* timer = nullptr);

/// Recycles graph storage across training steps (DESIGN.md §8).
///
/// A training loop rebuilds an identically shaped graph every step; without
/// reuse that is one heap allocation per node shell plus one per value /
/// gradient tensor, `epochs * n / batch` times over.  While a
/// GraphArena::Scope is active, make_leaf / make_node draw Node shells from
/// the arena, and ensure_grad / arena_tensor hand out tensor buffers
/// reclaimed from the previous step's graph, so steady-state steps allocate
/// (almost) nothing.
///
/// Contract: reset() reclaims every node handed out since the previous
/// reset(), so the caller must have dropped all references into that graph
/// first (the trainer drops its loss root before resetting).  Nodes that are
/// still referenced externally are evicted from the pool instead of being
/// recycled; their values stay intact, which keeps long-lived constant
/// leaves (e.g. a model's cached coordinate encoding) safe to create inside
/// a scope.  Arenas are single-threaded: one arena per training loop, and
/// the active scope is thread-local.
class GraphArena {
 public:
  /// Reclaims the previous step's node shells and tensor buffers.
  void reset();

  /// Pooled node shells / how many tensor buffers were re-issued (stats for
  /// tests and the throughput bench).
  std::size_t node_capacity() const { return nodes_.size(); }
  std::size_t tensors_reused() const { return reused_; }

  /// RAII activation: while alive, allocation hooks in this translation
  /// unit route through the arena.  Scopes do not nest across arenas.
  class Scope {
   public:
    explicit Scope(GraphArena& arena);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    GraphArena* prev_;
  };

 private:
  friend Var make_leaf(Tensor, bool);
  friend Var make_node(Tensor, std::vector<Var>, std::function<void(Node&)>,
                       const char*);
  friend Tensor arena_tensor(std::vector<int>, bool);
  friend struct Node;

  Var alloc_node();
  /// A buffer of matching element count from the free list (reshaped), or
  /// an empty tensor when none fits.
  Tensor take_buffer(const std::vector<int>& shape);
  void reclaim(Tensor&& t);

  std::vector<Var> nodes_;   ///< pool; [0, live_) are handed out
  std::size_t live_ = 0;
  std::vector<Tensor> buffers_;
  std::size_t reused_ = 0;
};

/// Allocates a tensor of the given shape, recycling a reclaimed buffer from
/// the active arena when one matches (plain `Tensor(shape)` otherwise).
/// With `zeroed` the result is all zeros like a fresh Tensor; pass
/// zeroed = false only when the caller overwrites every element.
Tensor arena_tensor(std::vector<int> shape, bool zeroed = true);

/// Clears gradients of the given parameters (keeps allocations).
void zero_grad(std::span<const Var> params);

/// Total number of scalar elements across parameters.
std::int64_t parameter_count(std::span<const Var> params);

}  // namespace nitho::nn
