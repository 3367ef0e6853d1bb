#include "serve/request_queue.hpp"

#include <utility>

#include "common/check.hpp"

namespace nitho::serve {

RequestQueue::RequestQueue(std::size_t capacity, obs::Counter* admitted)
    : capacity_(capacity), admitted_(admitted) {
  check(capacity >= 1, "RequestQueue capacity must be >= 1");
}

bool RequestQueue::push_locked(ServeRequest& req) {
  if (closed_) return false;
  items_.push_back(std::move(req));
  if (admitted_ != nullptr) admitted_->inc();
  return true;
}

bool RequestQueue::push(ServeRequest& req) {
  bool pushed;
  {
    UniqueLock lk(mu_);
    while (!closed_ && items_.size() >= capacity_) not_full_.wait(lk);
    pushed = push_locked(req);
  }
  // Notify after the lock drops so the woken consumer never stalls on mu_.
  if (pushed) not_empty_.notify_one();
  return pushed;
}

RequestQueue::PushResult RequestQueue::try_push(ServeRequest& req) {
  {
    LockGuard lk(mu_);
    // Closed wins over full: both can hold at once, and the caller must see
    // the terminal condition rather than retrying against a stopped server.
    if (closed_) return PushResult::kClosed;
    if (items_.size() >= capacity_) return PushResult::kFull;
    if (!push_locked(req)) return PushResult::kClosed;
  }
  not_empty_.notify_one();
  return PushResult::kOk;
}

RequestQueue::PopResult RequestQueue::pop(ServeRequest& out) {
  {
    UniqueLock lk(mu_);
    while (!closed_ && items_.empty()) not_empty_.wait(lk);
    if (items_.empty()) return PopResult::kClosed;
    out = std::move(items_.front());
    items_.pop_front();
  }
  not_full_.notify_one();
  return PopResult::kItem;
}

RequestQueue::PopResult RequestQueue::pop_until(
    ServeRequest& out, std::chrono::steady_clock::time_point deadline) {
  {
    UniqueLock lk(mu_);
    // Explicit wait loop (no predicate lambda — DESIGN.md §14.2), same
    // semantics as wait_until(lk, deadline, pred): on timeout the condition
    // gets one final check before kTimeout is reported.
    while (!closed_ && items_.empty()) {
      if (not_empty_.wait_until(lk, deadline) == std::cv_status::timeout) {
        if (closed_ || !items_.empty()) break;
        return PopResult::kTimeout;
      }
    }
    if (items_.empty()) return PopResult::kClosed;
    out = std::move(items_.front());
    items_.pop_front();
  }
  not_full_.notify_one();
  return PopResult::kItem;
}

void RequestQueue::close() {
  {
    LockGuard lk(mu_);
    closed_ = true;
  }
  not_full_.notify_all();
  not_empty_.notify_all();
}

bool RequestQueue::closed() const {
  LockGuard lk(mu_);
  return closed_;
}

std::size_t RequestQueue::depth() const {
  LockGuard lk(mu_);
  return items_.size();
}

}  // namespace nitho::serve
