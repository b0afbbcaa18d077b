// Persistent stage workers for the broker's publish pipeline.
//
// A StageSet owns a fixed set of named worker threads, each running a
// caller-provided loop body until the set is stopped. StageSet threads
// are pinned for the lifetime of the pipeline: they park on their
// stage's ingress ring (exec/ring_queue.hpp) and the only cross-thread
// traffic is ring tokens — no per-batch thread churn, no barriers.
//
// Lifecycle contract:
//   * start() launches every registered stage; idempotent.
//   * The loop body receives a `const std::atomic<bool>& stop` flag and
//     must return promptly once it reads true AND its ingress ring is
//     closed/drained (the pipeline closes rings before stopping).
//   * stop_and_join() flips the flag, runs the registered shutdown hook
//     (which closes the rings, waking parked stages), and joins. Safe to
//     call repeatedly and from the destructor.
//
// A StageSet with zero registered stages is valid and free: the pipeline's
// inline mode (no workers — the configuration a one-core machine gets by
// default) registers nothing and runs every stage on the caller thread.
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace psc::exec {

class StageSet {
 public:
  using StageBody = std::function<void(const std::atomic<bool>& stop)>;

  StageSet() = default;
  ~StageSet() { stop_and_join(); }

  StageSet(const StageSet&) = delete;
  StageSet& operator=(const StageSet&) = delete;

  /// Registers a stage loop. Must be called before start().
  void add_stage(std::string name, StageBody body) {
    stages_.push_back({std::move(name), std::move(body)});
  }

  /// Runs `hook` after the stop flag flips but before joining — the place
  /// to close the rings parked stages are blocked on.
  void on_stop(std::function<void()> hook) { stop_hook_ = std::move(hook); }

  [[nodiscard]] std::size_t stage_count() const noexcept {
    return stages_.size();
  }
  [[nodiscard]] bool running() const noexcept { return !threads_.empty(); }

  void start() {
    if (running() || stages_.empty()) return;
    stop_.store(false, std::memory_order_release);
    threads_.reserve(stages_.size());
    for (Stage& stage : stages_) {
      threads_.emplace_back([&stage, this] { stage.body(stop_); });
    }
  }

  void stop_and_join() {
    if (!running()) return;
    stop_.store(true, std::memory_order_release);
    if (stop_hook_) stop_hook_();
    for (std::thread& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    threads_.clear();
  }

 private:
  struct Stage {
    std::string name;
    StageBody body;
  };

  std::vector<Stage> stages_;
  std::vector<std::thread> threads_;
  std::function<void()> stop_hook_;
  std::atomic<bool> stop_{false};
};

}  // namespace psc::exec
