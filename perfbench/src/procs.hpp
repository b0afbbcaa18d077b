// This process's psc_brokerd children, found through /proc, and the CPU
// rotation that moves them together with this process.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

namespace perfbench {

/// Pids of this process's children whose command name is psc_brokerd.
[[nodiscard]] std::vector<pid_t> broker_children();

/// Peak resident set (VmHWM) of `pid` in KiB, or -1 when unreadable.
[[nodiscard]] double peak_rss_kib(pid_t pid);

/// Keeps this process's main thread and every broker child on one CPU at a
/// time, moving all of them to the next allowed CPU every 200 ms.
///
/// One op in flight makes each cascade a sequence of hops, so one CPU loses
/// no parallelism the closed loop could use, and sharing it removes
/// cross-CPU wake-ups, whose cost on a virtual machine is mostly the host's
/// scheduling noise. Moving on every period spreads a run over all CPUs, so
/// a CPU slowed for a while by another tenant weighs on every run alike
/// instead of on the runs that happened to be pinned to it.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

 private:
  void place_all(int cpu);
  void run();

  std::vector<int> cpus_;
  pid_t main_tid_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  ///< guarded by mutex_
  std::thread thread_;  ///< last: starts after the members it reads
};

}  // namespace perfbench
