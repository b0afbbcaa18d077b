#include "procs.hpp"

#include <sched.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace perfbench {

namespace {

/// Value of `key` (e.g. "PPid:") in /proc/<pid>/status, or "" if absent.
std::string status_field(pid_t pid, const std::string& key) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    std::istringstream fields(line);
    std::string name;
    std::string value;
    fields >> name >> value;
    if (name == key) return value;
  }
  return "";
}

void set_cpu(pid_t tid, int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  (void)sched_setaffinity(tid, sizeof one, &one);  // gone already: ignore
}

}  // namespace

std::vector<pid_t> broker_children() {
  const std::string self = std::to_string(getpid());
  std::vector<pid_t> pids;
  std::error_code error;
  for (const auto& entry : std::filesystem::directory_iterator("/proc", error)) {
    const std::string name = entry.path().filename().string();
    if (name.find_first_not_of("0123456789") != std::string::npos) continue;
    const auto pid = static_cast<pid_t>(std::stol(name));
    if (status_field(pid, "PPid:") == self && status_field(pid, "Name:") == "psc_brokerd") {
      pids.push_back(pid);
    }
  }
  return pids;
}

double peak_rss_kib(pid_t pid) {
  const std::string value = status_field(pid, "VmHWM:");
  return value.empty() ? -1.0 : std::stod(value);
}

CpuRotation::CpuRotation() : main_tid_(gettid()) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed)) cpus_.push_back(cpu);
    }
  }
  if (cpus_.empty()) return;
  place_all(cpus_.back());
  if (cpus_.size() > 1) thread_ = std::thread([this] { run(); });
}

CpuRotation::~CpuRotation() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void CpuRotation::place_all(int cpu) {
  set_cpu(main_tid_, cpu);
  for (const pid_t pid : broker_children()) {
    std::error_code error;
    const std::string tasks = "/proc/" + std::to_string(pid) + "/task";
    for (const auto& task : std::filesystem::directory_iterator(tasks, error)) {
      set_cpu(static_cast<pid_t>(std::stol(task.path().filename().string())), cpu);
    }
  }
}

void CpuRotation::run() {
  std::size_t next = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  while (!wake_.wait_for(lock, std::chrono::milliseconds(200), [this] { return stop_; })) {
    lock.unlock();
    place_all(cpus_[next]);
    next = (next + 1) % cpus_.size();
    lock.lock();
  }
}

}  // namespace perfbench
