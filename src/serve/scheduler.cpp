#include "serve/scheduler.h"

#include <algorithm>

namespace cdst::serve {

void FairScheduler::add(SessionId id, int weight) {
  Entry entry;
  entry.id = id;
  entry.weight = static_cast<double>(std::max(1, weight));
  entry.start = virtual_time_;
  entries_.push_back(entry);
}

void FairScheduler::remove(SessionId id) {
  std::erase_if(entries_, [id](const Entry& e) { return e.id == id; });
}

void FairScheduler::set_runnable(SessionId id, bool runnable,
                                 std::uint64_t cost) {
  for (Entry& e : entries_) {
    if (e.id != id) continue;
    if (runnable && !e.runnable) e.start = std::max(e.start, virtual_time_);
    e.runnable = runnable;
    e.cost = cost;
    return;
  }
}

std::size_t FairScheduler::runnable_count() const {
  return static_cast<std::size_t>(std::count_if(
      entries_.begin(), entries_.end(),
      [](const Entry& e) { return e.runnable; }));
}

std::optional<SessionId> FairScheduler::pick() {
  Entry* best = nullptr;
  for (Entry& e : entries_) {
    // Strictly less: an equal finish tag keeps the earlier-admitted entry.
    if (e.runnable && (best == nullptr || e.finish() < best->finish())) {
      best = &e;
    }
  }
  if (best == nullptr) return std::nullopt;
  virtual_time_ = std::max(virtual_time_, best->start);
  best->start = best->finish();
  return best->id;
}

}  // namespace cdst::serve
