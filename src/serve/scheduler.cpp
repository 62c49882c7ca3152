#include "serve/scheduler.h"

#include <algorithm>

namespace cdst::serve {

void FairScheduler::add(SessionId id, int weight) {
  Entry entry;
  entry.id = id;
  entry.weight = std::max(1, weight);
  // A fresh entry starts with a full credit line so the cursor can serve it
  // without first cycling past it (matters only when it is added exactly at
  // the cursor position; replenish-on-arrival covers every later cycle).
  entry.credit = entry.weight;
  entries_.push_back(entry);
}

void FairScheduler::remove(SessionId id) {
  const auto it =
      std::find_if(entries_.begin(), entries_.end(),
                   [id](const Entry& e) { return e.id == id; });
  if (it == entries_.end()) return;
  const std::size_t index = static_cast<std::size_t>(it - entries_.begin());
  entries_.erase(it);
  if (entries_.empty()) {
    cursor_ = 0;
    return;
  }
  if (index < cursor_) --cursor_;
  if (cursor_ >= entries_.size()) cursor_ = 0;
}

void FairScheduler::set_runnable(SessionId id, bool runnable) {
  for (Entry& e : entries_) {
    if (e.id == id) {
      e.runnable = runnable;
      return;
    }
  }
}

std::size_t FairScheduler::runnable_count() const {
  std::size_t count = 0;
  for (const Entry& e : entries_) {
    if (e.runnable) ++count;
  }
  return count;
}

std::optional<SessionId> FairScheduler::pick() {
  if (runnable_count() == 0) return std::nullopt;

  // Deficit round-robin: serve the entry under the cursor while it has
  // credit, otherwise advance and refill the entry the cursor arrives at.
  // Bounded: within size()+1 hops the cursor reaches a runnable entry with
  // a freshly refilled credit >= 1.
  for (std::size_t hops = 0; hops <= entries_.size() + 1; ++hops) {
    Entry& e = entries_[cursor_];
    if (e.runnable && e.credit > 0) {
      --e.credit;
      return e.id;
    }
    cursor_ = (cursor_ + 1) % entries_.size();
    entries_[cursor_].credit = entries_[cursor_].weight;
  }
  return std::nullopt;  // unreachable: guarded by runnable_count() above
}

}  // namespace cdst::serve
