#include "rtos/ipc.h"

#include <algorithm>

namespace delta::rtos {

void WaitList::remove(TaskId t) {
  std::erase_if(entries_, [t](const Entry& e) { return e.task == t; });
}

TaskId WaitList::pop() {
  if (entries_.empty()) return kNoTask;
  auto best = std::min_element(entries_.begin(), entries_.end(),
                               [](const Entry& a, const Entry& b) {
                                 if (a.prio != b.prio) return a.prio < b.prio;
                                 return a.seq < b.seq;
                               });
  const TaskId t = best->task;
  entries_.erase(best);
  return t;
}

std::optional<Priority> WaitList::top_priority() const {
  if (entries_.empty()) return std::nullopt;
  return std::min_element(entries_.begin(), entries_.end(),
                          [](const Entry& a, const Entry& b) {
                            return a.prio < b.prio;
                          })
      ->prio;
}

}  // namespace delta::rtos
