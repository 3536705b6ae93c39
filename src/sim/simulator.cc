#include "sim/simulator.h"

#include <utility>

#include "support/check.h"

namespace cr::sim {

void Simulator::schedule_at(Time t, std::function<void()> fn) {
  CR_CHECK_MSG(t >= now_, "cannot schedule into the past");
  queue_.push(Entry{t, next_seq_++, current_cause_, std::move(fn)});
  if (queue_.size() > max_queue_depth_) max_queue_depth_ = queue_.size();
}

void Simulator::schedule_after(Time dt, std::function<void()> fn) {
  schedule_at(now_ + dt, std::move(fn));
}

Time Simulator::run() {
  CR_CHECK(!running_);
  running_ = true;
  while (!queue_.empty()) {
    // Entry must be moved out before pop; priority_queue::top is const.
    auto& top = const_cast<Entry&>(queue_.top());
    Time t = top.time;
    uint64_t cause = top.cause;
    auto fn = std::move(top.fn);
    queue_.pop();
    CR_CHECK(t >= now_);
    now_ = t;
    current_cause_ = cause;
    ++events_processed_;
    fn();
    current_cause_ = 0;
  }
  running_ = false;
  return now_;
}

}  // namespace cr::sim
