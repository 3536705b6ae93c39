#include "sim/processor.h"

#include <utility>

#include "sim/simulator.h"
#include "support/trace.h"

namespace cr::sim {

Event Processor::spawn(Event precondition, Time duration,
                       std::function<void()> work, support::TraceTag tag) {
  UserEvent done(*sim_);
  auto work_ptr =
      work ? std::make_shared<std::function<void()>>(std::move(work))
           : nullptr;
  const uint64_t pre_uid = precondition.uid();
  const uint64_t done_uid = done.event().uid();
  precondition.subscribe([this, duration, work_ptr, done, pre_uid, done_uid,
                          tag = std::move(tag)](Time ready) mutable {
    // FIFO in ready order: the core picks this item up when it next goes
    // idle at or after `ready`.
    const Time start = std::max(ready, next_free_);
    // Scenario scaling (heterogeneous speed, injected slowdowns): a pure
    // function of the virtual start time.
    const Time eff = perf_ != nullptr ? perf_->scale(start, duration)
                                      : duration;
    const Time end = start + eff;
    next_free_ = end;
    busy_ += eff;
    if (support::Tracer* t = sim_->tracer()) {
      const support::SpanId span = t->add_span(
          id_.node, id_.core, tag.category,
          tag.empty() ? "work" : std::move(tag.name), start, end);
      t->edge(pre_uid, span);
      t->bind(done_uid, span);
    }
    if (work_ptr) {
      sim_->schedule_at(start, [work_ptr] { (*work_ptr)(); });
    }
    sim_->schedule_at(end, [done]() mutable { done.trigger(); });
  });
  return done.event();
}

}  // namespace cr::sim
