#include "sim/processor.h"

#include <algorithm>
#include <utility>

#include "support/trace.h"

namespace cr::sim {

Event Processor::spawn(Event precondition, Time duration, Work work,
                       support::TraceTag tag) {
  const Event done = sim_->make_event();
  const uint32_t item = sim_->spawns_.push(
      {this, duration, done.id_, sim_->store(std::move(work)),
       sim_->store_tag(std::move(tag))});
  sim_->attach(precondition, Simulator::kPickup, item);
  return done;
}

void Processor::pickup(const Simulator::SpawnRecord& item, uint32_t pre,
                       Time ready) {
  // FIFO in ready order: the core picks this item up when it next goes
  // idle at or after `ready`.
  const Time start = std::max(ready, next_free_);
  // Scenario scaling (heterogeneous speed, injected slowdowns): a pure
  // function of the virtual start time.
  const Time eff = perf_ != nullptr ? perf_->scale(start, item.duration)
                                    : item.duration;
  const Time end = start + eff;
  next_free_ = end;
  busy_ += eff;
  if (support::Tracer* t = sim_->tracer()) {
    support::TraceTag tag = sim_->take_tag(item.tag);
    const support::SpanId span = t->add_span(
        id_.node, id_.core, tag.category,
        tag.empty() ? "work" : std::move(tag.name), start, end);
    t->edge(pre, span);
    t->bind(item.done, span);
  }
  if (item.work != 0) sim_->push(start, Simulator::kCall, item.work);
  sim_->push(end, Simulator::kTrigger, item.done);
}

}  // namespace cr::sim
