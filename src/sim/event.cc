#include "sim/event.h"

#include <algorithm>
#include <utility>

#include "sim/simulator.h"
#include "support/check.h"
#include "support/trace.h"

namespace cr::sim {

void Event::subscribe(std::function<void(Time)> fn) const {
  if (!state_) {
    fn(0);
    return;
  }
  if (state_->triggered) {
    // A subscription on an already-triggered event still establishes a
    // causal link: anything fn does is caused by this event.
    Simulator* sim = state_->sim;
    if (sim != nullptr && sim->event_graph() != nullptr) {
      const uint64_t prev = sim->current_cause();
      sim->set_current_cause(state_->uid);
      fn(state_->trigger_time);
      sim->set_current_cause(prev);
    } else {
      fn(state_->trigger_time);
    }
    return;
  }
  state_->waiters.push_back(std::move(fn));
}

Event Event::merge(Simulator& sim, const std::vector<Event>& events) {
  // Count the untriggered inputs; if none, the merge is already complete.
  size_t pending = 0;
  for (const Event& e : events) {
    if (!e.has_triggered()) ++pending;
  }
  if (pending == 0) return Event();

  UserEvent merged(sim);
  // The countdown is shared by the subscriptions below.
  auto remaining = std::make_shared<size_t>(pending);
  Simulator* simp = &sim;
  const uint64_t merged_uid = merged.event().uid();
  if (EventGraph* g = sim.event_graph()) {
    // Every input — including ones already triggered by unroll-time
    // wiring — happens-before the merged event. Recording the triggered
    // ones too keeps the graph exact rather than schedule-dependent.
    for (const Event& e : events) g->edge(e.uid(), merged_uid);
  }
  for (const Event& e : events) {
    if (e.has_triggered()) continue;
    const uint64_t input_uid = e.uid();
    e.subscribe([merged, remaining, simp, merged_uid,
                 input_uid](Time) mutable {
      if (--*remaining == 0) {
        // The input that completes the merge is its critical
        // predecessor; record the identity for critical-path analysis.
        if (support::Tracer* t = simp->tracer()) {
          t->alias(merged_uid, input_uid);
        }
        merged.trigger();
      }
    });
  }
  return merged.event();
}

Event Event::merge_remote(Simulator& sim, const std::vector<Event>& events) {
  size_t pending = 0;
  for (const Event& e : events) {
    if (!e.has_triggered()) ++pending;
  }
  if (pending == 0) return Event();

  UserEvent merged(sim);
  auto remaining = std::make_shared<size_t>(pending);
  Simulator* simp = &sim;
  const uint64_t merged_uid = merged.event().uid();
  if (EventGraph* g = sim.event_graph()) {
    for (const Event& e : events) g->edge(e.uid(), merged_uid);
  }
  // The completion closure scans the inputs once everything triggered:
  // the alias choice depends only on trigger times and input order,
  // never on which input happened to trigger last.
  auto inputs = std::make_shared<std::vector<Event>>(events);
  for (const Event& e : events) {
    if (e.has_triggered()) continue;
    e.subscribe([merged, remaining, simp, merged_uid,
                 inputs](Time) mutable {
      if (--*remaining != 0) return;
      // All inputs have triggered; the merge completes at the max
      // trigger time regardless of which one arrived last.
      Time when = 0;
      for (const Event& in : *inputs) {
        when = std::max(when, in.trigger_time());
      }
      simp->schedule_at(
          when, [merged, simp, merged_uid, inputs]() mutable {
            if (support::Tracer* t = simp->tracer()) {
              // Latest trigger wins; ties keep the first input.
              Time best = 0;
              uint64_t critical = 0;
              for (const Event& in : *inputs) {
                if (in.uid() == 0) continue;
                if (critical == 0 || in.trigger_time() > best) {
                  best = in.trigger_time();
                  critical = in.uid();
                }
              }
              if (critical != 0) t->alias(merged_uid, critical);
            }
            merged.trigger();
          });
    });
  }
  return merged.event();
}

UserEvent::UserEvent(Simulator& sim)
    : sim_(&sim), state_(std::make_shared<detail::EventState>()) {
  state_->uid = sim.new_event_uid();
  state_->sim = &sim;
}

void UserEvent::trigger() {
  CR_CHECK_MSG(!state_->triggered, "UserEvent triggered twice");
  state_->triggered = true;
  state_->trigger_time = sim_->now();
  auto waiters = std::move(state_->waiters);
  state_->waiters.clear();
  if (EventGraph* g = sim_->event_graph()) {
    // Whatever caused this trigger happens-before it, and this event
    // is the cause of everything its waiters do (including callbacks
    // they schedule — schedule_at captures the ambient cause).
    g->edge(sim_->current_cause(), state_->uid);
    const uint64_t prev = sim_->current_cause();
    sim_->set_current_cause(state_->uid);
    for (auto& fn : waiters) fn(state_->trigger_time);
    sim_->set_current_cause(prev);
  } else {
    for (auto& fn : waiters) fn(state_->trigger_time);
  }
}

}  // namespace cr::sim
