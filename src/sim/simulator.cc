#include "sim/simulator.h"

#include <algorithm>
#include <utility>

#include "sim/network.h"
#include "sim/processor.h"
#include "support/check.h"

namespace cr::sim {

Simulator::Simulator() {
  // Slot 0 is the no-event, triggered at time 0; waiter 0 and callable 0
  // are the "none" sentinels.
  slots_.push(Slot{0, 0, 0, 0, kTrigger, kFired});
  waiters_.push(Waiter{0, 0, kTrigger});
  calls_.emplace_back();
}

Simulator::~Simulator() = default;

// --- events -------------------------------------------------------------

void Simulator::check_id_space(uint64_t id) {
  CR_CHECK_MSG(id <= kMaxEvents,
               "event id space exhausted: one Simulator holds at most "
               "2^32 - 2 events (ids are 32-bit); simulate fewer nodes "
               "or time steps per Runtime");
}

Event Simulator::make_event() {
  check_id_space(slots_.size());
  return Event(slots_.push(Slot{0, 0, 0, 0, kTrigger, kPending}));
}

void Simulator::fire(uint32_t id) {
  Slot& s = slot(id);
  CR_CHECK_MSG(s.state != kFired, "event triggered twice");
  const bool waited = s.state == kWaited;
  uint32_t w = s.head;
  s.state = kFired;
  s.word = now_;
  const uint32_t prev = current_cause_;
  if (graph_ != nullptr) {
    // Whatever caused this trigger happens-before it, and this event is
    // the cause of everything its waiters do (including queue entries
    // they push, which capture the ambient cause).
    graph_->edge(current_cause_, id);
    graph_->fired(id);
    current_cause_ = id;
  }
  // A fired slot's waiter fields never change again.
  if (waited) dispatch(s.kind0, s.arg0, id, now_);
  while (w != 0) {
    const Waiter waiter = waiters_[w];
    w = waiter.next;
    dispatch(waiter.kind, waiter.arg, id, now_);
  }
  current_cause_ = prev;
}

void Simulator::attach(Event e, Kind kind, uint32_t arg) {
  Slot& s = slot(e.id_);
  if (s.state == kFired) {
    // A subscription on an already-triggered event still establishes a
    // causal link: anything it does is caused by this event.
    if (graph_ != nullptr && e.id_ != 0) {
      const uint32_t prev = current_cause_;
      current_cause_ = e.id_;
      dispatch(kind, arg, e.id_, s.word);
      current_cause_ = prev;
    } else {
      dispatch(kind, arg, e.id_, s.word);
    }
    return;
  }
  if (s.state == kPending) {
    s.kind0 = kind;
    s.arg0 = arg;
    s.state = kWaited;
    return;
  }
  CR_CHECK_MSG(waiters_.size() < UINT32_MAX, "event waiter arena exhausted");
  const uint32_t w = waiters_.push(Waiter{0, arg, kind});
  if (s.head == 0) {
    s.head = w;
  } else {
    waiters_[s.tail].next = w;
  }
  s.tail = w;
}

void Simulator::dispatch(Kind kind, uint32_t arg, uint32_t source, Time t) {
  switch (kind) {
    case kTrigger:
      fire(arg);
      return;
    case kCall:
      call(arg);
      return;
    case kMerge:
      if (--slot(arg).word == 0) {
        // The input that completes the merge is its critical
        // predecessor; record the identity for critical-path analysis.
        if (tracer_ != nullptr) tracer_->alias(arg, source);
        fire(arg);
      }
      return;
    case kMergeRemote: {
      const RemoteRecord& r = remotes_[arg];
      if (--slot(r.merged).word != 0) return;
      // All inputs have triggered; the merge completes at the max
      // trigger time regardless of which one arrived last.
      Time when = 0;
      for (uint32_t k = 0; k < r.count; ++k) {
        when = std::max(when, slot(remote_inputs_[r.first + k]).word);
      }
      push(when, kRemoteDone, arg);
      return;
    }
    case kPickup:
      spawns_[arg].proc->pickup(spawns_[arg], source, t);
      return;
    case kInject:
      sends_[arg].net->inject(arg, source, t);
      return;
    case kDelay: {
      const DelayRecord r = delays_[arg];
      if (r.before != 0) call(r.before);
      push(now_ + r.delay, kTrigger, r.target);
      return;
    }
    case kDeliver:
    case kRemoteDone:
      break;
  }
  CR_UNREACHABLE("not a waiter kind");
}

// --- the builder ---------------------------------------------------------

Event Simulator::merge(std::span<const Event> events) {
  // Count the untriggered inputs; if none, the merge is already complete.
  uint64_t pending = 0;
  for (const Event& e : events) {
    if (!has_triggered(e)) ++pending;
  }
  if (pending == 0) return Event();
  const Event merged = make_event();
  slot(merged.id_).word = pending;
  if (graph_ != nullptr) {
    // Every input — including ones already triggered by unroll-time
    // wiring — happens-before the merged event. Recording the triggered
    // ones too keeps the graph exact rather than schedule-dependent.
    for (const Event& e : events) graph_->edge(e.id_, merged.id_);
  }
  for (const Event& e : events) {
    if (!has_triggered(e)) attach(e, kMerge, merged.id_);
  }
  return merged;
}

Event Simulator::merge_remote(std::span<const Event> events) {
  uint64_t pending = 0;
  for (const Event& e : events) {
    if (!has_triggered(e)) ++pending;
  }
  if (pending == 0) return Event();
  const Event merged = make_event();
  slot(merged.id_).word = pending;
  if (graph_ != nullptr) {
    for (const Event& e : events) graph_->edge(e.id_, merged.id_);
  }
  // The completion scans the inputs once everything triggered: the
  // alias choice depends only on trigger times and input order, never
  // on which input happened to trigger last.
  const auto record = static_cast<uint32_t>(remotes_.size());
  remotes_.push_back({merged.id_, static_cast<uint32_t>(remote_inputs_.size()),
                      static_cast<uint32_t>(events.size())});
  for (const Event& e : events) remote_inputs_.push_back(e.id_);
  for (const Event& e : events) {
    if (!has_triggered(e)) attach(e, kMergeRemote, record);
  }
  return merged;
}

void Simulator::trigger_when(Event target, Event cause, Work before) {
  if (before) attach(cause, kCall, store(std::move(before)));
  attach(cause, kTrigger, target.id_);
}

void Simulator::trigger_after(Event target, Event cause, Time delay,
                              Work before) {
  const auto record = static_cast<uint32_t>(delays_.size());
  delays_.push_back({delay, target.id_, store(std::move(before))});
  attach(cause, kDelay, record);
}

void Simulator::subscribe(Event e, Work fn) {
  CR_CHECK(fn);
  attach(e, kCall, store(std::move(fn)));
}

uint32_t Simulator::store(Work fn) {
  if (!fn) return 0;
  if (!free_calls_.empty()) {
    const uint32_t index = free_calls_.back();
    free_calls_.pop_back();
    calls_[index] = std::move(fn);
    return index;
  }
  calls_.push_back(std::move(fn));
  return static_cast<uint32_t>(calls_.size() - 1);
}

void Simulator::call(uint32_t index) {
  // Move out first: the callable may store further callables.
  Work fn = std::move(calls_[index]);
  calls_[index] = nullptr;
  free_calls_.push_back(index);
  fn();
}

uint32_t Simulator::store_tag(support::TraceTag tag) {
  if (tag.empty() && tag.category == support::TraceTag{}.category) return 0;
  tags_.push_back(std::move(tag));
  return static_cast<uint32_t>(tags_.size());
}

support::TraceTag Simulator::take_tag(uint32_t index) {
  if (index == 0) return {};
  return std::move(tags_[index - 1]);
}

// --- the queue -----------------------------------------------------------

namespace {
constexpr uint32_t kArity = 4;
}  // namespace

void Simulator::push(Time t, Kind kind, uint32_t arg) {
  CR_CHECK_MSG(t >= now_, "cannot schedule into the past");
  Entry e{t, (next_seq_++ << 8) | kind, current_cause_, arg};
  size_t i = heap_.size();
  heap_.push_back(e);
  auto before = [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.order < b.order;
  };
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!before(e, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = e;
  if (heap_.size() > max_queue_depth_) max_queue_depth_ = heap_.size();
}

Simulator::Entry Simulator::pop() {
  const Entry top = heap_.front();
  const Entry last = heap_.back();
  heap_.pop_back();
  const size_t n = heap_.size();
  if (n == 0) return top;
  auto before = [](const Entry& a, const Entry& b) {
    return a.time != b.time ? a.time < b.time : a.order < b.order;
  };
  size_t i = 0;
  for (;;) {
    const size_t first = i * kArity + 1;
    if (first >= n) break;
    const size_t end = std::min(first + kArity, n);
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (before(heap_[c], heap_[best])) best = c;
    }
    if (!before(heap_[best], last)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
  return top;
}

void Simulator::schedule_at(Time t, Work fn) {
  CR_CHECK(fn);
  push(t, kCall, store(std::move(fn)));
}

Time Simulator::run() {
  CR_CHECK(!running_);
  running_ = true;
  while (!heap_.empty()) {
    const Entry e = pop();
    // The next entry's event slot is most likely cold: start loading it
    // while this entry runs.
    if (!heap_.empty() && (heap_.front().order & 0xff) == kTrigger) {
      __builtin_prefetch(&slot(heap_.front().arg));
    }
    CR_CHECK(e.time >= now_);
    now_ = e.time;
    current_cause_ = e.cause;
    ++events_processed_;
    switch (static_cast<Kind>(e.order & 0xff)) {
      case kTrigger:
        fire(e.arg);
        break;
      case kCall:
        call(e.arg);
        break;
      case kDeliver:
        sends_[e.arg].net->deliver(e.arg);
        break;
      case kRemoteDone: {
        const RemoteRecord& r = remotes_[e.arg];
        if (tracer_ != nullptr) {
          // Latest trigger wins; ties keep the first input.
          Time best = 0;
          uint32_t critical = 0;
          for (uint32_t k = 0; k < r.count; ++k) {
            const uint32_t in = remote_inputs_[r.first + k];
            if (in == 0) continue;
            if (critical == 0 || slot(in).word > best) {
              best = slot(in).word;
              critical = in;
            }
          }
          if (critical != 0) tracer_->alias(r.merged, critical);
        }
        fire(r.merged);
        break;
      }
      default:
        CR_UNREACHABLE("not a queue entry kind");
    }
    current_cause_ = 0;
  }
  running_ = false;
  return now_;
}

}  // namespace cr::sim
