// The discrete-event simulator: a virtual clock, an event arena and an
// event queue.
//
// This is the substitute for a physical cluster. All runtime activity —
// task execution, copies, synchronization, network messages — is wired
// as typed continuations on events and entries on the queue.
//
// Events are 32-bit ids into an arena of 24-byte slots that grows in
// fixed-size chunks. A waiter is POD: a continuation kind plus a 32-bit
// payload. The first waiter of a pending event lives inline in its slot,
// so triggering an event with one waiter reads nothing but its slot; the
// second and later waiters form an intrusive FIFO list in a waiter
// arena. Triggering runs them in subscription order (inline waiter
// first), depth first through nested cascades. The queue is a 4-ary heap
// of POD entries ordered by (time, insertion sequence), so a given
// program unrolling always produces the same timeline (bit-for-bit
// deterministic results). The drain prefetches the slot of the next
// entry's event while it runs the current one.
//
// The wiring API — merge, merge_remote, trigger_when, trigger_after,
// Processor::spawn and Network::send — is the builder every layer above
// uses. std::function appears only as the Work fallback, for real
// side effects no typed continuation expresses.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "sim/event.h"
#include "sim/event_graph.h"
#include "support/trace.h"

namespace cr::sim {

class Network;
class Processor;

namespace detail {

// Index-addressed storage growing in fixed-size chunks. Elements never
// move, so growth copies nothing and references stay valid while the
// arena grows.
template <typename T>
class ChunkedArena {
 public:
  static constexpr uint32_t kShift = 16;
  static constexpr uint32_t kMask = (1u << kShift) - 1;

  T& operator[](uint32_t i) { return chunks_[i >> kShift][i & kMask]; }
  const T& operator[](uint32_t i) const {
    return chunks_[i >> kShift][i & kMask];
  }
  uint32_t size() const { return size_; }

  // Appends `value`; returns its index.
  uint32_t push(const T& value) {
    if ((size_ & kMask) == 0) {
      chunks_.push_back(std::make_unique_for_overwrite<T[]>(kMask + 1));
    }
    (*this)[size_] = value;
    return size_++;
  }

 private:
  std::vector<std::unique_ptr<T[]>> chunks_;
  uint32_t size_ = 0;
};

}  // namespace detail

class Simulator {
 public:
  // Event ids are 32-bit; id 0 is the no-event.
  static constexpr uint64_t kMaxEvents = UINT32_MAX - 1;
  // Aborts with an actionable message when `id` would not fit the id
  // space. make_event() checks every id it allocates.
  static void check_id_space(uint64_t id);

  Simulator();
  ~Simulator();
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Attach (or detach with nullptr) a trace recorder. Every component
  // holding a Simulator reference reaches the tracer through here; a
  // null tracer is the zero-cost disabled path.
  void set_tracer(support::Tracer* tracer) { tracer_ = tracer; }
  support::Tracer* tracer() const { return tracer_; }

  // Attach (or detach with nullptr) a happens-before edge recorder.
  // Same contract as the tracer: null means disabled and free.
  void set_event_graph(EventGraph* graph) { graph_ = graph; }
  EventGraph* event_graph() const { return graph_; }

  // --- events --------------------------------------------------------

  // A new pending event, triggered later by trigger() or a continuation
  // (trigger_when / trigger_after).
  Event make_event();
  // Triggers `e` at now(). It must be pending. Waiters run synchronously
  // (still at now()) in FIFO order.
  void trigger(Event e) { fire(e.id_); }

  bool has_triggered(Event e) const { return slot(e.id_).state == kFired; }
  // Only meaningful once triggered.
  Time trigger_time(Event e) const {
    const Slot& s = slot(e.id_);
    return s.state == kFired ? s.word : 0;
  }

  // --- the builder: typed continuations ----------------------------------

  // Merge: an event that triggers when all inputs have triggered, at the
  // max of their trigger times. The merged trigger runs synchronously in
  // the last input's trigger cascade. All-triggered inputs give NO_EVENT.
  Event merge(std::span<const Event> events);
  Event merge(std::initializer_list<Event> events) {
    return merge(std::span<const Event>(events.begin(), events.size()));
  }

  // Merge for fan-ins across nodes (barriers and collectives): the
  // completion is deferred to its own queue entry at the max of the
  // input trigger times, one extra event at the same virtual time. The
  // critical-predecessor alias is chosen deterministically (latest
  // trigger time, ties by input order).
  Event merge_remote(std::span<const Event> events);

  // When `cause` triggers (now, if it already has), run `before` (if
  // any) and then trigger `target` in the same cascade.
  void trigger_when(Event target, Event cause, Work before = nullptr);

  // The barrier / collective release: when `cause` triggers, run
  // `before` (if any) and trigger `target` `delay` ns after now().
  void trigger_after(Event target, Event cause, Time delay,
                     Work before = nullptr);

  // The generic fallback: run `fn` when `e` triggers (immediately if it
  // already has). For tests: code outside sim/ wires typed
  // continuations instead (tools/check_sim_seam.cmake).
  void subscribe(Event e, Work fn);

  // --- the queue ------------------------------------------------------

  // Schedule fn at absolute virtual time t (>= now()).
  void schedule_at(Time t, Work fn);

  // Run until the queue drains. Returns the final time.
  Time run();

  uint64_t events_processed() const { return events_processed_; }

  // High-water mark of pending entries, sampled per push.
  uint64_t max_queue_depth() const { return max_queue_depth_; }

 private:
  friend class Network;
  friend class Processor;

  enum Kind : uint8_t {
    // Waiters and queue entries.
    kTrigger,  // arg: event to trigger
    kCall,     // arg: fallback callable
    // Waiters only.
    kMerge,        // arg: merged event (slot word = countdown)
    kMergeRemote,  // arg: remote-merge record
    kPickup,       // arg: spawn record (Processor)
    kInject,       // arg: send record (Network)
    kDelay,        // arg: delayed-trigger record
    // Queue entries only.
    kDeliver,     // arg: send record whose on_delivery runs first
    kRemoteDone,  // arg: remote-merge record
  };
  enum State : uint8_t {
    kPending,  // no waiter yet
    kWaited,   // pending, first waiter inline in (kind0, arg0)
    kFired,    // triggered; `word` is the trigger time
  };
  // A slot is 24 bytes. `word` holds the merge countdown while the event
  // is pending and its trigger time once it fired. The first waiter is
  // (kind0, arg0); later ones are the list [head .. tail] in waiters_.
  struct Slot {
    uint64_t word;
    uint32_t head;  // second waiter (0 = none)
    uint32_t tail;  // last listed waiter
    uint32_t arg0;
    Kind kind0;
    State state;
  };
  static_assert(sizeof(Slot) == 24);
  struct Waiter {
    uint32_t next;  // 0 = end of list
    uint32_t arg;
    Kind kind;
  };
  static_assert(sizeof(Waiter) == 12);
  // Queue entry: `order` packs the insertion sequence (high 56 bits,
  // the same-time tie-break) and the kind (low 8 bits).
  struct Entry {
    Time time;
    uint64_t order;
    uint32_t cause;  // current_cause_ at schedule time
    uint32_t arg;
  };

  struct SpawnRecord {
    Processor* proc;
    Time duration;
    uint32_t done;
    uint32_t work;  // fallback callable, 0 = none
    uint32_t tag;   // index into tags_ + 1, 0 = none
  };
  struct SendRecord {
    Network* net;
    uint64_t bytes;
    uint32_t src;
    uint32_t dst;
    uint32_t delivered;
    uint32_t on_inject;    // fallback callable, 0 = none
    uint32_t on_delivery;  // fallback callable, 0 = none
  };
  struct RemoteRecord {
    uint32_t merged;
    uint32_t first;  // inputs live in remote_inputs_[first, first + count)
    uint32_t count;
  };
  struct DelayRecord {
    Time delay;
    uint32_t target;
    uint32_t before;  // fallback callable, 0 = none
  };

  Slot& slot(uint32_t id) { return slots_[id]; }
  const Slot& slot(uint32_t id) const { return slots_[id]; }

  void fire(uint32_t id);
  // Append a waiter to `e`, or run it now if `e` already triggered.
  void attach(Event e, Kind kind, uint32_t arg);
  void dispatch(Kind kind, uint32_t arg, uint32_t source, Time t);

  void push(Time t, Kind kind, uint32_t arg);
  Entry pop();

  // Fallback callables: index 0 is "none", which an empty `fn` gets.
  uint32_t store(Work fn);
  void call(uint32_t index);

  uint32_t store_tag(support::TraceTag tag);
  support::TraceTag take_tag(uint32_t index);

  Time now_ = 0;
  uint64_t next_seq_ = 0;
  // The event whose trigger (or triggered-subscription) is causally
  // responsible for the code currently running; 0 when none. Captured
  // by every queue entry so causality crosses deferred work.
  uint32_t current_cause_ = 0;
  support::Tracer* tracer_ = nullptr;
  EventGraph* graph_ = nullptr;
  uint64_t events_processed_ = 0;
  uint64_t max_queue_depth_ = 0;
  bool running_ = false;

  detail::ChunkedArena<Slot> slots_;
  detail::ChunkedArena<Waiter> waiters_;
  detail::ChunkedArena<SpawnRecord> spawns_;
  detail::ChunkedArena<SendRecord> sends_;
  std::vector<RemoteRecord> remotes_;
  std::vector<uint32_t> remote_inputs_;
  std::vector<DelayRecord> delays_;
  std::vector<Work> calls_;
  std::vector<uint32_t> free_calls_;
  std::vector<support::TraceTag> tags_;
  std::vector<Entry> heap_;  // 4-ary min-heap on (time, order)
};

}  // namespace cr::sim
