// The access log the cross-shard race checker consumes. During an
// instrumented execution the engine appends one Access per (operation,
// region argument, physical location): point-task reads/writes/reduces,
// copy sources and destinations, fills, and the scalar-reduction
// partials traffic behind dynamic collectives. Each access carries
//   - where   : an opaque physical-location key plus the logical
//               (region-root, field) coordinates and touched points,
//   - when    : happens-before anchors — the event uids the operation
//               waits on before starting and the uid of its completion
//               event (the same events the engine wires, so the log is
//               exactly as ordered as the execution, no more),
//   - what    : its position in the implicit program's sequential order
//               (statement-instance sequence + intra-statement index),
//               which is the ground-truth dependence relation the
//               checker validates the synchronization against.
//
// An Access is a fixed-size record that owns nothing. Its point set and
// field list are shared, immutable and must outlive the check: a point
// set is a region's (the forest's region deque), a copy pair's (the
// engine's pair tables) or one the log owns (`AccessLog::own`); a field
// list is the IR's (`Use::fields`, `Stmt::copy_fields`) or
// `kPartialsFields`. Its start anchors are one span of the log's flat
// `anchors` array, shared by every access of one operation.
#pragma once

#include <cstdint>
#include <deque>
#include <span>
#include <type_traits>
#include <vector>

#include "ir/program.h"
#include "rt/physical.h"
#include "support/check.h"
#include "support/interval_set.h"

namespace cr::check {

enum class AccessType : uint8_t { kRead, kWrite, kReduce };

inline const char* to_string(AccessType t) {
  switch (t) {
    case AccessType::kRead:
      return "read";
    case AccessType::kWrite:
      return "write";
    case AccessType::kReduce:
      return "reduce";
  }
  return "?";
}

// The one field of a scalar-reduction partials buffer.
inline const std::vector<rt::FieldId> kPartialsFields{0};

// A run of the log's `anchors`: [first, first + count).
struct AnchorSpan {
  uint32_t first = 0;
  uint32_t count = 0;
};

struct Access {
  // Physical location identity: accesses to different buffers can never
  // race even when they cover the same logical points (e.g. a private
  // instance vs a ghost instance of the same subregion).
  uint64_t place = 0;
  // The touched points and fields: shared and immutable (see above).
  const support::IntervalSet* points = nullptr;
  const std::vector<rt::FieldId>* fields = nullptr;

  // Implicit-program order: seq numbers statement instances in the
  // order the sequential semantics visits them; sub distinguishes the
  // logically concurrent pieces of one statement (launch color, copy
  // pair). Two accesses with equal (seq, sub) belong to one operation.
  uint64_t seq = 0;
  uint64_t sub = 0;

  const ir::Stmt* stmt = nullptr;  // for report text
  const char* what = "";           // short site label ("task", "copy-dst", ...)

  // Happens-before anchors. The operation starts only after every event
  // in its start span has triggered (uid 0 is never in a span); an empty
  // span means it can start immediately. done_uid is the completion
  // event; 0 means complete at the start of time.
  AnchorSpan starts;
  uint32_t done_uid = 0;

  uint32_t shard = 0;  // issuing control context (UINT32_MAX = main task)
  rt::RegionId root = rt::kNoId;  // logical region root, for reporting
  AccessType type = AccessType::kRead;
  rt::ReduceOp redop = rt::ReduceOp::kSum;  // meaningful for kReduce
};

static_assert(std::is_trivially_copyable_v<Access>);
static_assert(sizeof(Access) <= 80);

// Move-only: accesses point into `owned`, whose elements keep their
// addresses when the log moves but not when it is copied.
struct AccessLog {
  std::vector<Access> accesses;
  // Every access's start anchors, one span per logging operation.
  std::vector<uint32_t> anchors;
  // Point sets no region or pair table holds (scalar-reduction
  // partials slots, synthetic test logs).
  std::deque<support::IntervalSet> owned;

  AccessLog() = default;
  AccessLog(AccessLog&&) = default;
  AccessLog& operator=(AccessLog&&) = default;
  AccessLog(const AccessLog&) = delete;
  AccessLog& operator=(const AccessLog&) = delete;

  std::span<const uint32_t> starts(const Access& a) const {
    return {anchors.data() + a.starts.first, a.starts.count};
  }

  // An empty span at the end of `anchors`, grown by add_anchor.
  AnchorSpan open_span() const {
    CR_CHECK_MSG(anchors.size() < UINT32_MAX,
                 "access log exceeds 2^32 - 1 start anchors");
    return {static_cast<uint32_t>(anchors.size()), 0};
  }
  // Appends `uid` to `span`, the span opened last; uid 0 (the no-event)
  // is dropped.
  void add_anchor(AnchorSpan& span, uint64_t uid) {
    if (uid == 0) return;
    CR_CHECK(span.first + span.count == anchors.size());
    anchors.push_back(uid32(uid));
    ++span.count;
  }

  const support::IntervalSet* own(support::IntervalSet points) {
    return &owned.emplace_back(std::move(points));
  }

  static uint32_t uid32(uint64_t uid) {
    CR_CHECK_MSG(uid < UINT32_MAX,
                 "happens-before anchor is not a 32-bit event uid");
    return static_cast<uint32_t>(uid);
  }
};

}  // namespace cr::check
