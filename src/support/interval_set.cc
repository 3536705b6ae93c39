#include "support/interval_set.h"

#include <algorithm>
#include <sstream>

#include "support/check.h"

namespace cr::support {

namespace {

// First index k >= i with v[k].hi > x (v.size() if none). Gallops: the
// step doubles from i until it passes the answer, then a binary search
// finishes the last bracket, so skipping d intervals costs O(log d) and a
// skip of one (interleaved inputs) stays O(1).
size_t skip_ending_by(const std::vector<Interval>& v, size_t i, uint64_t x) {
  if (i >= v.size() || v[i].hi > x) return i;
  size_t lo = i + 1;  // v[lo - 1].hi <= x
  size_t step = 1;
  while (lo + step - 1 < v.size() && v[lo + step - 1].hi <= x) {
    lo += step;
    step *= 2;
  }
  const size_t hi = std::min(v.size(), lo + step - 1);
  return static_cast<size_t>(
      std::partition_point(v.begin() + static_cast<std::ptrdiff_t>(lo),
                           v.begin() + static_cast<std::ptrdiff_t>(hi),
                           [x](const Interval& iv) { return iv.hi <= x; }) -
      v.begin());
}

}  // namespace

IntervalSet::IntervalSet(std::initializer_list<Interval> ivs) {
  for (const Interval& iv : ivs) add(iv.lo, iv.hi);
}

IntervalSet IntervalSet::range(uint64_t lo, uint64_t hi) {
  IntervalSet out;
  if (lo < hi) out.ivs_.push_back({lo, hi});
  return out;
}

IntervalSet IntervalSet::from_points(std::vector<uint64_t> points) {
  std::sort(points.begin(), points.end());
  IntervalSet out;
  for (uint64_t p : points) {
    // Duplicate check as `p < back().hi`, not `back().hi >= p + 1`:
    // the latter overflows at p == UINT64_MAX and silently dropped the
    // point. (UINT64_MAX itself is unrepresentable in half-open
    // intervals; append_point CHECK-fails on it rather than vanishing.)
    if (!out.ivs_.empty() && p < out.ivs_.back().hi) continue;  // dup
    out.append_point(p);
  }
  return out;
}

IntervalSet IntervalSet::set_union(const IntervalSet& other) const {
  IntervalSet out;
  size_t i = 0, j = 0;
  const auto& a = ivs_;
  const auto& b = other.ivs_;
  while (i < a.size() || j < b.size()) {
    Interval next;
    if (j >= b.size() || (i < a.size() && a[i].lo <= b[j].lo)) {
      next = a[i++];
    } else {
      next = b[j++];
    }
    if (!out.ivs_.empty() && out.ivs_.back().hi >= next.lo) {
      out.ivs_.back().hi = std::max(out.ivs_.back().hi, next.hi);
    } else {
      out.ivs_.push_back(next);
    }
  }
  return out;
}

IntervalSet IntervalSet::set_intersect(const IntervalSet& other) const {
  IntervalSet out;
  size_t i = 0, j = 0;
  const auto& a = ivs_;
  const auto& b = other.ivs_;
  while (i < a.size() && j < b.size()) {
    if (a[i].hi <= b[j].lo) {
      i = skip_ending_by(a, i, b[j].lo);
      continue;
    }
    if (b[j].hi <= a[i].lo) {
      j = skip_ending_by(b, j, a[i].lo);
      continue;
    }
    out.ivs_.push_back(
        {std::max(a[i].lo, b[j].lo), std::min(a[i].hi, b[j].hi)});
    if (a[i].hi < b[j].hi) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

IntervalSet IntervalSet::set_subtract(const IntervalSet& other) const {
  IntervalSet out;
  size_t j = 0;
  const auto& b = other.ivs_;
  for (Interval iv : ivs_) {
    j = skip_ending_by(b, j, iv.lo);
    uint64_t lo = iv.lo;
    size_t k = j;
    while (k < b.size() && b[k].lo < iv.hi) {
      if (b[k].lo > lo) out.ivs_.push_back({lo, b[k].lo});
      lo = std::max(lo, b[k].hi);
      if (lo >= iv.hi) break;
      ++k;
    }
    if (lo < iv.hi) out.ivs_.push_back({lo, iv.hi});
  }
  return out;
}

bool IntervalSet::contains(uint64_t point) const {
  auto it = std::upper_bound(
      ivs_.begin(), ivs_.end(), point,
      [](uint64_t p, const Interval& iv) { return p < iv.lo; });
  if (it == ivs_.begin()) return false;
  --it;
  return point < it->hi;
}

bool IntervalSet::contains_all(const IntervalSet& other) const {
  // Coalesced intervals: each of other's intervals must fit inside one.
  size_t j = 0;
  for (const Interval& iv : other.ivs_) {
    j = skip_ending_by(ivs_, j, iv.lo);
    if (j == ivs_.size() || ivs_[j].lo > iv.lo || ivs_[j].hi < iv.hi) {
      return false;
    }
  }
  return true;
}

bool IntervalSet::overlaps(const IntervalSet& other) const {
  size_t i = 0, j = 0;
  const auto& a = ivs_;
  const auto& b = other.ivs_;
  while (i < a.size() && j < b.size()) {
    if (a[i].hi <= b[j].lo) {
      i = skip_ending_by(a, i, b[j].lo);
    } else if (b[j].hi <= a[i].lo) {
      j = skip_ending_by(b, j, a[i].lo);
    } else {
      return true;
    }
  }
  return false;
}

uint64_t IntervalSet::size() const {
  uint64_t total = 0;
  for (const Interval& iv : ivs_) total += iv.size();
  return total;
}

Interval IntervalSet::bounds() const {
  CR_CHECK(!ivs_.empty());
  return {ivs_.front().lo, ivs_.back().hi};
}

void IntervalSet::check_representable(uint64_t p) {
  CR_CHECK_MSG(p != UINT64_MAX,
               "IntervalSet cannot represent UINT64_MAX as a point");
}

void IntervalSet::add(uint64_t lo, uint64_t hi) {
  if (lo >= hi) return;
  if (ivs_.empty() || lo >= ivs_.back().hi) {
    append(lo, hi);
    return;
  }
  ivs_.push_back({lo, hi});
  normalize();
}

void IntervalSet::append(uint64_t lo, uint64_t hi) {
  if (lo >= hi) return;
  if (!ivs_.empty()) {
    CR_DCHECK(lo >= ivs_.back().lo);
    if (lo <= ivs_.back().hi) {
      ivs_.back().hi = std::max(ivs_.back().hi, hi);
      return;
    }
  }
  ivs_.push_back({lo, hi});
}

void IntervalSet::for_each_point(
    const std::function<void(uint64_t)>& fn) const {
  for (const Interval& iv : ivs_) {
    for (uint64_t p = iv.lo; p < iv.hi; ++p) fn(p);
  }
}

uint64_t IntervalSet::nth_point(uint64_t k) const {
  for (const Interval& iv : ivs_) {
    if (k < iv.size()) return iv.lo + k;
    k -= iv.size();
  }
  CR_UNREACHABLE("nth_point index out of range");
}

std::string IntervalSet::to_string() const {
  std::ostringstream os;
  os << "{";
  for (size_t i = 0; i < ivs_.size(); ++i) {
    if (i > 0) os << ", ";
    os << "[" << ivs_[i].lo << "," << ivs_[i].hi << ")";
  }
  os << "}";
  return os.str();
}

void IntervalSet::normalize() {
  std::sort(ivs_.begin(), ivs_.end(),
            [](const Interval& a, const Interval& b) {
              return a.lo != b.lo ? a.lo < b.lo : a.hi < b.hi;
            });
  std::vector<Interval> merged;
  merged.reserve(ivs_.size());
  for (const Interval& iv : ivs_) {
    if (!merged.empty() && merged.back().hi >= iv.lo) {
      merged.back().hi = std::max(merged.back().hi, iv.hi);
    } else {
      merged.push_back(iv);
    }
  }
  ivs_ = std::move(merged);
}

}  // namespace cr::support
