#include "common/trace.h"

namespace prairie::common {

RingBufferSink::RingBufferSink(size_t capacity) {
  buf_.resize(capacity == 0 ? 1 : capacity);
}

void RingBufferSink::Emit(const TraceEvent& e) {
  buf_[head_] = e;
  head_ = head_ + 1 == buf_.size() ? 0 : head_ + 1;
  ++total_;
}

std::vector<TraceEvent> RingBufferSink::Snapshot() const {
  std::vector<TraceEvent> out;
  const size_t n = total_ < buf_.size() ? total_ : buf_.size();
  out.reserve(n);
  // Oldest-first: when the ring has wrapped, the oldest retained event is
  // at head_ (the next overwrite target).
  const size_t start = total_ < buf_.size() ? 0 : head_;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(buf_[(start + i) % buf_.size()]);
  }
  return out;
}

void RingBufferSink::Clear() {
  head_ = 0;
  total_ = 0;
}

}  // namespace prairie::common
