// Copyright (c) mhxq authors. Licensed under the MIT license.
//
// A fixed-capacity ring of the most recent slow queries. Writers claim a
// slot with one atomic ticket fetch_add — no writer ever waits for
// another writer on a distinct slot — then fill the slot under that
// slot's own mutex. The per-slot mutex exists because entries carry
// strings (query text, doc name, span names) that cannot be published
// with a bare atomic; it is uncontended unless the ring wraps onto a
// slot whose previous writer is still mid-copy, or a DumpSlowQueries()
// reader lands on an in-flight slot. Either way the critical section is
// a few string copies, never an allocation-heavy query.
//
// Recording is decided by the caller (CorpusService compares the trace's
// wall time against CorpusOptions::slow_query_threshold_us); the log
// itself only stores and snapshots.

#ifndef MHX_OBS_SLOW_QUERY_LOG_H_
#define MHX_OBS_SLOW_QUERY_LOG_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace mhx::obs {

// One completed slow query: identity, wall time, and the trace's stage
// breakdown.
struct SlowQueryRecord {
  uint64_t sequence = 0;       // monotonically increasing capture order
  uint64_t query_hash = 0;     // std::hash of the query text
  std::string doc_name;
  std::string query;           // full text; slow queries are rare
  uint64_t total_us = 0;
  std::vector<QueryTrace::Span> spans;
};

// The fixed-capacity lock-light ring of SlowQueryRecords (see the file
// comment for the capture and overwrite semantics).
class SlowQueryLog {
 public:
  // Capacity is fixed at construction; 0 disables recording entirely.
  explicit SlowQueryLog(size_t capacity);
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  // Stores a copy of `record` (its sequence field is assigned here),
  // overwriting the oldest entry once the ring is full.
  void Record(SlowQueryRecord record);

  // Snapshot of the currently retained records, oldest first. Records
  // being overwritten during the walk appear as either the old or the
  // new version, never torn.
  std::vector<SlowQueryRecord> DumpSlowQueries() const;

  // Total queries ever recorded (not capped by capacity).
  uint64_t recorded() const {
    return next_.load(std::memory_order_relaxed);
  }
  size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    mutable std::mutex mu;
    bool filled = false;
    SlowQueryRecord record;
  };

  const size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<uint64_t> next_{0};  // ticket counter; slot = ticket % capacity
};

}  // namespace mhx::obs

#endif  // MHX_OBS_SLOW_QUERY_LOG_H_
