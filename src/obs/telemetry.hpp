// The hook bundle a Machine consumes.
//
// `hv::Machine` stays ignorant of campaign structure: it holds one
// `const MachineTelemetry*` (default nullptr — a single predictable
// branch per VM exit when observability is off) and feeds whichever
// sinks are non-null.  The campaign builds one bundle per machine per
// shard, pointing into shard-local recorders, so the hot path stays
// lock-free.
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/flight_recorder.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace xentry::obs {

struct MachineTelemetry {
  /// Per-VM-exit spans (named by handler symbol).  Null: no tracing.
  TraceRecorder* trace = nullptr;
  /// Chrome lane for this machine's spans (campaign shard index).
  std::int32_t tid = 0;
  /// VM-exit ring for SDC postmortems.  Null: no flight recording.
  FlightRecorder* flight = nullptr;
  /// FlightFrame::source tag (campaign: 0 golden machine, 1 faulty).
  std::uint8_t flight_source = 0;
  /// Wall-clock nanoseconds per snapshot_into / restore call.  Null: no
  /// timing.
  Log2Histogram* snapshot_ns = nullptr;
  Log2Histogram* restore_ns = nullptr;
  /// Memory words copied by snapshot_into / restore (deterministic work
  /// counters behind the timing above).  Null: not counted.
  Counter* snapshot_words = nullptr;
  Counter* restore_words = nullptr;
};

}  // namespace xentry::obs
