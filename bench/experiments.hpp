// The experiments bench_main runs, one per .cpp file under bench/.
// Each prints its paper-style table to stdout; `smoke` shrinks the
// sweep so `bench_main --smoke` runs every table in seconds.
// Experiment ids follow DESIGN.md §4; EXPERIMENTS.md cites the tables.
#pragma once

namespace ccvc::bench {

void stamp_bytes(bool smoke);     // E3: star and mesh stamp bytes
void clock_memory(bool smoke);    // E4: resident clock state per site
void clock_ops(bool smoke);       // E5: ns per clock operation
void wan_sessions(bool smoke);    // E7/E9: end-to-end WAN sessions
void no_transform(bool smoke);    // E8: notifier without transformation
void history_gc(bool smoke);      // ablation: history-buffer GC
void fault_sublayer(bool smoke);  // zero-fault cost of reliability

}  // namespace ccvc::bench
