#ifndef MASSBFT_ORDERING_VTS_ORDERING_H_
#define MASSBFT_ORDERING_VTS_ORDERING_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "obs/telemetry.h"
#include "sim/time.h"

namespace massbft {

/// Asynchronous log ordering by vector timestamps — the paper's Algorithm 2
/// plus Section V-D's total order (Lemma V.4):
///   e1 < e2  iff  e1.vts < e2.vts (element-wise lexicographic), ties broken
///   by (seq, gid).
///
/// Each group G_j assigns its local clock value to every entry it accepts;
/// elements arrive asynchronously (OnTimestamp). Entries proposed by G_i
/// deterministically carry vts[i] = seq (the overlapped assignment of
/// Fig 7b). Unset elements of the per-group *head* entries are inferred as
/// lower bounds (group clocks stamp in non-decreasing order), letting fast
/// groups execute without waiting for full VTSs.
///
/// The engine is a pure, deterministic state machine: feed it the same
/// events in any order consistent with per-group monotonicity and every
/// node executes the identical sequence (Theorem V.6, agreement).
class VtsOrderingEngine {
 public:
  struct Callbacks {
    /// May e_{gid,seq} execute now? (Globally committed and payload
    /// present on this node.) The engine never executes a head for which
    /// this returns false; callers re-Poke() when state advances.
    std::function<bool(uint16_t gid, uint64_t seq)> can_execute;
    /// Executes e_{gid,seq}. Called in the global deterministic order.
    std::function<void(uint16_t gid, uint64_t seq)> execute;
  };

  VtsOrderingEngine(int num_groups, Callbacks callbacks);

  /// Wires observability (optional). Counters "vts/timestamps_received",
  /// "vts/executions" and "vts/inferred_executions" (heads executed before
  /// their VTS was fully stamped — the paper's asynchronous fast path)
  /// land in the registry; when tracing and `now` is set, each execution
  /// emits an instant event on `trace_track`.
  void set_telemetry(obs::Telemetry* telemetry, uint32_t trace_track,
                     std::function<SimTime()> now);

  /// Group `assigner` stamped e_{target_gid,target_seq} with clock value
  /// `ts` (from an accept receipt or a TimestampAssign takeover message).
  void OnTimestamp(uint16_t assigner, uint16_t target_gid,
                   uint64_t target_seq, uint64_t ts);

  /// Re-runs the execution loop (call when commit/payload state advances).
  void Poke();

  uint64_t executed_count() const { return executed_count_; }

 private:
  struct EntryState {
    std::vector<uint64_t> vts;
    std::vector<bool> set;
  };
  using Key = std::pair<uint16_t, uint64_t>;

  EntryState& GetEntry(uint16_t gid, uint64_t seq);
  /// True iff e1 (head of g1) must precede e2 (head of g2) — Prec().
  bool Prec(const EntryState& e1, uint16_t g1, const EntryState& e2,
            uint16_t g2) const;
  /// Index of the global-minimum head, or -1 if undecidable.
  int GlobalMinimum() const;
  void RunExecutionLoop();

  int num_groups_;
  Callbacks cb_;
  /// heads_[g] = seq of the next unexecuted entry from group g.
  std::vector<uint64_t> heads_;
  /// States of heads and of future entries with early timestamps.
  std::map<Key, EntryState> entries_;
  uint64_t executed_count_ = 0;
  bool in_loop_ = false;

  // Pre-resolved observability handles (null when not wired).
  obs::Telemetry* telemetry_ = nullptr;
  uint32_t trace_track_ = 0;
  std::function<SimTime()> now_;
  obs::Counter* ts_counter_ = nullptr;
  obs::Counter* exec_counter_ = nullptr;
  obs::Counter* inferred_exec_counter_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_ORDERING_VTS_ORDERING_H_
