#include "ordering/vts_ordering.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"

namespace massbft {

VtsOrderingEngine::VtsOrderingEngine(int num_groups, Callbacks callbacks)
    : num_groups_(num_groups), cb_(std::move(callbacks)),
      heads_(num_groups, 0) {
  // Materialize initial heads e_{g,0}: the own element is deterministic
  // (overlapped assignment, vts[g] = seq), others start as lower bound 0.
  for (int g = 0; g < num_groups_; ++g)
    GetEntry(static_cast<uint16_t>(g), 0);
}

void VtsOrderingEngine::set_telemetry(obs::Telemetry* telemetry,
                                      uint32_t trace_track,
                                      std::function<SimTime()> now) {
  telemetry_ = telemetry;
  trace_track_ = trace_track;
  now_ = std::move(now);
  if (telemetry_ == nullptr) {
    ts_counter_ = nullptr;
    exec_counter_ = nullptr;
    inferred_exec_counter_ = nullptr;
    return;
  }
  obs::MetricsRegistry& registry = telemetry_->registry();
  ts_counter_ = registry.GetCounter("vts/timestamps_received");
  exec_counter_ = registry.GetCounter("vts/executions");
  inferred_exec_counter_ = registry.GetCounter("vts/inferred_executions");
}

VtsOrderingEngine::EntryState& VtsOrderingEngine::GetEntry(uint16_t gid,
                                                           uint64_t seq) {
  auto [it, inserted] = entries_.try_emplace(Key{gid, seq});
  EntryState& e = it->second;
  if (inserted) {
    e.vts.assign(num_groups_, 0);
    e.set.assign(num_groups_, false);
    e.vts[gid] = seq;
    e.set[gid] = true;
  }
  return e;
}

void VtsOrderingEngine::OnTimestamp(uint16_t assigner, uint16_t target_gid,
                                    uint64_t target_seq, uint64_t ts) {
  if (assigner >= num_groups_ || target_gid >= num_groups_) return;
  if (ts_counter_ != nullptr) ts_counter_->Add();
  // Drop stamps for already-executed entries; they cannot regress heads
  // because inference below still consumes the clock value.
  if (target_seq >= heads_[target_gid]) {
    EntryState& e = GetEntry(target_gid, target_seq);
    if (!e.set[assigner]) {
      e.vts[assigner] = ts;
      e.set[assigner] = true;
    }
  }

  // Algorithm 2 lines 6-7: group clocks stamp in non-decreasing order, so
  // any unset head element from `assigner` can be inferred up to `ts`.
  for (int g = 0; g < num_groups_; ++g) {
    EntryState& head = GetEntry(static_cast<uint16_t>(g), heads_[g]);
    if (!head.set[assigner])
      head.vts[assigner] = std::max(head.vts[assigner], ts);
  }

  RunExecutionLoop();
}

bool VtsOrderingEngine::Prec(const EntryState& e1, uint16_t g1,
                             const EntryState& e2, uint16_t g2) const {
  // Algorithm 2 lines 21-30.
  for (int j = 0; j < num_groups_; ++j) {
    if (e1.set[j]) {
      if (e1.vts[j] < e2.vts[j]) return true;  // Lower bound on e2 suffices.
      if (e2.set[j] && e1.vts[j] == e2.vts[j]) continue;
    }
    return false;  // Unset element of e1, e1 > e2 here, or undecidable.
  }
  // Identical, fully-set VTSs: break ties by (seq, gid). The head seqs are
  // the entries' sequence numbers.
  uint64_t s1 = e1.vts[g1];
  uint64_t s2 = e2.vts[g2];
  if (s1 != s2) return s1 < s2;
  return g1 < g2;
}

int VtsOrderingEngine::GlobalMinimum() const {
  for (int g1 = 0; g1 < num_groups_; ++g1) {
    const EntryState& e1 =
        entries_.at(Key{static_cast<uint16_t>(g1), heads_[g1]});
    bool precedes_all = true;
    for (int g2 = 0; g2 < num_groups_ && precedes_all; ++g2) {
      if (g2 == g1) continue;
      const EntryState& e2 =
          entries_.at(Key{static_cast<uint16_t>(g2), heads_[g2]});
      if (!Prec(e1, static_cast<uint16_t>(g1), e2, static_cast<uint16_t>(g2)))
        precedes_all = false;
    }
    if (precedes_all) return g1;
  }
  return -1;
}

void VtsOrderingEngine::RunExecutionLoop() {
  if (in_loop_) return;  // Execute() callbacks may re-enter via Poke().
  in_loop_ = true;
  while (true) {
    int g = num_groups_ == 1 ? 0 : GlobalMinimum();
    if (g < 0) break;
    uint64_t seq = heads_[g];
    if (!cb_.can_execute(static_cast<uint16_t>(g), seq)) break;

    // Algorithm 2 lines 9-15: execute, promote the successor to head and
    // seed its unset elements from the predecessor's (valid lower bounds).
    EntryState pre = entries_.at(Key{static_cast<uint16_t>(g), seq});
    if (exec_counter_ != nullptr) {
      exec_counter_->Add();
      // Executed on inferred lower bounds rather than a full VTS — the
      // asynchronous fast path of Algorithm 2.
      bool fully_set =
          std::all_of(pre.set.begin(), pre.set.end(), [](bool b) { return b; });
      if (!fully_set) inferred_exec_counter_->Add();
      obs::TraceRecorder& trace = telemetry_->trace();
      if (trace.enabled() && now_) {
        trace.RecordInstant(
            trace_track_, "vts", "vts_execute", now_(),
            obs::TraceArgs{{{"gid", static_cast<double>(g)},
                            {"seq", static_cast<double>(seq)},
                            {"inferred", fully_set ? 0.0 : 1.0}}});
      }
    }
    cb_.execute(static_cast<uint16_t>(g), seq);
    ++executed_count_;
    entries_.erase(Key{static_cast<uint16_t>(g), seq});
    heads_[g] = seq + 1;
    EntryState& nxt = GetEntry(static_cast<uint16_t>(g), seq + 1);
    for (int j = 0; j < num_groups_; ++j) {
      if (!nxt.set[j]) nxt.vts[j] = std::max(nxt.vts[j], pre.vts[j]);
    }
  }
  in_loop_ = false;
}

void VtsOrderingEngine::Poke() { RunExecutionLoop(); }

}  // namespace massbft
