#ifndef MASSBFT_CONSENSUS_PBFT_PBFT_H_
#define MASSBFT_CONSENSUS_PBFT_PBFT_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "consensus/pbft/vote_quorum.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "obs/telemetry.h"
#include "proto/entry.h"
#include "proto/messages.h"
#include "sim/network.h"
#include "sim/time.h"

namespace massbft {

/// Three-phase PBFT (pre-prepare / prepare / commit) over a single group,
/// as the paper's local consensus layer (Section II-A). One engine instance
/// runs per node; instances are keyed by (view, seq) and pipelined — the
/// leader may have many outstanding proposals.
///
/// The engine is transport- and clock-agnostic: the owning node injects
/// send/sign/verify/timer callbacks (which also charge simulated CPU).
/// A committed instance yields the entry plus a Certificate of 2f+1 commit
/// signatures — the artifact that protects the entry during global
/// replication.
///
/// Prepare and commit votes are collected in VoteQuorums: stored
/// unverified, batch-checked only once they can complete 2f+1, and
/// dropped unchecked once the phase holds its quorum.
///
/// View changes: followers arm a timer per in-flight proposal; if the
/// leader stalls, 2f+1 VIEW-CHANGE votes move the group to view v+1 with
/// leader node (v+1) mod n, which re-proposes all uncommitted entries it
/// has seen.
class PbftEngine {
 public:
  struct Callbacks {
    /// LAN broadcast to every other node of the group.
    std::function<void(MessagePtr)> broadcast;
    /// LAN unicast within the group.
    std::function<void(NodeId, MessagePtr)> send_to;
    /// Sign `data` with this node's key, charging CPU.
    std::function<Signature(const Bytes&)> sign;
    /// Verify group members' signatures over one payload in one batch,
    /// charging CPU per signature (the pre-prepare is a one-element call).
    VerifySigsFn verify;
    /// Validate a proposed entry's transactions (charges per-transaction
    /// signature verification — the paper's dominant local-consensus cost)
    /// and invoke `done(valid)` when the simulated work completes.
    std::function<void(EntryPtr, std::function<void(bool)>)> validate_entry;
    /// One-shot timer.
    std::function<void(SimTime, std::function<void()>)> after;
    /// Fired exactly once per committed entry, on every correct node.
    std::function<void(EntryPtr, Certificate)> on_committed;
    /// Fired when this node enters a new view (after NEW-VIEW).
    std::function<void(uint64_t new_view, NodeId new_leader)> on_view_change;
    /// Current sim time (optional; enables the per-instance phase
    /// observability below).
    std::function<SimTime()> now;
    /// Observability sink (optional). With `now` set, each instance
    /// reports prepare/commit phase durations into the registry
    /// ("pbft/prepare_ms", "pbft/commit_ms") and — when tracing — emits
    /// spans on `trace_track`.
    obs::Telemetry* telemetry = nullptr;
    uint32_t trace_track = 0;
  };

  PbftEngine(uint16_t gid, NodeId self, int group_size, Callbacks callbacks);

  /// Disables the follower view-change timers (benchmarks with a correct
  /// leader avoid pointless timer events).
  void set_view_change_timeout(SimTime t) { view_change_timeout_ = t; }

  uint64_t view() const { return view_; }
  int leader_index() const { return static_cast<int>(view_ % n_); }
  bool IsLeader() const { return self_.index == leader_index(); }
  NodeId leader() const {
    return NodeId{gid_, static_cast<uint16_t>(leader_index())};
  }
  int quorum() const { return 2 * f_ + 1; }
  int f() const { return f_; }

  /// Leader: proposes `entry` in the next free sequence slot.
  /// Returns the assigned sequence number.
  uint64_t Propose(EntryPtr entry);

  /// Delivery entry point for kPrePrepare/kPrepare/kCommit/kViewChange/
  /// kNewView messages.
  void OnMessage(NodeId from, const MessagePtr& message);

  /// Number of instances that have committed on this node.
  uint64_t committed_count() const { return committed_count_; }

 private:
  struct Instance {
    EntryPtr entry;
    Digest digest{};
    bool digest_known = false;
    bool validated = false;
    bool prepared = false;
    bool committed = false;
    bool commit_broadcast = false;
    // Prepare votes (the leader's pre-prepare counts as its prepare) and
    // commit votes.
    VoteQuorum prepares;
    VoteQuorum commits;
    bool timer_armed = false;
    // Observability timestamps (set only when Callbacks::now is wired).
    SimTime started_at = -1;
    SimTime prepared_at = -1;
  };

  Bytes VotePayload(uint64_t view, uint64_t seq, const Digest& digest,
                    MessageType phase) const;
  Instance& GetInstance(uint64_t seq) { return instances_[seq]; }

  void OnPrePrepare(NodeId from, const PrePrepareMsg& msg);
  void OnVote(NodeId from, const PbftVoteMsg& msg);
  void MaybePrepare(uint64_t seq);
  void MaybeCommit(uint64_t seq);
  void ArmViewChangeTimer(uint64_t seq);
  void OnViewChangeVote(NodeId from, const ViewChangeMsg& msg);
  void EnterView(uint64_t new_view);
  /// Records one PBFT sub-phase into the registry histogram and (when
  /// tracing) the trace. No-op unless observability is wired.
  void ObservePhase(const char* name, obs::Histogram* hist, SimTime start,
                    SimTime end, uint64_t seq);

  uint16_t gid_;
  NodeId self_;
  int n_;
  int f_;
  VoterSet voters_;
  Callbacks cb_;

  uint64_t view_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t committed_count_ = 0;
  SimTime view_change_timeout_ = 0;  // 0 = disabled.
  std::map<uint64_t, Instance> instances_;
  // View-change votes for each proposed new view.
  std::map<uint64_t, std::set<uint16_t>> view_change_votes_;

  // Pre-resolved observability handles (null when not wired).
  obs::Histogram* prepare_hist_ = nullptr;
  obs::Histogram* commit_hist_ = nullptr;
  obs::Counter* view_change_counter_ = nullptr;
};

}  // namespace massbft

#endif  // MASSBFT_CONSENSUS_PBFT_PBFT_H_
