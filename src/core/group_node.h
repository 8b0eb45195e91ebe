#ifndef MASSBFT_CORE_GROUP_NODE_H_
#define MASSBFT_CORE_GROUP_NODE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "consensus/pbft/certifier.h"
#include "consensus/pbft/pbft.h"
#include "consensus/raft/raft.h"
#include "core/config.h"
#include "crypto/signature.h"
#include "db/aria.h"
#include "db/kv_store.h"
#include "obs/telemetry.h"
#include "ordering/round_ordering.h"
#include "ordering/vts_ordering.h"
#include "proto/entry.h"
#include "proto/messages.h"
#include "replication/encoder.h"
#include "replication/rebuilder.h"
#include "replication/transfer_plan.h"
#include "sim/actor.h"
#include "sim/topology.h"
#include "workload/workload.h"

namespace massbft {

/// Per-phase latency accumulators for the Fig 11 breakdown, summed over
/// entries at the proposing group's leader (plus encode/rebuild CPU spans
/// measured where they happen). Derived from the obs registry's phase
/// histograms and counters after a run (Experiment::Run()); nodes record
/// through ClusterContext::telemetry, not into this struct.
struct PhaseStats {
  double batching_ms = 0;     // Txn submit -> batch formed.
  double local_ms = 0;        // Batch formed -> local PBFT committed.
  double encode_ms = 0;       // RS encode + Merkle build CPU span.
  double global_ms = 0;       // Local commit -> global commit (+ VTS).
  double rebuild_ms = 0;      // Chunk arrival -> entry rebuilt (receivers).
  double exec_ms = 0;         // Global commit -> executed.
  uint64_t entries = 0;
  uint64_t rebuilds = 0;
  uint64_t txns = 0;
  uint64_t conflict_aborts = 0;
  double batch_size_sum = 0;
};

/// State shared by every node of one simulated cluster.
struct ClusterContext {
  KeyRegistry* registry = nullptr;
  const Topology* topology = nullptr;
  Workload* workload = nullptr;
  /// Cluster-wide observability: metrics registry + trace recorder. The
  /// default storage keeps directly-constructed nodes (tests) working;
  /// Experiment points every layer at the same instance.
  obs::Telemetry telemetry_storage;
  obs::Telemetry* telemetry = &telemetry_storage;

  /// Client commit notification: fired once per transaction by the
  /// executing leader of the transaction's origin group.
  std::function<void(const Transaction&, SimTime commit_time)>
      on_txn_committed;

  /// RS encodings by (entry digest, n_total), erased when a node executes
  /// the entry. Encoding is deterministic, so results are identical with or
  /// without the memo; every sender still pays the simulated encode CPU.
  std::map<std::pair<Digest, int>, std::shared_ptr<const EncodedEntry>>
      encode_cache;

  /// Collusion channel for the Fig 15 Byzantine experiment: tampered
  /// encodings shared among faulty nodes (out-of-band in a real attack).
  std::map<std::pair<Digest, int>, std::shared_ptr<const EncodedEntry>>
      tampered_cache;
};

/// One replica node. A single class implements every evaluated protocol
/// (MassBFT, Baseline, GeoBFT, Steward, ISS and the BR/EBR ablations),
/// selected by ProtocolConfig — the protocols share batching, local PBFT,
/// the entry store and execution, and differ only in the replication
/// strategy, global consensus usage and ordering mode (paper Table II).
class GroupNode : public Actor {
 public:
  struct FaultConfig {
    /// Byzantine chunk tampering from `byzantine_from` on (Fig 15).
    bool byzantine = false;
    SimTime byzantine_from = 0;
  };

  GroupNode(Simulator* sim, Network* network, NodeId id,
            const ProtocolConfig& config, ClusterContext* ctx,
            FaultConfig fault);
  GroupNode(Simulator* sim, Network* network, NodeId id,
            const ProtocolConfig& config, ClusterContext* ctx)
      : GroupNode(sim, network, id, config, ctx, FaultConfig{}) {}
  ~GroupNode() override;

  /// Arms batch/heartbeat/epoch timers. Call once after all nodes exist.
  void Start();

  /// Client transaction ingestion (group leader only). Charges client
  /// signature verification.
  void SubmitClientTxn(Transaction txn);

  void HandleMessage(NodeId from, MessagePtr message) override;
  void Crash() override;

  /// Rejoins a crashed node (paper Section V-C): timers restart; if this
  /// is the group leader it requests catch-up from a peer group leader and
  /// resumes proposing once missed state is replayed.
  void Recover() override;

  /// True once this node has rejoined after a crash. A rejoined replica is
  /// a catching-up learner: it proposes and accepts safely (certificates
  /// and quorums do not depend on its local order), but its locally
  /// re-derived execution interleaving is not authoritative — a production
  /// deployment installs a state snapshot instead of re-deriving history.
  bool rejoined() const { return rejoined_; }

  // ---- Introspection (tests / benches).
  bool IsGroupLeader() const;
  uint64_t executed_entries() const { return execution_log_.size(); }
  const std::vector<std::pair<uint16_t, uint64_t>>& execution_log() const {
    return execution_log_;
  }
  uint64_t executed_txns() const { return executed_txns_; }
  const KvStore& store() const { return store_; }
  uint64_t own_clock() const { return own_clock_; }
  size_t pending_txn_count() const { return pending_txns_.size(); }

  /// Force this node to execute entries even if it is not a group leader
  /// (agreement tests compare all nodes' execution logs).
  void set_always_execute(bool v) { always_execute_ = v; }

  /// Ordering-engine introspection (tests/diagnostics; null unless the
  /// protocol uses VTS ordering).
  const VtsOrderingEngine* vts_engine() const { return vts_ordering_.get(); }
  /// Entry-record introspection for diagnostics.
  struct RecordView {
    bool exists = false;
    bool payload_available = false;
    bool globally_committed = false;
    bool executed = false;
  };
  RecordView InspectRecord(uint16_t gid, uint64_t seq) const;

 private:
  using Key = std::pair<uint16_t, uint64_t>;

  struct EntryRecord {
    EntryPtr entry;
    Certificate cert;
    bool payload_available = false;  // Entry bytes present and validated.
    bool globally_committed = false;
    bool executed = false;
    bool lan_forwarded = false;
    std::unique_ptr<EntryRebuilder> rebuilder;
    SimTime first_chunk_at = -1;
    SimTime created_at = -1;
    SimTime local_committed_at = -1;
    SimTime global_committed_at = -1;
  };

  // ---- Role helpers.
  int my_group() const { return id().group; }
  int num_groups() const { return ctx_->topology->num_groups(); }
  int group_size(int g) const { return ctx_->topology->group_size(g); }
  int group_f(int g) const { return ctx_->topology->max_faulty(g); }
  NodeId LeaderOf(int g) const {
    return NodeId{static_cast<uint16_t>(g), 0};
  }
  bool IsGlobalMaster() const {
    return config_.single_master && my_group() == 0;
  }
  void BroadcastLan(const MessagePtr& msg);

  // ---- Crypto helpers (charge simulated CPU).
  Signature SignPayload(const Bytes& payload);
  /// Group members' signatures over one payload, in one batch.
  [[nodiscard]] bool VerifyNodeSigs(const std::vector<NodeId>& nodes,
                                    const Bytes& payload,
                                    const std::vector<const Signature*>& sigs);
  /// Checks a group's certificate over `digest`. A certificate equal to
  /// one this node verified recently is accepted without a second check
  /// (VerifiedCertMemo); failures are never remembered.
  [[nodiscard]] bool VerifyGroupCert(const Certificate& cert,
                                     const Digest& digest);

  // ---- Batching / proposing (leader). Timer chains carry an epoch so
  // chains from before a crash die instead of double-firing after
  // recovery.
  void OnBatchTimer(uint64_t epoch);
  void TryFormBatch(bool timer_fired);
  /// True when a committed entry has been blocked from execution for more
  /// than two batch intervals (triggers the VTS liveness tick).
  bool HasStaleUnexecuted() const;

  // ---- Local PBFT.
  void OnLocalCommitted(EntryPtr entry, Certificate cert);
  void ValidateEntryAsync(EntryPtr entry, std::function<void(bool)> done);

  // ---- Replication (send side).
  void ReplicateToGroups(const EntryPtr& entry, const Certificate& cert);
  void SendLeaderOneWay(const EntryPtr& entry, const Certificate& cert);
  void SendBijective(const EntryPtr& entry, const Certificate& cert);
  void SendEncoded(const EntryPtr& entry, const Certificate& cert);
  std::shared_ptr<const EncodedEntry> GetEncoded(const EntryPtr& entry,
                                                 const TransferPlan& plan,
                                                 bool tampered);

  // ---- Replication (receive side).
  void OnEntryTransfer(NodeId from, const EntryTransferMsg& msg);
  void OnChunkBatch(NodeId from, const MessagePtr& message);
  void StorePayload(const Key& key, EntryPtr entry, const Certificate& cert);
  void MarkPayloadAvailable(const Key& key);
  EntryRecord& GetRecord(const Key& key) { return entries_[key]; }
  bool HasPayload(const Key& key) const;

  // ---- Global consensus (group leader).
  void SetupRaft();
  void RelayToGroup(RelayEvent event, bool replay = false);
  void ApplyRelayEvent(const RelayEvent& event);
  void FinishSync();
  void OnRaftCommitted(uint16_t gid, uint64_t seq);
  void OnAcceptObserved(uint16_t gid, uint64_t seq, uint16_t from_group,
                        uint64_t ts);
  uint64_t AssignTs(uint16_t gid, uint64_t seq);

  // ---- Steward single-master flow.
  void ForwardToGlobalMaster(const EntryPtr& entry, const Certificate& cert);
  void OnLeaderForward(const LeaderForwardMsg& msg);
  void MaybeTranslateGlobalCommits();

  // ---- ISS epochs.
  void OnEpochTimer(uint64_t epoch);
  void OnEpochMarker(NodeId from, const EpochMarkerMsg& msg);

  // ---- MassBFT fault handling.
  void OnHeartbeatTimer(uint64_t epoch);
  void CheckGroupLiveness();
  void StartTakeover(uint16_t dead_gid);
  void EmitTakeoverTimestamps(uint16_t dead_gid);
  void OnTimestampAssign(const TimestampAssignMsg& msg);
  void OnCatchUpRequest(NodeId from, const CatchUpRequestMsg& msg);
  void OnGroupRejoined(uint16_t gid);
  void FinishFreezeRound(uint16_t dead_gid);

  // ---- Ordering & execution.
  void SetupOrdering();
  bool CanExecute(uint16_t gid, uint64_t seq) const;
  void ExecuteEntry(uint16_t gid, uint64_t seq);
  void PokeOrdering();
  bool IsExecutor() const { return always_execute_ || IsGroupLeader(); }

  // ---- Members.
  ProtocolConfig config_;
  ClusterContext* ctx_;
  FaultConfig fault_;

  // Observability (pre-resolved at construction; tel_ is never null).
  obs::Telemetry* tel_;
  uint32_t trace_track_;
  obs::Counter* entries_counter_;
  obs::Counter* txns_exec_counter_;
  obs::Counter* conflict_abort_counter_;
  obs::Counter* logic_abort_counter_;
  obs::Counter* coded_bytes_counter_;

  /// Recently verified certificates (VerifyGroupCert). Each group keeps
  /// at most pipeline_depth entries proposed and not globally committed,
  /// so that many certificates per group are in flight between a leader's
  /// check at Raft propose and its check at rebuild.
  VerifiedCertMemo verified_certs_{
      static_cast<size_t>(config_.pipeline_depth * num_groups())};

  std::unique_ptr<PbftEngine> pbft_;
  std::unique_ptr<DigestCertifier> certifier_;
  std::unique_ptr<RaftCoordinator> raft_;
  std::map<DecisionId, std::function<void(Certificate)>> pending_certs_;

  std::deque<Transaction> pending_txns_;
  uint64_t next_local_seq_ = 0;
  int outstanding_ = 0;
  bool started_ = false;

  std::map<Key, EntryRecord> entries_;
  std::set<Digest> executed_digests_;

  // Ordering engines (one active per config).
  std::unique_ptr<VtsOrderingEngine> vts_ordering_;
  std::unique_ptr<RoundOrderingEngine> round_ordering_;
  std::unique_ptr<EpochOrderingEngine> epoch_ordering_;
  // Steward FIFO: committed origin keys executed in arrival order, plus
  // the global-seq -> digest -> origin-key translation tables.
  std::deque<Key> fifo_queue_;
  std::deque<uint64_t> pending_global_commits_;
  std::map<uint64_t, Digest> global_seq_digest_;
  std::map<Digest, Key> digest_index_;
  uint64_t next_global_seq_ = 0;  // Global master only.

  // Execution.
  KvStore store_;
  std::unique_ptr<AriaExecutor> aria_;
  std::vector<std::pair<uint16_t, uint64_t>> execution_log_;
  uint64_t executed_txns_ = 0;
  bool always_execute_ = false;

  // MassBFT VTS state.
  uint64_t own_clock_ = 0;  // = number of own-group entries committed.
  std::map<uint16_t, uint64_t> max_ts_seen_;  // Per assigner group.
  std::set<uint16_t> dead_groups_;
  std::map<uint16_t, SimTime> last_heartbeat_;
  std::set<Key> unexecuted_committed_;  // For takeover stamping.
  /// Per-instance execution frontier (next sequence this node would
  /// execute) — drives catch-up after recovery.
  std::map<uint16_t, uint64_t> executed_next_;
  /// VTS elements retained per entry so peers can be caught up.
  std::map<Key, std::map<uint16_t, uint64_t>> recorded_vts_;
  /// Takeover freeze agreement (one round per dead group).
  struct FreezeRound {
    std::set<uint16_t> expected;
    uint64_t max_seen = 0;
  };
  std::map<uint16_t, FreezeRound> freeze_rounds_;
  std::map<uint16_t, uint64_t> frozen_clock_;
  /// Recovery sync window: live timestamp events buffered until the
  /// catch-up replay is fully applied.
  bool syncing_ = false;
  bool rejoined_ = false;
  std::vector<RelayEvent> sync_buffer_;

  // Timer-chain epoch (bumped on crash so stale chains die).
  uint64_t timer_epoch_ = 0;

  // ISS epoch bookkeeping.
  uint64_t current_epoch_ = 0;
  uint64_t epoch_first_seq_ = 0;
  std::map<uint16_t, uint64_t> epoch_next_first_;
};

}  // namespace massbft

#endif  // MASSBFT_CORE_GROUP_NODE_H_
