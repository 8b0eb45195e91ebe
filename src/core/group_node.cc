#include "core/group_node.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/logging.h"

namespace massbft {

namespace {

/// Deterministic tampering applied by colluding Byzantine nodes (Fig 15):
/// flip one payload byte, which changes the entry digest and thus every
/// chunk's Merkle root.
Bytes TamperedBytes(const Bytes& encoded) {
  Bytes tampered = encoded;
  if (!tampered.empty()) tampered[tampered.size() / 2] ^= 0xFF;
  return tampered;
}

/// Period of MassBFT's group heartbeats (see group_crash_timeout).
constexpr SimTime kHeartbeatInterval = 150 * kMillisecond;

}  // namespace

GroupNode::GroupNode(Simulator* sim, Network* network, NodeId id,
                     const ProtocolConfig& config, ClusterContext* ctx,
                     FaultConfig fault)
    : Actor(sim, network, id, config.cpu),
      config_(config),
      ctx_(ctx),
      fault_(fault),
      tel_(ctx->telemetry),
      trace_track_(obs::Telemetry::NodeTrack(id.Packed())) {
  ctx_->registry->RegisterNode(id);

  // ---- Observability handles (counters are cheap; the registry is
  // shared cluster-wide, so counts aggregate across nodes).
  obs::MetricsRegistry& metrics_registry = tel_->registry();
  entries_counter_ = metrics_registry.GetCounter("node/entries_batched");
  txns_exec_counter_ = metrics_registry.GetCounter("exec/txns_executed");
  conflict_abort_counter_ =
      metrics_registry.GetCounter("exec/conflict_aborts");
  logic_abort_counter_ = metrics_registry.GetCounter("exec/logic_aborts");
  coded_bytes_counter_ =
      metrics_registry.GetCounter("replication/coded_bytes_sent");

  // Vote and request checks of both local-consensus engines.
  const VerifySigsFn verify_sigs =
      [this](const std::vector<NodeId>& nodes, const Bytes& payload,
             const std::vector<const Signature*>& sigs) {
        return VerifyNodeSigs(nodes, payload, sigs);
      };

  // ---- Local PBFT engine.
  PbftEngine::Callbacks pbft_cb;
  pbft_cb.now = [this] { return Now(); };
  pbft_cb.telemetry = tel_;
  pbft_cb.trace_track = trace_track_;
  pbft_cb.broadcast = [this](MessagePtr m) { BroadcastLan(m); };
  pbft_cb.send_to = [this](NodeId dst, MessagePtr m) { SendLan(dst, m); };
  pbft_cb.sign = [this](const Bytes& payload) { return SignPayload(payload); };
  pbft_cb.verify = verify_sigs;
  pbft_cb.validate_entry = [this](EntryPtr entry,
                                  std::function<void(bool)> done) {
    ValidateEntryAsync(std::move(entry), std::move(done));
  };
  pbft_cb.after = [this](SimTime delay, std::function<void()> fn) {
    After(delay, std::move(fn));
  };
  pbft_cb.on_committed = [this](EntryPtr entry, Certificate cert) {
    OnLocalCommitted(std::move(entry), std::move(cert));
  };
  pbft_ = std::make_unique<PbftEngine>(id.group, id, group_size(id.group),
                                       std::move(pbft_cb));

  // ---- Skip-prepare decision certifier.
  DigestCertifier::Callbacks cert_cb;
  cert_cb.broadcast = [this](MessagePtr m) { BroadcastLan(m); };
  cert_cb.send_to = [this](NodeId dst, MessagePtr m) { SendLan(dst, m); };
  cert_cb.sign = [this](const Bytes& payload) { return SignPayload(payload); };
  cert_cb.verify = verify_sigs;
  cert_cb.can_sign = [this](const DecisionId& decision) {
    if (decision.kind == DigestCertifier::kCommitDecision) return true;
    // Accept: a follower signs only once it holds the entry payload —
    // this is what makes Lemma V.1's atomicity argument hold. (Steward's
    // funneled entries are keyed by global sequence; availability is then
    // enforced at the leader that initiates certification.)
    if (config_.single_master) return true;
    return HasPayload(Key{decision.target_gid, decision.target_seq});
  };
  cert_cb.on_certified = [this](const DecisionId& decision, Certificate cert) {
    auto it = pending_certs_.find(decision);
    if (it == pending_certs_.end()) return;
    auto done = std::move(it->second);
    pending_certs_.erase(it);
    done(std::move(cert));
  };
  certifier_ = std::make_unique<DigestCertifier>(
      id.group, id, group_size(id.group), LeaderOf(id.group).index,
      std::move(cert_cb));

  if (config_.use_global_raft && IsGroupLeader()) SetupRaft();
  SetupOrdering();

  // ---- Execution.
  ctx_->workload->InstallInitialState(&store_);
  aria_ = std::make_unique<AriaExecutor>(&store_, ctx_->workload->MakeFactory());
}

GroupNode::~GroupNode() = default;

bool GroupNode::IsGroupLeader() const { return id().index == 0; }

void GroupNode::BroadcastLan(const MessagePtr& msg) {
  for (int i = 0; i < group_size(my_group()); ++i) {
    if (i == id().index) continue;
    SendLan(NodeId{static_cast<uint16_t>(my_group()),
                   static_cast<uint16_t>(i)},
            msg);
  }
}

Signature GroupNode::SignPayload(const Bytes& payload) {
  cpu().ChargeSign();
  return ctx_->registry->Sign(id(), payload);
}

bool GroupNode::VerifyNodeSigs(const std::vector<NodeId>& nodes,
                               const Bytes& payload,
                               const std::vector<const Signature*>& sigs) {
  cpu().ChargeVerify(static_cast<int>(nodes.size()));
  return ctx_->registry->VerifyBatch(nodes, payload.data(), payload.size(),
                                     sigs);
}

bool GroupNode::VerifyGroupCert(const Certificate& cert,
                                const Digest& digest) {
  if (cert.digest != digest) return false;
  if (cert.gid >= num_groups()) return false;
  return verified_certs_.Verify(cert, [this](const Certificate& c) {
    cpu().ChargeVerify(static_cast<int>(c.NumSignatures()));
    return c.Verify(*ctx_->registry, 2 * group_f(c.gid) + 1);
  });
}

void GroupNode::Start() {
  started_ = true;
  uint64_t epoch = timer_epoch_;
  if (IsGroupLeader()) {
    After(config_.batch_timeout, [this, epoch] { OnBatchTimer(epoch); });
    if (config_.ordering == OrderingMode::kEpoch) {
      epoch_first_seq_ = next_local_seq_;
      After(config_.epoch_length, [this, epoch] { OnEpochTimer(epoch); });
    }
    if (config_.kind == ProtocolKind::kMassBft) {
      for (int g = 0; g < num_groups(); ++g)
        last_heartbeat_[static_cast<uint16_t>(g)] = Now();
      After(kHeartbeatInterval,
            [this, epoch] { OnHeartbeatTimer(epoch); });
    }
  }
}

// --------------------------------------------------------------- Batching

void GroupNode::SubmitClientTxn(Transaction txn) {
  MASSBFT_CHECK(IsGroupLeader());
  if (crashed()) return;
  // Verify the client's signature on ingest (per-transaction cost; the
  // paper's dominant local-consensus CPU term).
  cpu().ChargeVerify();
  pending_txns_.push_back(std::move(txn));
  TryFormBatch(/*timer_fired=*/false);
}

void GroupNode::OnBatchTimer(uint64_t epoch) {
  if (epoch != timer_epoch_) return;  // Stale chain from before a crash.
  TryFormBatch(/*timer_fired=*/true);
  After(config_.batch_timeout, [this, epoch] { OnBatchTimer(epoch); });
}

void GroupNode::TryFormBatch(bool timer_fired) {
  if (!started_ || !IsGroupLeader() || crashed()) return;
  // Round/epoch ordering needs every group's entry of each round, so idle
  // leaders fill rounds with empty entries, but at most a pipeline past
  // their executed prefix: a slot frees at global commit, long before a
  // round waiting on a slow group executes, and run-ahead would flood
  // that group's WAN.
  const auto executed = executed_next_.find(static_cast<uint16_t>(my_group()));
  const uint64_t empty_limit =
      (executed == executed_next_.end() ? 0 : executed->second) +
      static_cast<uint64_t>(config_.pipeline_depth);
  while (outstanding_ < config_.pipeline_depth) {
    bool full = static_cast<int>(pending_txns_.size()) >= config_.max_batch_size;
    // VTS liveness tick: ordering can only advance while group clocks
    // advance, and clocks advance only with proposals (Theorem V.6's
    // "as long as at least one group proposes entries"). When committed
    // entries linger unexecuted — e.g. blocked on a crashed group's
    // timestamps — idle leaders propose empty entries to keep clocks (and
    // the Algorithm 2 inference bounds) moving.
    bool liveness_tick = timer_fired && pending_txns_.empty() &&
                         config_.ordering == OrderingMode::kAsyncVts &&
                         HasStaleUnexecuted();
    bool fill_round = (config_.ordering == OrderingMode::kRoundSync ||
                       config_.ordering == OrderingMode::kEpoch) &&
                      next_local_seq_ < empty_limit;
    bool timeout_batch =
        timer_fired &&
        (!pending_txns_.empty() || fill_round || liveness_tick);
    if (!full && !timeout_batch) break;
    timer_fired = false;  // At most one timeout-triggered batch per tick.

    int take = std::min<int>(static_cast<int>(pending_txns_.size()),
                             config_.max_batch_size);
    std::vector<Transaction> batch;
    batch.reserve(take);
    SimTime now = Now();
    obs::Histogram* batching =
        tel_->phase_histogram(obs::Phase::kBatching);
    SimTime earliest_submit = now;
    for (int i = 0; i < take; ++i) {
      SimTime submit = pending_txns_.front().submit_time;
      earliest_submit = std::min(earliest_submit, submit);
      batching->Record(SimToSeconds(now - submit) * 1e3);
      batch.push_back(std::move(pending_txns_.front()));
      pending_txns_.pop_front();
    }
    entries_counter_->Add();

    uint64_t seq = next_local_seq_++;
    if (tel_->tracing()) {
      tel_->trace().RecordSpan(
          trace_track_, "entry", "batching", earliest_submit, now,
          obs::TraceArgs{{{"gid", static_cast<double>(my_group())},
                          {"seq", static_cast<double>(seq)},
                          {"txns", static_cast<double>(take)}}});
    }
    auto entry = std::make_shared<const Entry>(
        static_cast<uint16_t>(my_group()), seq, std::move(batch));
    cpu().ChargeHash(entry->ByteSize());  // Entry digest.
    EntryRecord& rec = GetRecord(Key{entry->gid(), seq});
    rec.created_at = Now();
    ++outstanding_;
    pbft_->Propose(entry);
  }
}

bool GroupNode::HasStaleUnexecuted() const {
  SimTime threshold = Now() - 2 * config_.batch_timeout;
  for (const Key& key : unexecuted_committed_) {
    auto it = entries_.find(key);
    if (it != entries_.end() && it->second.global_committed_at >= 0 &&
        it->second.global_committed_at < threshold)
      return true;
  }
  return false;
}

void GroupNode::ValidateEntryAsync(EntryPtr entry,
                                   std::function<void(bool)> done) {
  // Per-transaction signature verification plus hashing the batch.
  SimTime cost =
      cpu().model().verify_cost * std::max(1, entry->num_txns()) +
      static_cast<SimTime>(cpu().model().hash_ns_per_byte *
                           static_cast<double>(entry->ByteSize()));
  cpu().ChargeThen(cost, [done = std::move(done)] { done(true); });
}

// ------------------------------------------------------------ Local PBFT

void GroupNode::OnLocalCommitted(EntryPtr entry, Certificate cert) {
  Key key{entry->gid(), entry->seq()};
  EntryRecord& rec = GetRecord(key);
  if (rec.payload_available) return;  // View-change duplicate.
  rec.entry = entry;
  rec.cert = cert;
  rec.payload_available = true;
  rec.local_committed_at = Now();
  if (rec.created_at >= 0)
    tel_->RecordPhaseSpan(obs::Phase::kLocalConsensus, trace_track_,
                          rec.created_at, Now(), entry->gid(), entry->seq());

  // Every correct node participates in sending (bijective/encoded modes
  // use followers; one-way modes no-op on followers).
  if (config_.single_master && my_group() != 0) {
    if (IsGroupLeader()) ForwardToGlobalMaster(entry, cert);
  } else {
    ReplicateToGroups(entry, cert);
    if (IsGroupLeader() && config_.use_global_raft && raft_ != nullptr) {
      if (config_.single_master) {
        // Master funnels its own entries through the global instance too.
        uint64_t gseq = next_global_seq_++;
        global_seq_digest_[gseq] = entry->digest();
        digest_index_[entry->digest()] = key;
        raft_->Propose(0, gseq, entry->digest(), cert, entry->gid(),
                       entry->seq());
      } else {
        raft_->Propose(entry->gid(), entry->seq(), entry->digest(), cert);
      }
    }
  }

  certifier_->RecheckPending();
  MarkPayloadAvailable(key);
}

// ----------------------------------------------------- Replication: send

void GroupNode::ReplicateToGroups(const EntryPtr& entry,
                                  const Certificate& cert) {
  switch (config_.replication) {
    case ReplicationMode::kLeaderOneWay:
      if (IsGroupLeader()) SendLeaderOneWay(entry, cert);
      break;
    case ReplicationMode::kBijective:
      SendBijective(entry, cert);
      break;
    case ReplicationMode::kEncodedBijective:
      SendEncoded(entry, cert);
      break;
  }
}

void GroupNode::SendLeaderOneWay(const EntryPtr& entry,
                                 const Certificate& cert) {
  auto msg = std::make_shared<EntryTransferMsg>(entry, cert);
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    // GeoBFT's optimization, applied to all one-way protocols (paper
    // Section VI): send to f+1 nodes of each remote group so at least one
    // correct node receives and LAN-forwards the entry.
    int copies = group_f(g) + 1;
    for (int j = 0; j < copies && j < group_size(g); ++j)
      SendWan(NodeId{static_cast<uint16_t>(g), static_cast<uint16_t>(j)},
              msg);
  }
}

void GroupNode::SendBijective(const EntryPtr& entry, const Certificate& cert) {
  auto msg = std::make_shared<EntryTransferMsg>(entry, cert);
  int n1 = group_size(my_group());
  int f1 = group_f(my_group());
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    // f1 + f2 + 1 sender nodes each ship one full copy to a distinct
    // receiver (paper Section IV-A / Fig 5a).
    int senders = std::min(f1 + group_f(g) + 1, n1);
    if (id().index >= senders) continue;
    SendWan(NodeId{static_cast<uint16_t>(g),
                   static_cast<uint16_t>(id().index % group_size(g))},
            msg);
  }
}

std::shared_ptr<const EncodedEntry> GroupNode::GetEncoded(
    const EntryPtr& entry, const TransferPlan& plan, bool tampered) {
  auto& cache = tampered ? ctx_->tampered_cache : ctx_->encode_cache;
  auto key = std::make_pair(entry->digest(), plan.n_total());
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  auto encoded =
      tampered ? EncodeBytesForPlan(TamperedBytes(entry->Encoded()), plan)
               : EncodeEntryForPlan(*entry, plan);
  MASSBFT_CHECK(encoded.ok());
  auto ptr = std::make_shared<const EncodedEntry>(std::move(*encoded));
  cache[key] = ptr;
  return ptr;
}

void GroupNode::SendEncoded(const EntryPtr& entry, const Certificate& cert) {
  bool tampered = fault_.byzantine && Now() >= fault_.byzantine_from;
  int n1 = group_size(my_group());
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    auto plan = TransferPlan::Create(n1, group_size(g));
    if (!plan.ok()) {
      MASSBFT_LOG(kError) << "no transfer plan for groups " << my_group()
                          << "->" << g << ": " << plan.status().ToString();
      continue;
    }
    // Charge the RS encode + Merkle build (every sender node performs it;
    // the byte result is shared via the deterministic-encoding cache).
    size_t coded_bytes = static_cast<size_t>(
        static_cast<double>(entry->ByteSize()) * plan->EntryCopiesSent());
    SimTime t0 = Now();
    cpu().ChargeEc(coded_bytes);
    SimTime done_at = cpu().ChargeHash(coded_bytes);
    coded_bytes_counter_->Add(coded_bytes);
    // One representative receiver group per entry keeps the Fig 11 encode
    // phase per-entry rather than per (entry, group) pair.
    if (IsGroupLeader() && g == (my_group() + 1) % num_groups())
      tel_->RecordPhaseSpan(obs::Phase::kEncode, trace_track_, t0, done_at,
                            entry->gid(), entry->seq());

    auto encoded = GetEncoded(entry, *plan, tampered);
    // Batch this node's chunks by receiver.
    std::map<int, std::vector<Chunk>> by_receiver;
    for (const TransferTuple& tuple : plan->TuplesForSender(id().index))
      by_receiver[tuple.receiver].push_back(encoded->chunks[tuple.chunk]);
    uint16_t gid = entry->gid();
    uint64_t seq = entry->seq();
    for (auto& [receiver, chunks] : by_receiver) {
      auto msg = std::make_shared<ChunkBatchMsg>(
          gid, seq, encoded->merkle_root, cert, std::move(chunks),
          entry->ByteSize());
      NodeId dst{static_cast<uint16_t>(g), static_cast<uint16_t>(receiver)};
      // Transmit once the encode CPU completes.
      sim()->ScheduleAt(done_at, [this, dst, msg] {
        if (!crashed()) SendWan(dst, msg);
      });
    }
  }
}

// -------------------------------------------------- Replication: receive

void GroupNode::OnEntryTransfer(NodeId from, const EntryTransferMsg& msg) {
  Key key{msg.entry()->gid(), msg.entry()->seq()};
  EntryRecord& rec = GetRecord(key);
  bool was_available = rec.payload_available;
  if (!was_available) {
    cpu().ChargeHash(msg.entry()->ByteSize());  // Recompute entry digest.
    if (!VerifyGroupCert(msg.cert(), msg.entry()->digest())) {
      MASSBFT_LOG(kWarn) << "entry transfer with bad certificate dropped";
      return;
    }
    StorePayload(key, msg.entry(), msg.cert());
  }
  // A WAN receiver forwards the entry to its whole group over LAN (paper
  // Section II-A "Global Replication").
  if (from.group != my_group() && !rec.lan_forwarded) {
    rec.lan_forwarded = true;
    BroadcastLan(std::make_shared<EntryTransferMsg>(msg.entry(), msg.cert()));
  }
}

void GroupNode::OnChunkBatch(NodeId from, const MessagePtr& message) {
  const auto& msg = static_cast<const ChunkBatchMsg&>(*message);
  Key key{msg.gid(), msg.seq()};
  EntryRecord& rec = GetRecord(key);
  auto plan =
      TransferPlan::Create(group_size(msg.gid()), group_size(my_group()));
  if (!plan.ok()) return;
  if (rec.rebuilder == nullptr && !rec.payload_available) {
    EntryRebuilder::Config cfg;
    cfg.n_total = plan->n_total();
    cfg.n_data = plan->n_data();
    cfg.validate = [this, gid = msg.gid()](const Certificate& cert,
                                           const Digest& entry_digest) {
      return cert.gid == gid && VerifyGroupCert(cert, entry_digest);
    };
    cfg.telemetry = tel_;
    rec.rebuilder = std::make_unique<EntryRebuilder>(std::move(cfg));
    rec.first_chunk_at = Now();
  }

  // Feed chunks (Merkle proof verification cost per chunk). The payload
  // comes only from n_data verified chunks this node holds itself.
  if (rec.rebuilder != nullptr && !rec.payload_available) {
    for (const Chunk& chunk : msg.chunks()) {
      cpu().ChargeHash(chunk.data.size() + 32 * chunk.proof.path.size());
      auto result = rec.rebuilder->AddChunk(msg.merkle_root(), chunk.chunk_id,
                                            chunk.data, chunk.proof,
                                            msg.cert());
      if (result == EntryRebuilder::AddResult::kRebuilt) {
        cpu().ChargeEc(msg.entry_size());
        cpu().ChargeHash(msg.entry_size());
        if (IsGroupLeader())
          tel_->RecordPhaseSpan(obs::Phase::kRebuild, trace_track_,
                                rec.first_chunk_at, Now(), key.first,
                                key.second);
        StorePayload(key, rec.rebuilder->entry(), msg.cert());
        break;
      }
    }
  }

  // A WAN receiver forwards every WAN batch to its group over LAN as it
  // arrives (Section IV-B): under an LCM plan its chunks come from several
  // senders, and each peer needs them all to reach n_data.
  if (from.group == my_group()) return;
  MessagePtr share = message;
  if (fault_.byzantine && Now() >= fault_.byzantine_from) {
    // A Byzantine receiver substitutes the colluded tampered encoding's
    // chunks for its assigned chunk ids (Fig 15); the tampered chunks
    // carry the tampered Merkle root, so honest receivers bucket them
    // separately from the correct ones.
    auto it = ctx_->tampered_cache.find(
        std::make_pair(msg.cert().digest, plan->n_total()));
    if (it != ctx_->tampered_cache.end()) {
      std::vector<Chunk> tampered;
      for (const Chunk& c : msg.chunks())
        tampered.push_back(it->second->chunks[c.chunk_id]);
      share = std::make_shared<ChunkBatchMsg>(
          msg.gid(), msg.seq(), it->second->merkle_root, msg.cert(),
          std::move(tampered), msg.entry_size());
    }
  }
  BroadcastLan(share);
}

void GroupNode::StorePayload(const Key& key, EntryPtr entry,
                             const Certificate& cert) {
  EntryRecord& rec = GetRecord(key);
  if (rec.payload_available) return;
  rec.entry = std::move(entry);
  rec.cert = cert;
  rec.payload_available = true;
  rec.rebuilder.reset();
  MarkPayloadAvailable(key);
}

void GroupNode::MarkPayloadAvailable(const Key& key) {
  EntryRecord& rec = GetRecord(key);
  if (!config_.use_global_raft && !rec.globally_committed) {
    rec.globally_committed = true;  // GeoBFT: receipt is final.
    rec.global_committed_at = Now();
    if (IsGroupLeader() && key.first == my_group()) {
      --outstanding_;
      TryFormBatch(false);
    }
  }
  if (config_.single_master && rec.entry != nullptr)
    digest_index_[rec.entry->digest()] = key;
  if (raft_ != nullptr) raft_->NotifyEntryAvailable(key.first, key.second);
  certifier_->RecheckPending();
  if (config_.single_master) MaybeTranslateGlobalCommits();
  PokeOrdering();
}

bool GroupNode::HasPayload(const Key& key) const {
  auto it = entries_.find(key);
  return it != entries_.end() && it->second.payload_available;
}

// ----------------------------------------------------------- Global Raft

void GroupNode::SetupRaft() {
  RaftCoordinator::Callbacks cb;
  cb.send_to_group = [this](int g, MessagePtr m) {
    SendWan(LeaderOf(g), std::move(m));
  };
  cb.certify = [this](const DecisionId& decision,
                      std::function<void(Certificate)> done) {
    pending_certs_[decision] = std::move(done);
    certifier_->Start(decision);
  };
  cb.verify_group_cert = [this](const Certificate& cert,
                                const Digest& digest) {
    return VerifyGroupCert(cert, digest);
  };
  cb.has_entry = [this](uint16_t gid, uint64_t seq) {
    if (config_.single_master && gid == 0) {
      auto it = global_seq_digest_.find(seq);
      if (it == global_seq_digest_.end()) return false;
      auto origin = digest_index_.find(it->second);
      return origin != digest_index_.end() && HasPayload(origin->second);
    }
    return HasPayload(Key{gid, seq});
  };
  cb.assign_ts = [this](uint16_t gid, uint64_t seq) {
    return AssignTs(gid, seq);
  };
  cb.on_committed = [this](uint16_t gid, uint64_t seq) {
    OnRaftCommitted(gid, seq);
  };
  cb.on_accept_observed = [this](uint16_t gid, uint64_t seq,
                                 uint16_t from_group, uint64_t ts) {
    OnAcceptObserved(gid, seq, from_group, ts);
  };
  cb.now = [this] { return Now(); };
  cb.telemetry = tel_;
  cb.trace_track = trace_track_;
  raft_ = std::make_unique<RaftCoordinator>(num_groups(), my_group(),
                                            std::move(cb));
}

uint64_t GroupNode::AssignTs(uint16_t gid, uint64_t seq) {
  (void)gid;
  (void)seq;
  return own_clock_;
}

void GroupNode::RelayToGroup(RelayEvent event, bool replay) {
  // While syncing after recovery, live timestamp events are buffered so
  // catch-up history applies first (the ordering engine's inference relies
  // on per-assigner non-decreasing delivery, paper Section V-D).
  if (syncing_ && !replay && event.type == RelayEvent::kTimestamp) {
    sync_buffer_.push_back(event);
    return;
  }
  ApplyRelayEvent(event);
  BroadcastLan(
      std::make_shared<GroupRelayMsg>(std::vector<RelayEvent>{event}));
}

void GroupNode::FinishSync() {
  if (!syncing_) return;
  syncing_ = false;
  std::vector<RelayEvent> buffered;
  buffered.swap(sync_buffer_);
  for (const RelayEvent& event : buffered) RelayToGroup(event);
  PokeOrdering();
}

void GroupNode::ApplyRelayEvent(const RelayEvent& event) {
  if (event.type == RelayEvent::kCommitted) {
    Key key{event.gid, event.seq};
    EntryRecord& rec = GetRecord(key);
    if (!rec.globally_committed) {
      rec.globally_committed = true;
      rec.global_committed_at = Now();
      unexecuted_committed_.insert(key);
      if (event.gid == my_group()) {
        own_clock_ = std::max(own_clock_, event.seq + 1);
        // Own-entry pipeline slot freed. This is the single decrement
        // point — the raft path, Steward translation and catch-up replay
        // all funnel through this state transition exactly once.
        if (IsGroupLeader()) {
          --outstanding_;
          TryFormBatch(false);
        }
      }
      if (config_.ordering == OrderingMode::kFifo)
        fifo_queue_.push_back(key);
      // Keep the raft coordinator's contiguous-delivery cursor in sync
      // when commits arrive via catch-up replay instead of raft messages.
      if (raft_ != nullptr && !config_.single_master)
        raft_->NoteCommitted(event.gid, event.seq);
    }
    PokeOrdering();
  } else if (event.type == RelayEvent::kTimestamp) {
    auto& seen = max_ts_seen_[event.assigner];
    seen = std::max(seen, event.ts);
    recorded_vts_[Key{event.gid, event.seq}][event.assigner] = event.ts;
    if (vts_ordering_ != nullptr)
      vts_ordering_->OnTimestamp(event.assigner, event.gid, event.seq,
                                 event.ts);
    PokeOrdering();
  }
}

void GroupNode::OnRaftCommitted(uint16_t gid, uint64_t seq) {
  // Leader-side commit delivery, in per-instance order.
  if (config_.single_master && gid == 0) {
    // Translate global sequences to origin entries strictly in order (the
    // payload for a committed global sequence may still be in flight).
    pending_global_commits_.push_back(seq);
    MaybeTranslateGlobalCommits();
    return;
  }
  Key key{gid, seq};

  EntryRecord& rec = GetRecord(key);
  if (rec.local_committed_at >= 0 && key.first == my_group() &&
      !rec.globally_committed)
    tel_->RecordPhaseSpan(obs::Phase::kGlobalReplication, trace_track_,
                          rec.local_committed_at, Now(), key.first,
                          key.second);
  RelayToGroup(RelayEvent{RelayEvent::kCommitted, key.first, key.second, 0, 0});

  // Crash takeover: stamp the dead groups' frozen clocks onto this entry
  // (only once the freeze round agreed on the value; earlier commits are
  // covered by EmitTakeoverTimestamps via unexecuted_committed_).
  for (uint16_t dead : dead_groups_) {
    if (raft_ != nullptr && raft_->HasTakenOver(dead) &&
        frozen_clock_.contains(dead)) {
      uint64_t frozen = frozen_clock_[dead];
      std::vector<TimestampElement> elements{
          TimestampElement{dead, key.first, key.second, frozen}};
      auto msg = std::make_shared<TimestampAssignMsg>(elements);
      for (int g = 0; g < num_groups(); ++g)
        if (g != my_group() && !dead_groups_.contains(static_cast<uint16_t>(g)))
          SendWan(LeaderOf(g), msg);
      RelayToGroup(RelayEvent{RelayEvent::kTimestamp, key.first, key.second,
                              dead, frozen});
    }
  }
}

void GroupNode::OnAcceptObserved(uint16_t gid, uint64_t seq,
                                 uint16_t from_group, uint64_t ts) {
  if (config_.ordering == OrderingMode::kAsyncVts)
    RelayToGroup(RelayEvent{RelayEvent::kTimestamp, gid, seq, from_group, ts});
}

// ---------------------------------------------------------------- Steward

void GroupNode::ForwardToGlobalMaster(const EntryPtr& entry,
                                      const Certificate& cert) {
  SendWan(LeaderOf(0), std::make_shared<LeaderForwardMsg>(entry, cert));
}

void GroupNode::OnLeaderForward(const LeaderForwardMsg& msg) {
  if (!IsGlobalMaster() || !IsGroupLeader()) return;
  Key key{msg.entry()->gid(), msg.entry()->seq()};
  if (HasPayload(key)) return;  // Duplicate.
  cpu().ChargeHash(msg.entry()->ByteSize());
  if (!VerifyGroupCert(msg.cert(), msg.entry()->digest())) return;
  StorePayload(key, msg.entry(), msg.cert());
  // Distribute the payload to every other group (one-way from the master)
  // and within the master's own group.
  SendLeaderOneWay(msg.entry(), msg.cert());
  BroadcastLan(std::make_shared<EntryTransferMsg>(msg.entry(), msg.cert()));

  uint64_t gseq = next_global_seq_++;
  global_seq_digest_[gseq] = msg.entry()->digest();
  digest_index_[msg.entry()->digest()] = key;
  if (raft_ != nullptr)
    raft_->Propose(0, gseq, msg.entry()->digest(), msg.cert());
}

void GroupNode::MaybeTranslateGlobalCommits() {
  while (!pending_global_commits_.empty()) {
    uint64_t gseq = pending_global_commits_.front();
    auto digest_it = global_seq_digest_.find(gseq);
    if (digest_it == global_seq_digest_.end()) break;
    auto origin_it = digest_index_.find(digest_it->second);
    if (origin_it == digest_index_.end()) break;
    pending_global_commits_.pop_front();
    Key key = origin_it->second;
    RelayToGroup(
        RelayEvent{RelayEvent::kCommitted, key.first, key.second, 0, 0});
  }
}

// ------------------------------------------------------------------- ISS

void GroupNode::OnEpochTimer(uint64_t epoch) {
  if (epoch != timer_epoch_) return;
  // Seal the finished epoch and announce its entry range.
  uint64_t count = next_local_seq_ - epoch_first_seq_;
  auto marker = std::make_shared<EpochMarkerMsg>(
      static_cast<uint16_t>(my_group()), current_epoch_, count);
  for (int g = 0; g < num_groups(); ++g)
    if (g != my_group()) SendWan(LeaderOf(g), marker);
  BroadcastLan(marker);
  if (epoch_ordering_ != nullptr) {
    epoch_ordering_->OnEpochSealed(static_cast<uint16_t>(my_group()),
                                   current_epoch_, epoch_first_seq_, count);
    PokeOrdering();
  }
  ++current_epoch_;
  epoch_first_seq_ = next_local_seq_;
  After(config_.epoch_length, [this, epoch] { OnEpochTimer(epoch); });
}

void GroupNode::OnEpochMarker(NodeId from, const EpochMarkerMsg& msg) {
  if (from.group != my_group() && IsGroupLeader())
    BroadcastLan(std::make_shared<EpochMarkerMsg>(msg.gid(), msg.epoch(),
                                                  msg.count()));
  if (epoch_ordering_ != nullptr) {
    uint64_t first = epoch_next_first_[msg.gid()];
    epoch_ordering_->OnEpochSealed(msg.gid(), msg.epoch(), first, msg.count());
    epoch_next_first_[msg.gid()] = first + msg.count();
    PokeOrdering();
  }
}

// -------------------------------------------------- MassBFT fault handling

void GroupNode::OnHeartbeatTimer(uint64_t epoch) {
  if (epoch != timer_epoch_) return;
  auto hb = std::make_shared<GroupHeartbeatMsg>(
      static_cast<uint16_t>(my_group()), next_local_seq_);
  for (int g = 0; g < num_groups(); ++g)
    if (g != my_group()) SendWan(LeaderOf(g), hb);
  CheckGroupLiveness();
  After(kHeartbeatInterval,
        [this, epoch] { OnHeartbeatTimer(epoch); });
}

void GroupNode::CheckGroupLiveness() {
  for (int g = 0; g < num_groups(); ++g) {
    uint16_t gid = static_cast<uint16_t>(g);
    if (g == my_group() || dead_groups_.contains(gid)) continue;
    if (Now() - last_heartbeat_[gid] > config_.group_crash_timeout)
      StartTakeover(gid);
  }
}

void GroupNode::StartTakeover(uint16_t dead_gid) {
  dead_groups_.insert(dead_gid);
  // The lowest-id alive group's leader represents the crashed group's Raft
  // instance and freezes its clock (paper Section V-C, "Crashed Groups").
  int takeover = -1;
  for (int g = 0; g < num_groups(); ++g) {
    if (g == dead_gid || dead_groups_.contains(static_cast<uint16_t>(g)))
      continue;
    takeover = g;
    break;
  }
  if (takeover != my_group() || raft_ == nullptr) return;
  raft_->TakeOverInstance(dead_gid);

  // Freeze agreement round: a stamp the dying group issued may have
  // reached only some groups; assigning a lower frozen value would break
  // per-assigner monotonicity (and with it, deterministic ordering). Ask
  // every alive leader for its highest observed stamp first.
  FreezeRound& round = freeze_rounds_[dead_gid];
  round.expected.clear();
  for (int g = 0; g < num_groups(); ++g) {
    uint16_t gid = static_cast<uint16_t>(g);
    if (g == my_group() || dead_groups_.contains(gid)) continue;
    round.expected.insert(gid);
    SendWan(LeaderOf(g), std::make_shared<FreezeMsg>(MessageType::kFreezeQuery,
                                                     dead_gid, 0));
  }
  round.max_seen = max_ts_seen_[dead_gid];
  if (round.expected.empty()) FinishFreezeRound(dead_gid);
}

void GroupNode::FinishFreezeRound(uint16_t dead_gid) {
  FreezeRound& round = freeze_rounds_[dead_gid];
  frozen_clock_[dead_gid] =
      std::max(round.max_seen, max_ts_seen_[dead_gid]);
  max_ts_seen_[dead_gid] = frozen_clock_[dead_gid];
  EmitTakeoverTimestamps(dead_gid);
}

void GroupNode::EmitTakeoverTimestamps(uint16_t dead_gid) {
  uint64_t frozen = frozen_clock_[dead_gid];
  std::vector<TimestampElement> elements;
  for (const Key& key : unexecuted_committed_) {
    elements.push_back(
        TimestampElement{dead_gid, key.first, key.second, frozen});
  }
  if (elements.empty()) return;
  auto msg = std::make_shared<TimestampAssignMsg>(elements);
  for (int g = 0; g < num_groups(); ++g)
    if (g != my_group() && !dead_groups_.contains(static_cast<uint16_t>(g)))
      SendWan(LeaderOf(g), msg);
  for (const TimestampElement& e : elements)
    RelayToGroup(RelayEvent{RelayEvent::kTimestamp, e.target_gid,
                            e.target_seq, e.assigner_gid, e.ts});
}

void GroupNode::OnTimestampAssign(const TimestampAssignMsg& msg) {
  for (const TimestampElement& e : msg.elements())
    RelayToGroup(RelayEvent{RelayEvent::kTimestamp, e.target_gid,
                            e.target_seq, e.assigner_gid, e.ts},
                 msg.replay());
}

// -------------------------------------------------- Ordering & execution

void GroupNode::SetupOrdering() {
  auto can_execute = [this](uint16_t gid, uint64_t seq) {
    return CanExecute(gid, seq);
  };
  auto execute = [this](uint16_t gid, uint64_t seq) {
    ExecuteEntry(gid, seq);
  };
  switch (config_.ordering) {
    case OrderingMode::kAsyncVts:
      vts_ordering_ = std::make_unique<VtsOrderingEngine>(
          num_groups(), VtsOrderingEngine::Callbacks{can_execute, execute});
      // Leader-only: the engine runs on every node, but cluster-wide
      // counters should count each decision once per group.
      if (IsGroupLeader())
        vts_ordering_->set_telemetry(tel_, trace_track_,
                                     [this] { return Now(); });
      break;
    case OrderingMode::kRoundSync:
      round_ordering_ = std::make_unique<RoundOrderingEngine>(
          num_groups(), RoundOrderingEngine::Callbacks{can_execute, execute});
      break;
    case OrderingMode::kEpoch:
      epoch_ordering_ = std::make_unique<EpochOrderingEngine>(
          num_groups(), EpochOrderingEngine::Callbacks{can_execute, execute});
      break;
    case OrderingMode::kFifo:
      break;  // fifo_queue_ driven in PokeOrdering.
  }
}

bool GroupNode::CanExecute(uint16_t gid, uint64_t seq) const {
  auto it = entries_.find(Key{gid, seq});
  if (it == entries_.end()) return false;
  const EntryRecord& rec = it->second;
  return rec.payload_available && rec.globally_committed && !rec.executed;
}

void GroupNode::ExecuteEntry(uint16_t gid, uint64_t seq) {
  Key key{gid, seq};
  EntryRecord& rec = GetRecord(key);
  MASSBFT_CHECK(rec.payload_available && !rec.executed);
  rec.executed = true;
  unexecuted_committed_.erase(key);
  executed_next_[gid] = std::max(executed_next_[gid], seq + 1);
  execution_log_.emplace_back(gid, seq);
  // No sender encodes an executed entry again: drop its memoized encodings.
  const Digest& digest = rec.entry->digest();
  auto& memo = ctx_->encode_cache;
  for (auto it = memo.lower_bound({digest, 0});
       it != memo.end() && it->first.first == digest;)
    it = memo.erase(it);
  if (!executed_digests_.insert(digest).second) return;

  const EntryPtr& entry = rec.entry;
  int n = entry->num_txns();
  executed_txns_ += n;
  SimTime done_at = cpu().ChargeExec(n);
  if (n == 0) return;

  if (!IsExecutor()) return;  // CPU charged; state tracked by leaders.

  AriaBatchResult result = aria_->ExecuteBatch(entry->txns());
  bool owns_metrics =
      IsGroupLeader() && static_cast<int>(gid) == my_group() && !crashed();
  if (owns_metrics) {
    txns_exec_counter_->Add(n);
    conflict_abort_counter_->Add(result.conflict_aborts.size());
    // Business aborts complete deterministically and are never retried
    // (Aria): they are the run's permanently-aborted transactions.
    logic_abort_counter_->Add(result.logic_aborts);
    if (rec.global_committed_at >= 0)
      tel_->RecordPhaseSpan(obs::Phase::kExecution, trace_track_,
                            rec.global_committed_at, done_at, gid, seq);

    // Conflict-aborted transactions re-enter the next batch
    // deterministically (Aria); committed ones notify their clients.
    std::set<size_t> aborted(result.conflict_aborts.begin(),
                             result.conflict_aborts.end());
    for (size_t i = 0; i < entry->txns().size(); ++i) {
      const Transaction& txn = entry->txns()[i];
      if (aborted.contains(i)) {
        pending_txns_.push_back(txn);
      } else if (ctx_->on_txn_committed) {
        ctx_->on_txn_committed(txn, done_at);
      }
    }
    if (!aborted.empty()) TryFormBatch(false);
  }
}

void GroupNode::PokeOrdering() {
  if (vts_ordering_ != nullptr) vts_ordering_->Poke();
  if (round_ordering_ != nullptr) round_ordering_->Poke();
  if (epoch_ordering_ != nullptr) epoch_ordering_->Poke();
  if (config_.ordering == OrderingMode::kFifo) {
    while (!fifo_queue_.empty()) {
      Key key = fifo_queue_.front();
      if (!CanExecute(key.first, key.second)) {
        // Skip already-executed duplicates; block on genuinely pending.
        auto it = entries_.find(key);
        if (it != entries_.end() && it->second.executed) {
          fifo_queue_.pop_front();
          continue;
        }
        break;
      }
      fifo_queue_.pop_front();
      ExecuteEntry(key.first, key.second);
    }
  }
}

// --------------------------------------------------------------- Dispatch

void GroupNode::HandleMessage(NodeId from, MessagePtr message) {
  if (crashed()) return;
  switch (static_cast<MessageType>(message->type())) {
    case MessageType::kPrePrepare:
    case MessageType::kPrepare:
    case MessageType::kCommit:
    case MessageType::kViewChange:
    case MessageType::kNewView:
      pbft_->OnMessage(from, message);
      break;
    case MessageType::kCertifyRequest:
    case MessageType::kCertifyVote:
      certifier_->OnMessage(from, message);
      break;
    case MessageType::kEntryTransfer:
      OnEntryTransfer(from, static_cast<const EntryTransferMsg&>(*message));
      break;
    case MessageType::kChunkBatch:
      OnChunkBatch(from, message);
      break;
    case MessageType::kRaftPropose: {
      const auto& propose = static_cast<const RaftProposeMsg&>(*message);
      if (config_.single_master && propose.gid() == 0) {
        global_seq_digest_[propose.seq()] = propose.digest();
      }
      if (raft_ != nullptr) raft_->OnProposeControl(propose);
      break;
    }
    case MessageType::kRaftAccept:
      if (raft_ != nullptr)
        raft_->OnAccept(static_cast<const RaftAcceptMsg&>(*message));
      break;
    case MessageType::kRaftCommit:
      if (raft_ != nullptr)
        raft_->OnCommit(static_cast<const RaftCommitMsg&>(*message));
      break;
    case MessageType::kTimestampAssign:
      OnTimestampAssign(static_cast<const TimestampAssignMsg&>(*message));
      break;
    case MessageType::kGroupHeartbeat: {
      const auto& hb = static_cast<const GroupHeartbeatMsg&>(*message);
      last_heartbeat_[hb.gid()] = Now();
      if (dead_groups_.contains(hb.gid())) OnGroupRejoined(hb.gid());
      break;
    }
    case MessageType::kGroupRelay: {
      const auto& relay = static_cast<const GroupRelayMsg&>(*message);
      if (from.group != my_group() && IsGroupLeader()) {
        // Catch-up replay from a peer group: forward to our own group.
        for (const RelayEvent& event : relay.events())
          RelayToGroup(event, relay.replay());
      } else {
        for (const RelayEvent& event : relay.events()) ApplyRelayEvent(event);
      }
      break;
    }
    case MessageType::kEpochMarker:
      OnEpochMarker(from, static_cast<const EpochMarkerMsg&>(*message));
      break;
    case MessageType::kLeaderForward:
      OnLeaderForward(static_cast<const LeaderForwardMsg&>(*message));
      break;
    case MessageType::kCatchUpRequest:
      OnCatchUpRequest(from, static_cast<const CatchUpRequestMsg&>(*message));
      break;
    case MessageType::kFreezeQuery: {
      const auto& query = static_cast<const FreezeMsg&>(*message);
      SendWan(from, std::make_shared<FreezeMsg>(
                        MessageType::kFreezeReport, query.dead_gid(),
                        max_ts_seen_[query.dead_gid()]));
      break;
    }
    case MessageType::kCatchUpDone:
      FinishSync();
      break;
    case MessageType::kFreezeReport: {
      const auto& report = static_cast<const FreezeMsg&>(*message);
      auto it = freeze_rounds_.find(report.dead_gid());
      if (it == freeze_rounds_.end()) break;
      FreezeRound& round = it->second;
      round.max_seen = std::max(round.max_seen, report.max_seen());
      round.expected.erase(from.group);
      if (round.expected.empty()) FinishFreezeRound(report.dead_gid());
      break;
    }
    default:
      MASSBFT_LOG(kWarn) << "unhandled message type " << message->type();
  }
}

void GroupNode::Crash() {
  ++timer_epoch_;  // Kill live timer chains.
  Actor::Crash();
}

void GroupNode::Recover() {
  Actor::Recover();
  ++timer_epoch_;
  rejoined_ = true;
  Start();  // Restart batch/heartbeat/epoch timer chains.
  if (!IsGroupLeader()) return;
  // Buffer live timestamps until the catch-up history is applied (with a
  // failsafe flush in case the helper never responds).
  syncing_ = true;
  After(4 * kSecond, [this] { FinishSync(); });
  // Ask every peer group's leader to replay what we missed; replies are
  // deduplicated by the entry store. (Paper Section V-C: the recovered
  // group resumes serving requests; the takeover group hands the Raft
  // instance back once our heartbeats reappear.)
  std::vector<std::pair<uint16_t, uint64_t>> frontier;
  for (int g = 0; g < num_groups(); ++g) {
    uint16_t gid = static_cast<uint16_t>(g);
    auto it = executed_next_.find(gid);
    frontier.push_back({gid, it != executed_next_.end() ? it->second : 0});
  }
  auto request = std::make_shared<CatchUpRequestMsg>(std::move(frontier));
  // One helper suffices (and keeps the replay off every uplink); pick the
  // lowest-id other group, which is also the takeover group by convention.
  for (int g = 0; g < num_groups(); ++g) {
    if (g == my_group()) continue;
    SendWan(LeaderOf(g), request);
    break;
  }

  // Fill holes in our own instance: re-propose entries that were in
  // flight when we crashed (receivers resend their cached accepts; any
  // entry whose chunk transfer died with us is re-shipped one-way).
  if (raft_ != nullptr) {
    for (const auto& [key, rec] : entries_) {
      if (key.first != my_group()) continue;
      if (!rec.payload_available || rec.globally_committed)
        continue;
      SendLeaderOneWay(rec.entry, rec.cert);
      raft_->Propose(key.first, key.second, rec.entry->digest(), rec.cert);
    }
  }
}

void GroupNode::OnCatchUpRequest(NodeId from, const CatchUpRequestMsg& msg) {
  if (!IsGroupLeader()) return;
  // Requested frontiers, defaulting to 0.
  std::map<uint16_t, uint64_t> frontier;
  for (const auto& [gid, next] : msg.executed_next())
    frontier[gid] = std::max(frontier[gid], next);

  std::vector<RelayEvent> commits;
  std::vector<TimestampElement> elements;
  for (const auto& [key, rec] : entries_) {
    if (key.second < frontier[key.first]) continue;  // Already executed.
    // Ship every payload we hold past the frontier — entries whose chunks
    // were dropped while the requester was down may not be globally
    // committed yet at snapshot time.
    if (rec.payload_available)
      SendWan(from, std::make_shared<EntryTransferMsg>(rec.entry, rec.cert));
    if (!rec.globally_committed) continue;
    commits.push_back(
        RelayEvent{RelayEvent::kCommitted, key.first, key.second, 0, 0});
    auto vts = recorded_vts_.find(key);
    if (vts != recorded_vts_.end())
      for (const auto& [assigner, ts] : vts->second)
        elements.push_back(
            TimestampElement{assigner, key.first, key.second, ts});
  }
  // Replay must preserve per-assigner non-decreasing stamp order (the
  // invariant Algorithm 2's inference relies on); recorded_vts_ iterates
  // by entry, so sort by stamp value before shipping.
  std::stable_sort(elements.begin(), elements.end(),
                   [](const TimestampElement& a, const TimestampElement& b) {
                     return a.ts < b.ts;
                   });
  if (!commits.empty())
    SendWan(from, std::make_shared<GroupRelayMsg>(std::move(commits),
                                                  /*replay=*/true));
  if (!elements.empty())
    SendWan(from, std::make_shared<TimestampAssignMsg>(std::move(elements),
                                                       /*replay=*/true));
  SendWan(from, std::make_shared<CatchUpDoneMsg>());
}

void GroupNode::OnGroupRejoined(uint16_t gid) {
  dead_groups_.erase(gid);
  if (raft_ != nullptr && raft_->HasTakenOver(gid))
    raft_->ReleaseInstance(gid);  // Hand the instance back (Section V-C).
}

GroupNode::RecordView GroupNode::InspectRecord(uint16_t gid,
                                               uint64_t seq) const {
  RecordView view;
  auto it = entries_.find(Key{gid, seq});
  if (it == entries_.end()) return view;
  view.exists = true;
  view.payload_available = it->second.payload_available;
  view.globally_committed = it->second.globally_committed;
  view.executed = it->second.executed;
  return view;
}

}  // namespace massbft
