#include "consensus/pbft/pbft.h"

#include <utility>

#include "common/codec.h"
#include "common/logging.h"

namespace massbft {

PbftEngine::PbftEngine(uint16_t gid, NodeId self, int group_size,
                       Callbacks callbacks)
    : gid_(gid), self_(self), n_(group_size), f_((group_size - 1) / 3),
      voters_{gid, group_size, 2 * f_ + 1}, cb_(std::move(callbacks)) {
  MASSBFT_CHECK(self.group == gid);
  if (cb_.telemetry != nullptr) {
    obs::MetricsRegistry& registry = cb_.telemetry->registry();
    prepare_hist_ = registry.GetHistogram("pbft/prepare_ms");
    commit_hist_ = registry.GetHistogram("pbft/commit_ms");
    view_change_counter_ = registry.GetCounter("pbft/view_changes");
  }
}

void PbftEngine::ObservePhase(const char* name, obs::Histogram* hist,
                              SimTime start, SimTime end, uint64_t seq) {
  if (hist == nullptr || start < 0) return;
  hist->Record(SimToSeconds(end - start) * 1e3);
  obs::TraceRecorder& trace = cb_.telemetry->trace();
  if (trace.enabled()) {
    trace.RecordSpan(cb_.trace_track, "pbft", name, start, end,
                     obs::TraceArgs{{{"gid", static_cast<double>(gid_)},
                                     {"seq", static_cast<double>(seq)}}});
  }
}

Bytes PbftEngine::VotePayload(uint64_t view, uint64_t seq,
                              const Digest& digest, MessageType phase) const {
  // Commit votes sign the bare entry digest: the 2f+1 commit signatures
  // ARE the certificate that travels with the entry, and remote groups
  // verify it against the digest alone (Certificate::Verify). The digest
  // already binds the entry identity (gid, seq, transactions).
  if (phase == MessageType::kCommit)
    return Bytes(digest.begin(), digest.end());
  BinaryWriter w(64);
  w.PutU8(static_cast<uint8_t>(phase));
  w.PutU16(gid_);
  w.PutU64(view);
  w.PutU64(seq);
  w.PutRaw(digest.data(), digest.size());
  return w.Release();
}

uint64_t PbftEngine::Propose(EntryPtr entry) {
  MASSBFT_CHECK(IsLeader());
  uint64_t seq = next_seq_++;
  Instance& inst = GetInstance(seq);
  inst.entry = entry;
  inst.digest = entry->digest();
  inst.digest_known = true;
  if (cb_.now) inst.started_at = cb_.now();
  inst.validated = true;  // The leader built the batch; it has verified
                          // client signatures on ingest.
  Signature sig =
      cb_.sign(VotePayload(view_, seq, inst.digest, MessageType::kPrePrepare));
  auto msg = std::make_shared<PrePrepareMsg>(view_, seq, entry, sig);
  cb_.broadcast(msg);
  // The leader's pre-prepare stands in for its prepare vote; record it so
  // quorum counting is uniform.
  inst.prepares.AddVerified(
      self_.index,
      cb_.sign(VotePayload(view_, seq, inst.digest, MessageType::kPrepare)));
  MaybePrepare(seq);
  return seq;
}

void PbftEngine::OnMessage(NodeId from, const MessagePtr& message) {
  if (from.group != gid_) return;  // Local consensus is intra-group only.
  switch (static_cast<MessageType>(message->type())) {
    case MessageType::kPrePrepare:
      OnPrePrepare(from, static_cast<const PrePrepareMsg&>(*message));
      break;
    case MessageType::kPrepare:
    case MessageType::kCommit:
      OnVote(from, static_cast<const PbftVoteMsg&>(*message));
      break;
    case MessageType::kViewChange:
      OnViewChangeVote(from, static_cast<const ViewChangeMsg&>(*message));
      break;
    case MessageType::kNewView: {
      const auto& nv = static_cast<const ViewChangeMsg&>(*message);
      if (nv.new_view() > view_) EnterView(nv.new_view());
      break;
    }
    default:
      MASSBFT_LOG(kWarn) << "pbft: unexpected message type "
                         << message->type();
  }
}

void PbftEngine::OnPrePrepare(NodeId from, const PrePrepareMsg& msg) {
  if (msg.view() != view_) return;
  if (from.index != leader_index()) return;  // Only the leader proposes.
  Instance& inst = GetInstance(msg.seq());
  if (inst.digest_known) return;  // Duplicate (or equivocation; first wins —
                                  // equivocation cannot gather two quorums).
  const Digest& digest = msg.entry()->digest();
  if (!cb_.verify({from},
                  VotePayload(msg.view(), msg.seq(), digest,
                              MessageType::kPrePrepare),
                  {&msg.sig()}))
    return;

  inst.entry = msg.entry();
  inst.digest = digest;
  inst.digest_known = true;
  if (cb_.now) inst.started_at = cb_.now();
  // The pre-prepare stands in for the leader's prepare vote (classic PBFT
  // counts it toward the 2f+1 prepare quorum).
  inst.prepares.AddVerified(from.index, msg.sig());
  ArmViewChangeTimer(msg.seq());

  // Validate the batch (per-transaction signature verification — the
  // dominant CPU cost of local consensus per the paper's Fig 11), then
  // vote prepare.
  uint64_t seq = msg.seq();
  cb_.validate_entry(msg.entry(), [this, seq](bool valid) {
    if (!valid) return;  // Faulty leader; the view-change timer handles it.
    Instance& inst = GetInstance(seq);
    inst.validated = true;
    Signature own =
        cb_.sign(VotePayload(view_, seq, inst.digest, MessageType::kPrepare));
    inst.prepares.AddVerified(self_.index, own);
    cb_.broadcast(std::make_shared<PbftVoteMsg>(MessageType::kPrepare, view_,
                                                seq, inst.digest, own));
    MaybePrepare(seq);
    MaybeCommit(seq);
  });
}

void PbftEngine::OnVote(NodeId from, const PbftVoteMsg& msg) {
  if (msg.view() != view_) return;
  Instance& inst = GetInstance(msg.seq());
  // A vote for another digest never counts. One that arrives before the
  // pre-prepare is held with the digest it claims, and dropped once the
  // pre-prepare names another.
  if (inst.digest_known && msg.digest() != inst.digest) return;
  Bytes payload =
      VotePayload(msg.view(), msg.seq(), msg.digest(), msg.message_type());
  if (msg.message_type() == MessageType::kPrepare) {
    inst.prepares.AddUnverified(voters_, from.index, std::move(payload),
                                msg.sig(), cb_.verify);
    MaybePrepare(msg.seq());
  } else {
    inst.commits.AddUnverified(voters_, from.index, std::move(payload),
                               msg.sig(), cb_.verify);
    MaybeCommit(msg.seq());
  }
}

void PbftEngine::MaybePrepare(uint64_t seq) {
  Instance& inst = GetInstance(seq);
  // Prepared: the node has the pre-prepare (digest + validated entry) and
  // 2f+1 verified prepare votes (its own included).
  if (inst.prepared || !inst.validated ||
      !inst.prepares.Resolve(
          voters_, VotePayload(view_, seq, inst.digest, MessageType::kPrepare),
          cb_.verify))
    return;
  inst.prepared = true;
  if (cb_.now) {
    inst.prepared_at = cb_.now();
    ObservePhase("prepare", prepare_hist_, inst.started_at, inst.prepared_at,
                 seq);
  }
  Signature own =
      cb_.sign(VotePayload(view_, seq, inst.digest, MessageType::kCommit));
  inst.commits.AddVerified(self_.index, own);
  cb_.broadcast(std::make_shared<PbftVoteMsg>(MessageType::kCommit, view_, seq,
                                              inst.digest, own));
  MaybeCommit(seq);
}

void PbftEngine::MaybeCommit(uint64_t seq) {
  Instance& inst = GetInstance(seq);
  if (inst.committed || !inst.prepared ||
      !inst.commits.Resolve(
          voters_, VotePayload(view_, seq, inst.digest, MessageType::kCommit),
          cb_.verify))
    return;
  inst.committed = true;
  ++committed_count_;
  if (cb_.now)
    ObservePhase("commit", commit_hist_, inst.prepared_at, cb_.now(), seq);
  cb_.on_committed(inst.entry,
                   inst.commits.MakeCertificate(voters_, inst.digest));
}

void PbftEngine::ArmViewChangeTimer(uint64_t seq) {
  if (view_change_timeout_ <= 0) return;
  Instance& inst = GetInstance(seq);
  if (inst.timer_armed) return;
  inst.timer_armed = true;
  uint64_t armed_view = view_;
  cb_.after(view_change_timeout_, [this, seq, armed_view]() {
    const Instance& inst = GetInstance(seq);
    if (inst.committed || view_ != armed_view) return;
    // Leader stalled: vote to move to the next view.
    uint64_t proposed = view_ + 1;
    view_change_votes_[proposed].insert(self_.index);
    cb_.broadcast(std::make_shared<ViewChangeMsg>(MessageType::kViewChange,
                                                  proposed, next_seq_,
                                                  /*proof_bytes=*/
                                                  64 * (2 * f_ + 1)));
    if (static_cast<int>(view_change_votes_[proposed].size()) >= quorum())
      EnterView(proposed);
  });
}

void PbftEngine::OnViewChangeVote(NodeId from, const ViewChangeMsg& msg) {
  if (msg.new_view() <= view_) return;
  auto& votes = view_change_votes_[msg.new_view()];
  votes.insert(from.index);
  // Echo once so votes accumulate even at nodes whose timers have not
  // fired (standard view-change amplification at f+1).
  if (!votes.contains(self_.index) &&
      static_cast<int>(votes.size()) >= f_ + 1) {
    votes.insert(self_.index);
    cb_.broadcast(std::make_shared<ViewChangeMsg>(
        MessageType::kViewChange, msg.new_view(), next_seq_,
        64 * (2 * f_ + 1)));
  }
  if (static_cast<int>(votes.size()) >= quorum()) EnterView(msg.new_view());
}

void PbftEngine::EnterView(uint64_t new_view) {
  if (new_view <= view_) return;
  view_ = new_view;
  view_change_votes_.clear();
  if (view_change_counter_ != nullptr) view_change_counter_->Add();

  // Collect uncommitted proposals; the new leader re-proposes them.
  std::vector<EntryPtr> unfinished;
  for (auto& [seq, inst] : instances_) {
    if (!inst.committed && inst.entry != nullptr)
      unfinished.push_back(inst.entry);
    if (!inst.committed) inst = Instance{};  // Reset in-flight state.
  }

  if (IsLeader()) {
    cb_.broadcast(std::make_shared<ViewChangeMsg>(
        MessageType::kNewView, view_, next_seq_, 64 * (2 * f_ + 1)));
    for (const EntryPtr& entry : unfinished) Propose(entry);
  }
  if (cb_.on_view_change) cb_.on_view_change(view_, leader());
}

}  // namespace massbft
