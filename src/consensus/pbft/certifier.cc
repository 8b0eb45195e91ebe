#include "consensus/pbft/certifier.h"

#include <utility>

#include "common/codec.h"
#include "common/logging.h"

namespace massbft {

DigestCertifier::DigestCertifier(uint16_t gid, NodeId self, int group_size,
                                 uint16_t leader_index, Callbacks callbacks)
    : gid_(gid), self_(self),
      voters_{gid, group_size, 2 * ((group_size - 1) / 3) + 1},
      leader_index_(leader_index), cb_(std::move(callbacks)) {
  MASSBFT_CHECK(self.group == gid);
}

Digest DigestCertifier::DecisionDigest(const DecisionId& decision) {
  BinaryWriter w(32);
  w.PutU8(decision.kind);
  w.PutU16(decision.voter_gid);
  w.PutU16(decision.target_gid);
  w.PutU64(decision.target_seq);
  w.PutU64(decision.ts);
  return Sha256::Hash(w.buffer());
}

void DigestCertifier::Start(const DecisionId& decision) {
  auto [it, inserted] = collecting_.try_emplace(decision);
  if (!inserted) return;  // Already collecting.

  Digest digest = DecisionDigest(decision);
  Signature own = cb_.sign(Bytes(digest.begin(), digest.end()));
  it->second.AddVerified(self_.index, own);
  cb_.broadcast(std::make_shared<CertifyRequestMsg>(decision, own));
  // Degenerate single-node group: the leader's own share is the quorum.
  MaybeCertify(decision, it->second);
}

void DigestCertifier::MaybeCertify(const DecisionId& decision,
                                   VoteQuorum& votes) {
  Digest digest = DecisionDigest(decision);
  if (!votes.Resolve(voters_, Bytes(digest.begin(), digest.end()),
                     cb_.verify))
    return;
  Certificate cert = votes.MakeCertificate(voters_, digest);
  collecting_.erase(decision);  // Late shares are dropped unchecked.
  cb_.on_certified(decision, std::move(cert));
}

void DigestCertifier::OnMessage(NodeId from, const MessagePtr& message) {
  if (from.group != gid_) return;
  switch (static_cast<MessageType>(message->type())) {
    case MessageType::kCertifyRequest: {
      if (from.index != leader_index_) return;  // Only the leader decides.
      const auto& req = static_cast<const CertifyRequestMsg&>(*message);
      Digest digest = DecisionDigest(req.decision());
      if (!cb_.verify({from}, Bytes(digest.begin(), digest.end()),
                      {&req.sig()}))
        return;
      if (cb_.can_sign(req.decision())) {
        Vote(req.decision());
      } else {
        deferred_.insert(req.decision());
      }
      break;
    }
    case MessageType::kCertifyVote: {
      const auto& vote = static_cast<const CertifyVoteMsg&>(*message);
      auto it = collecting_.find(vote.decision());
      if (it == collecting_.end()) return;  // Not collecting (or done).
      Digest digest = DecisionDigest(vote.decision());
      it->second.AddUnverified(voters_, from.index,
                               Bytes(digest.begin(), digest.end()), vote.sig(),
                               cb_.verify);
      MaybeCertify(vote.decision(), it->second);
      break;
    }
    default:
      MASSBFT_LOG(kWarn) << "certifier: unexpected message type "
                         << message->type();
  }
}

void DigestCertifier::Vote(const DecisionId& decision) {
  Digest digest = DecisionDigest(decision);
  Signature sig = cb_.sign(Bytes(digest.begin(), digest.end()));
  cb_.send_to(NodeId{gid_, leader_index_},
              std::make_shared<CertifyVoteMsg>(decision, sig));
}

void DigestCertifier::RecheckPending() {
  for (auto it = deferred_.begin(); it != deferred_.end();) {
    if (cb_.can_sign(*it)) {
      Vote(*it);
      it = deferred_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace massbft
