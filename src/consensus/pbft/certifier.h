#ifndef MASSBFT_CONSENSUS_PBFT_CERTIFIER_H_
#define MASSBFT_CONSENSUS_PBFT_CERTIFIER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <set>

#include "common/bytes.h"
#include "consensus/pbft/vote_quorum.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "proto/entry.h"
#include "proto/messages.h"

namespace massbft {

/// Skip-prepare local consensus on group decisions (paper Section II-A,
/// after Ziziphus): the group leader broadcasts a decision; followers sign
/// it once their local admission predicate holds; the leader aggregates
/// 2f+1 signatures into a Certificate. Used for the Raft `accept` receipt
/// (a follower only signs once it has the actual entry — this is what makes
/// Lemma V.1's atomicity argument go through) and for the Raft `commit`
/// decision.
///
/// Followers honour requests from the group leader only: the decisions
/// (notably "commit (gid, seq)") are the leader's to make, and a follower
/// that could collect 2f+1 shares on its own request could certify a
/// commit the global Raft never reached. State is bounded by the decisions
/// in flight: the leader forgets a decision once certified, a follower
/// once it has voted.
class DigestCertifier {
 public:
  /// Decision kinds (DecisionId::kind).
  enum Kind : uint8_t {
    kAccept = 1,
    kCommitDecision = 2,
  };

  struct Callbacks {
    std::function<void(MessagePtr)> broadcast;
    std::function<void(NodeId, MessagePtr)> send_to;
    std::function<Signature(const Bytes&)> sign;
    /// Verifies group members' signatures over one payload in one batch.
    VerifySigsFn verify;
    /// Follower admission predicate. Returning false defers the vote; the
    /// owner must call RecheckPending() when its state advances (e.g. an
    /// entry finishes rebuilding).
    std::function<bool(const DecisionId&)> can_sign;
    /// Leader-side completion with the aggregated certificate.
    std::function<void(const DecisionId&, Certificate)> on_certified;
  };

  /// `leader_index` names the group member whose requests followers honour.
  DigestCertifier(uint16_t gid, NodeId self, int group_size,
                  uint16_t leader_index, Callbacks callbacks);

  /// The digest all parties sign for a decision (also what remote groups
  /// verify a resulting Certificate against).
  static Digest DecisionDigest(const DecisionId& decision);

  /// Leader: starts certification of `decision` (a no-op while the same
  /// decision is still collecting votes).
  void Start(const DecisionId& decision);

  /// Dispatch for kCertifyRequest / kCertifyVote.
  void OnMessage(NodeId from, const MessagePtr& message);

  /// Re-evaluates deferred follower votes (call when local state advances).
  void RecheckPending();

  int quorum() const { return voters_.quorum; }

  /// Decisions this node still holds state for: those collecting votes
  /// (leader) plus those waiting for `can_sign` (follower).
  [[nodiscard]] size_t held_decisions() const {
    return collecting_.size() + deferred_.size();
  }

 private:
  /// Signs `decision` and sends the share to the leader.
  void Vote(const DecisionId& decision);
  /// Leader: certifies `decision` once its votes hold a verified quorum.
  void MaybeCertify(const DecisionId& decision, VoteQuorum& votes);

  uint16_t gid_;
  NodeId self_;
  VoterSet voters_;
  uint16_t leader_index_;
  Callbacks cb_;
  /// Leader: shares collected per decision still short of a quorum.
  std::map<DecisionId, VoteQuorum> collecting_;
  /// Follower: leader requests whose `can_sign` has not yet held.
  std::set<DecisionId> deferred_;
};

}  // namespace massbft

#endif  // MASSBFT_CONSENSUS_PBFT_CERTIFIER_H_
