#ifndef MASSBFT_CONSENSUS_PBFT_VOTE_QUORUM_H_
#define MASSBFT_CONSENSUS_PBFT_VOTE_QUORUM_H_

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "crypto/signature.h"
#include "proto/entry.h"

namespace massbft {

/// Checks `sigs[i]` as `nodes[i]`'s signature over `payload`, all in one
/// pass (KeyRegistry::VerifyBatch); true iff every signature is valid. A
/// one-element call is a plain signature check. The owner charges the
/// simulated CPU per signature checked.
using VerifySigsFn =
    std::function<bool(const std::vector<NodeId>& nodes, const Bytes& payload,
                       const std::vector<const Signature*>& sigs)>;

/// The members of one group who vote in a phase, and the quorum they need.
struct VoterSet {
  uint16_t gid = 0;
  int size = 0;    // Members are indices 0..size-1.
  int quorum = 0;  // 2f+1.
};

/// The votes of one phase of one group, where every voter signs the same
/// payload (a PBFT prepare or commit phase, or a certifier decision).
/// Votes are stored unverified and checked only when they can complete
/// the quorum: once verified + waiting votes reach 2f+1, exactly the
/// missing number is checked in one batch, and votes arriving after the
/// quorum is held are dropped unchecked. A failed batch falls back to
/// per-signature checks that discard the forgers; spare waiting votes
/// then fill the gap, and a member whose vote was discarded may vote
/// again. Only verified votes count toward the quorum or reach a
/// Certificate.
///
/// A member holds at most one waiting vote. Message senders are not
/// authenticated, so a different vote in the same member's name is
/// settled at once: the waiting vote is checked over its own payload and
/// stays if it is genuine, else the newcomer takes its place. A forgery
/// therefore never displaces a member's real vote, whichever arrives
/// first, and costs at most one check.
class VoteQuorum {
 public:
  /// Records a vote that needs no check: this node's own, or one the
  /// caller verified on another path (the PBFT pre-prepare).
  void AddVerified(uint16_t index, const Signature& sig);

  /// Records `index`'s unchecked vote, claimed to sign `payload` (which
  /// may differ from the phase's payload while that is still unknown).
  /// Dropped when `index` is not a member, already counts, or the quorum
  /// is held.
  void AddUnverified(const VoterSet& voters, uint16_t index, Bytes payload,
                     const Signature& sig, const VerifySigsFn& verify);

  /// Settles the waiting votes against the phase's `payload`: those that
  /// claim other bytes are dropped, and if verified + waiting votes reach
  /// the quorum the missing ones are checked. Returns true iff the quorum
  /// of verified votes is held.
  bool Resolve(const VoterSet& voters, const Bytes& payload,
               const VerifySigsFn& verify);

  /// A certificate over `digest` from the first `voters.quorum` verified
  /// votes.
  [[nodiscard]] Certificate MakeCertificate(const VoterSet& voters,
                                            const Digest& digest) const;

 private:
  struct Waiting {
    Bytes payload;
    Signature sig;
    /// Already verified over `payload` (when it was contested).
    bool checked = false;
  };

  [[nodiscard]] bool HasQuorum(const VoterSet& voters) const {
    return static_cast<int>(verified_.size()) >= voters.quorum;
  }

  std::map<uint16_t, Signature> verified_;
  std::map<uint16_t, Waiting> waiting_;
};

}  // namespace massbft

#endif  // MASSBFT_CONSENSUS_PBFT_VOTE_QUORUM_H_
