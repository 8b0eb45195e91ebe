#include "consensus/pbft/vote_quorum.h"

#include <utility>

namespace massbft {

void VoteQuorum::AddVerified(uint16_t index, const Signature& sig) {
  waiting_.erase(index);
  verified_.try_emplace(index, sig);
}

void VoteQuorum::AddUnverified(const VoterSet& voters, uint16_t index,
                               Bytes payload, const Signature& sig,
                               const VerifySigsFn& verify) {
  if (index >= voters.size || HasQuorum(voters) || verified_.contains(index))
    return;
  auto [it, inserted] = waiting_.try_emplace(index);
  Waiting& held = it->second;
  if (!inserted) {
    if (held.checked || (held.sig == sig && held.payload == payload)) return;
    // Contested: keep the waiting vote only if it is genuine.
    if (verify({NodeId{voters.gid, index}}, held.payload, {&held.sig})) {
      held.checked = true;
      return;
    }
  }
  held = Waiting{std::move(payload), sig, false};
}

bool VoteQuorum::Resolve(const VoterSet& voters, const Bytes& payload,
                         const VerifySigsFn& verify) {
  // A vote over other bytes never counts; one already checked over these
  // needs no second check.
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    if (it->second.payload != payload) {
      it = waiting_.erase(it);
    } else if (it->second.checked) {
      verified_.try_emplace(it->first, it->second.sig);
      it = waiting_.erase(it);
    } else {
      ++it;
    }
  }
  while (!HasQuorum(voters) &&
         static_cast<int>(verified_.size() + waiting_.size()) >=
             voters.quorum) {
    // Check only as many votes as the quorum still misses; the rest stay
    // waiting as spares in case this batch holds a forger.
    const size_t missing = static_cast<size_t>(voters.quorum) - verified_.size();
    std::vector<uint16_t> indices;
    std::vector<NodeId> nodes;
    std::vector<const Signature*> sigs;
    for (auto it = waiting_.begin(); indices.size() < missing; ++it) {
      indices.push_back(it->first);
      nodes.push_back(NodeId{voters.gid, it->first});
      sigs.push_back(&it->second.sig);
    }
    const bool batch_ok = verify(nodes, payload, sigs);
    for (size_t i = 0; i < indices.size(); ++i) {
      auto it = waiting_.find(indices[i]);
      // A failed batch names no culprit: re-check each signature alone.
      if (batch_ok || (indices.size() > 1 &&
                       verify({nodes[i]}, payload, {&it->second.sig})))
        verified_.emplace(indices[i], it->second.sig);
      waiting_.erase(it);
    }
  }
  if (HasQuorum(voters)) waiting_.clear();
  return HasQuorum(voters);
}

Certificate VoteQuorum::MakeCertificate(const VoterSet& voters,
                                        const Digest& digest) const {
  Certificate cert;
  cert.gid = voters.gid;
  cert.digest = digest;
  for (const auto& [index, sig] : verified_) {
    if (static_cast<int>(cert.NumSignatures()) == voters.quorum) break;
    cert.AddSignature(index, sig);
  }
  return cert;
}

}  // namespace massbft
