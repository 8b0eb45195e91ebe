#include "replication/rebuilder.h"

#include <optional>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "ec/reed_solomon.h"

namespace massbft {

EntryRebuilder::EntryRebuilder(Config config) : config_(std::move(config)) {
  MASSBFT_CHECK(config_.n_total >= config_.n_data && config_.n_data >= 1);
  if (config_.telemetry != nullptr) {
    obs::MetricsRegistry& registry = config_.telemetry->registry();
    accepted_counter_ = registry.GetCounter("rebuild/chunks_accepted");
    duplicate_counter_ = registry.GetCounter("rebuild/chunks_duplicate");
    rejected_counter_ = registry.GetCounter("rebuild/chunks_rejected");
    rebuilt_counter_ = registry.GetCounter("rebuild/entries_rebuilt");
    fake_bucket_counter_ = registry.GetCounter("rebuild/fake_buckets");
  }
}

EntryRebuilder::AddResult EntryRebuilder::Count(AddResult result) {
  if (accepted_counter_ == nullptr) return result;
  switch (result) {
    case AddResult::kPending:
      accepted_counter_->Add();
      break;
    case AddResult::kDuplicate:
      duplicate_counter_->Add();
      break;
    case AddResult::kRejected:
      rejected_counter_->Add();
      break;
    case AddResult::kRebuilt:
      accepted_counter_->Add();
      rebuilt_counter_->Add();
      break;
    case AddResult::kBucketFake:
      accepted_counter_->Add();
      fake_bucket_counter_->Add();
      break;
  }
  return result;
}

EntryRebuilder::AddResult EntryRebuilder::AddChunk(const Digest& root,
                                                   uint32_t chunk_id,
                                                   const Bytes& data,
                                                   const MerkleProof& proof,
                                                   const Certificate& cert) {
  if (complete()) return Count(AddResult::kDuplicate);
  if (chunk_id >= static_cast<uint32_t>(config_.n_total))
    return Count(AddResult::kRejected);
  // Refill-DoS defense (Section IV-C), scoped to the proven-fake *root*:
  // chunks for a root whose bucket failed validation are refused before
  // any proof verification, so refills of a fake bucket stay O(1). The
  // ban must not be global by chunk id — chunks of a different root are a
  // different candidate entry, and a Byzantine bucket covering ids
  // 0..n_data-1 must not block the genuine entry's chunks with the same
  // ids (that would trade a DoS defense for a liveness hole).
  if (auto it = buckets_.find(root);
      it != buckets_.end() && it->second.proven_fake)
    return Count(AddResult::kDuplicate);

  // The Merkle tree is built over all n_total chunks in id order, so the
  // proof's leaf index must equal the chunk id and its leaf count must
  // match the plan.
  if (proof.index != chunk_id ||
      proof.leaf_count != static_cast<uint32_t>(config_.n_total))
    return Count(AddResult::kRejected);
  if (!MerkleTree::VerifyProof(root, MerkleTree::HashLeaf(data), proof))
    return Count(AddResult::kRejected);

  Bucket& bucket = buckets_[root];
  const bool inserted =
      bucket.chunks.emplace(chunk_id, std::make_pair(data, proof)).second;
  // A decoded bucket without a valid certificate retries with every chunk
  // of its root, repeats included; otherwise a repeat changes nothing.
  if (!inserted && bucket.candidate == nullptr)
    return Count(AddResult::kDuplicate);
  if (static_cast<int>(bucket.chunks.size()) < config_.n_data)
    return Count(AddResult::kPending);
  AddResult result = TryRebuild(bucket, cert);
  if (!inserted && result == AddResult::kPending) result = AddResult::kDuplicate;
  return Count(result);
}

EntryRebuilder::AddResult EntryRebuilder::TryRebuild(Bucket& bucket,
                                                     const Certificate& cert) {
  if (bucket.candidate == nullptr) {
    auto rs = ReedSolomon::Shared(config_.n_data,
                                  config_.n_total - config_.n_data);
    MASSBFT_CHECK(rs.ok());
    std::vector<std::optional<Bytes>> shards(config_.n_total);
    for (const auto& [id, chunk] : bucket.chunks) shards[id] = chunk.first;
    auto decoded = (*rs)->DecodeMessage(shards);
    if (!decoded.ok()) return Ban(bucket);
    auto entry = Entry::Decode(*decoded);
    if (!entry.ok()) return Ban(bucket);
    bucket.candidate = *entry;
  }

  const Digest& digest = bucket.candidate->digest();
  if (cert.digest == digest) {
    // The honest path: one certificate check. A forged certificate leaves
    // the bucket waiting for the next chunk's.
    if (!config_.validate(cert, digest)) return AddResult::kPending;
    entry_ = std::move(bucket.candidate);
    return AddResult::kRebuilt;
  }
  // The sender group certified another digest: every chunk of this bucket
  // is fake. A certificate that does not verify proves nothing.
  if (config_.validate(cert, cert.digest)) return Ban(bucket);
  return AddResult::kPending;
}

EntryRebuilder::AddResult EntryRebuilder::Ban(Bucket& bucket) {
  // Mark the root so its refills are refused without another rebuild
  // attempt (DoS defense, Section IV-C) and free the chunk data — a fake
  // bucket must not pin memory either.
  bucket.proven_fake = true;
  banned_total_ += bucket.chunks.size();
  bucket.chunks.clear();
  bucket.candidate.reset();
  return AddResult::kBucketFake;
}

}  // namespace massbft
