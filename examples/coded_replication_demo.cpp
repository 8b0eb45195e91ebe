// coded_replication_demo: drive MassBFT's encoded bijective log
// replication primitives directly — no simulator — to show exactly what
// happens on the wire for the paper's Figure 5b case study (a 4-node group
// sending an entry to a 7-node group), including a Byzantine sender
// tampering chunks and the optimistic rebuild recovering.
//
// Run: ./build/examples/coded_replication_demo

#include <cstdio>

#include "crypto/signature.h"
#include "proto/entry.h"
#include "replication/encoder.h"
#include "replication/rebuilder.h"
#include "replication/transfer_plan.h"

using namespace massbft;

int main() {
  // --- 1. The transfer plan (paper Algorithm 1). -------------------------
  auto plan = TransferPlan::Create(/*n1=*/4, /*n2=*/7);
  if (!plan.ok()) {
    std::fprintf(stderr, "plan failed: %s\n",
                 plan.status().ToString().c_str());
    return 1;
  }
  std::printf("transfer plan G1(4 nodes) -> G2(7 nodes):\n");
  std::printf("  n_total=%d (LCM)   data=%d  parity=%d\n", plan->n_total(),
              plan->n_data(), plan->n_parity());
  std::printf("  each G1 node sends %d chunks, each G2 node receives %d\n",
              plan->chunks_per_sender(), plan->chunks_per_receiver());
  std::printf("  WAN cost: %.2f entry copies (full bijective would send "
              "4)\n\n",
              plan->EntryCopiesSent());

  // --- 2. A locally-certified entry. -------------------------------------
  KeyRegistry registry;
  for (uint16_t i = 0; i < 4; ++i) registry.RegisterNode(NodeId{1, i});
  std::vector<Transaction> txns;
  for (uint64_t t = 0; t < 100; ++t)
    txns.push_back(Transaction{t, 0, 0, Bytes(201, static_cast<uint8_t>(t))});
  auto entry = std::make_shared<const Entry>(1, 0, txns);
  Certificate cert;
  cert.gid = 1;
  cert.digest = entry->digest();
  Bytes payload(cert.digest.begin(), cert.digest.end());
  for (uint16_t i = 0; i < 3; ++i)  // 2f+1 = 3 signatures for n = 4.
    cert.AddSignature(i, registry.Sign(NodeId{1, i}, payload));
  std::printf("entry e_{1,0}: %d txns, %zu bytes, certified by 3/4 nodes\n\n",
              entry->num_txns(), entry->ByteSize());

  // --- 3. Every sender encodes deterministically. -------------------------
  auto encoded = EncodeEntryForPlan(*entry, *plan);
  std::printf("encoded into %zu chunks of %zu bytes, Merkle root %.16s...\n",
              encoded->chunks.size(), encoded->chunks[0].data.size(),
              DigestToHex(encoded->merkle_root).c_str());

  // A colluding Byzantine sender (node 3) encodes a TAMPERED entry instead.
  Bytes tampered_bytes = entry->Encoded();
  tampered_bytes[42] ^= 0xFF;
  auto tampered = EncodeBytesForPlan(tampered_bytes, *plan);
  std::printf("Byzantine sender's tampered encoding root  %.16s...\n\n",
              DigestToHex(tampered->merkle_root).c_str());

  // --- 4. Receiver-side optimistic rebuild (paper Section IV-C). ---------
  EntryRebuilder::Config rebuild_config;
  rebuild_config.n_total = plan->n_total();
  rebuild_config.n_data = plan->n_data();
  rebuild_config.validate = [&](const Certificate& c, const Digest& digest) {
    return c.digest == digest && c.Verify(registry, 3);
  };
  EntryRebuilder rebuilder(std::move(rebuild_config));

  // Worst case (Section IV-B): the Byzantine sender's 7 chunks AND two
  // Byzantine receivers' 8 chunk slots all carry tampered data — 15
  // tampered chunk ids, exactly the plan's parity budget. They accumulate
  // in the tampered root's bucket; once it reaches the rebuild threshold,
  // the certificate check unmasks it and those ids are banned.
  int fed_fake = 0, fed_good = 0;
  std::vector<int> tampered_ids;
  for (const TransferTuple& tuple : plan->TuplesForSender(3))
    tampered_ids.push_back(tuple.chunk);
  for (int byz_receiver : {0, 1})
    for (const TransferTuple& tuple : plan->TuplesForReceiver(byz_receiver))
      tampered_ids.push_back(tuple.chunk);
  for (int id : tampered_ids) {
    auto result = rebuilder.AddChunk(
        tampered->merkle_root, static_cast<uint32_t>(id),
        tampered->chunks[id].data, tampered->chunks[id].proof, cert);
    ++fed_fake;
    if (result == EntryRebuilder::AddResult::kBucketFake)
      std::printf("tampered bucket filled after %d chunks -> rebuild failed "
                  "certificate check -> %d chunk ids BANNED\n",
                  fed_fake, rebuilder.banned_count());
  }

  // Honest senders' chunks arrive; banned ids are refused, the rest rebuild.
  for (int sender = 0; sender < 3 && !rebuilder.complete(); ++sender) {
    for (const TransferTuple& tuple : plan->TuplesForSender(sender)) {
      auto result = rebuilder.AddChunk(
          encoded->merkle_root, static_cast<uint32_t>(tuple.chunk),
          encoded->chunks[tuple.chunk].data,
          encoded->chunks[tuple.chunk].proof, cert);
      ++fed_good;
      if (result == EntryRebuilder::AddResult::kRebuilt) {
        std::printf("rebuilt from %d honest chunks (threshold %d); digest "
                    "matches certificate: %s\n",
                    fed_good, plan->n_data(),
                    rebuilder.entry()->digest() == entry->digest() ? "YES"
                                                                   : "NO");
        break;
      }
    }
  }

  if (!rebuilder.complete()) {
    std::fprintf(stderr, "rebuild failed\n");
    return 1;
  }
  return 0;
}
