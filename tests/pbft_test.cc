#include <gtest/gtest.h>

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "consensus/pbft/certifier.h"
#include "consensus/pbft/pbft.h"
#include "crypto/signature.h"
#include "proto/entry.h"

namespace massbft {
namespace {

/// In-memory LAN bus for one group: queued FIFO delivery, droppable nodes,
/// plus simple virtual timers.
class GroupBus {
 public:
  explicit GroupBus(int n) : n_(n) {
    for (int i = 0; i < n; ++i)
      registry.RegisterNode(NodeId{0, static_cast<uint16_t>(i)});
  }

  using Handler = std::function<void(NodeId from, const MessagePtr&)>;

  void Register(int index, Handler handler) {
    handlers_[index] = std::move(handler);
  }
  void Drop(int index) { dropped_.insert(index); }
  /// Drops one directed link (partial connectivity scenarios).
  void DropLink(int from, int to) { dropped_links_.insert({from, to}); }

  void Broadcast(int from, MessagePtr msg) {
    for (int i = 0; i < n_; ++i)
      if (i != from) Send(from, i, msg);
  }
  using HoldPredicate =
      std::function<bool(int from, int to, const MessagePtr& msg)>;
  /// Parks the messages matching `pred` until ReleaseHeld (reordering).
  void Hold(HoldPredicate pred) { hold_ = std::move(pred); }
  void ReleaseHeld() {
    hold_ = nullptr;
    for (Queued& q : held_) queue_.push_back(std::move(q));
    held_.clear();
  }

  void Send(int from, int to, MessagePtr msg) {
    if (dropped_.count(from) > 0 || dropped_.count(to) > 0) return;
    if (dropped_links_.count({from, to}) > 0) return;
    if (hold_ && hold_(from, to, msg)) {
      held_.push_back({from, to, std::move(msg)});
      return;
    }
    queue_.push_back({from, to, std::move(msg)});
  }
  void ScheduleTimer(int64_t delay, std::function<void()> fn) {
    timers_.push_back({now_ + delay, std::move(fn)});
  }

  /// Drains the message queue (not timers).
  void Deliver() {
    while (!queue_.empty()) {
      auto [from, to, msg] = std::move(queue_.front());
      queue_.pop_front();
      if (dropped_.count(to) > 0) continue;
      handlers_[to](NodeId{0, static_cast<uint16_t>(from)}, msg);
    }
  }

  /// Advances virtual time, firing due timers, then drains messages.
  void AdvanceTime(int64_t delta) {
    now_ += delta;
    auto due = std::move(timers_);
    timers_.clear();
    for (auto& [at, fn] : due) {
      if (at <= now_) {
        fn();
      } else {
        timers_.push_back({at, std::move(fn)});
      }
    }
    Deliver();
  }

  KeyRegistry registry;

 private:
  struct Queued {
    int from;
    int to;
    MessagePtr msg;
  };
  int n_;
  std::map<int, Handler> handlers_;
  std::set<int> dropped_;
  std::set<std::pair<int, int>> dropped_links_;
  HoldPredicate hold_;
  std::vector<Queued> held_;
  std::deque<Queued> queue_;
  std::vector<std::pair<int64_t, std::function<void()>>> timers_;
  int64_t now_ = 0;
};

struct PbftNode {
  PbftNode(GroupBus* bus, int index, int n, bool instant_validation = true) {
    NodeId self{0, static_cast<uint16_t>(index)};
    PbftEngine::Callbacks cb;
    cb.broadcast = [bus, index](MessagePtr m) {
      bus->Broadcast(index, std::move(m));
    };
    cb.send_to = [bus, index](NodeId dst, MessagePtr m) {
      bus->Send(index, dst.index, std::move(m));
    };
    cb.sign = [bus, self](const Bytes& payload) {
      return bus->registry.Sign(self, payload);
    };
    cb.verify = [this, bus](const std::vector<NodeId>& nodes,
                            const Bytes& payload,
                            const std::vector<const Signature*>& sigs) {
      sigs_checked += static_cast<int>(nodes.size());
      for (NodeId node : nodes) checked_indices.insert(node.index);
      return bus->registry.VerifyBatch(nodes, payload.data(), payload.size(),
                                       sigs);
    };
    cb.validate_entry = [this, instant_validation](
                            EntryPtr entry, std::function<void(bool)> done) {
      if (instant_validation) {
        done(true);
      } else {
        pending_validations.push_back(std::move(done));
      }
      (void)entry;
    };
    cb.after = [bus](SimTime delay, std::function<void()> fn) {
      bus->ScheduleTimer(delay, std::move(fn));
    };
    cb.on_committed = [this](EntryPtr entry, Certificate cert) {
      committed.push_back({entry, cert});
    };
    engine = std::make_unique<PbftEngine>(0, self, n, std::move(cb));
  }

  std::unique_ptr<PbftEngine> engine;
  /// Signatures this node has checked (pre-prepare and votes), and whose.
  int sigs_checked = 0;
  std::set<uint16_t> checked_indices;
  std::vector<std::pair<EntryPtr, Certificate>> committed;
  std::vector<std::function<void(bool)>> pending_validations;
};

EntryPtr MakeEntry(uint64_t seq, int payload = 100) {
  return std::make_shared<const Entry>(
      0, seq,
      std::vector<Transaction>{
          Transaction{seq, 1, 0, Bytes(static_cast<size_t>(payload), 0x11)}});
}

class PbftFixture : public ::testing::Test {
 protected:
  void Init(int n) {
    bus_ = std::make_unique<GroupBus>(n);
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<PbftNode>(bus_.get(), i, n));
      PbftNode* node = nodes_.back().get();
      bus_->Register(i, [node](NodeId from, const MessagePtr& m) {
        node->engine->OnMessage(from, m);
      });
    }
  }

  std::unique_ptr<GroupBus> bus_;
  std::vector<std::unique_ptr<PbftNode>> nodes_;
};

TEST_F(PbftFixture, AllCorrectNodesCommit) {
  Init(4);
  EntryPtr entry = MakeEntry(0);
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  for (auto& node : nodes_) {
    ASSERT_EQ(node->committed.size(), 1u);
    EXPECT_EQ(node->committed[0].first->digest(), entry->digest());
  }
}

TEST_F(PbftFixture, CertificateHasQuorumAndVerifies) {
  Init(7);  // f = 2, quorum 5.
  EntryPtr entry = MakeEntry(0);
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  ASSERT_FALSE(nodes_[3]->committed.empty());
  const Certificate& cert = nodes_[3]->committed[0].second;
  EXPECT_EQ(static_cast<int>(cert.NumSignatures()), 5);
  EXPECT_TRUE(cert.Verify(bus_->registry, 5));
  EXPECT_EQ(cert.digest, entry->digest());
}

TEST_F(PbftFixture, PipelinedProposalsCommitAll) {
  Init(4);
  for (uint64_t s = 0; s < 10; ++s)
    nodes_[0]->engine->Propose(MakeEntry(s));
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_EQ(node->committed.size(), 10u);
  EXPECT_EQ(nodes_[0]->engine->committed_count(), 10u);
}

TEST_F(PbftFixture, CommitsDespiteFSilentFollowers) {
  Init(4);  // f = 1.
  bus_->Drop(3);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  for (int i = 0; i < 3; ++i)
    EXPECT_EQ(nodes_[i]->committed.size(), 1u) << "node " << i;
}

TEST_F(PbftFixture, StallsWithMoreThanFFailures) {
  Init(4);
  bus_->Drop(2);
  bus_->Drop(3);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_TRUE(node->committed.empty());
}

TEST_F(PbftFixture, NonLeaderCannotPrePrepare) {
  Init(4);
  // A Byzantine follower forging a pre-prepare is ignored: votes never
  // form because correct nodes reject non-leader pre-prepares.
  EntryPtr entry = MakeEntry(0);
  Signature sig = bus_->registry.Sign(NodeId{0, 2}, Bytes{1, 2, 3});
  auto forged = std::make_shared<PrePrepareMsg>(0, 0, entry, sig);
  bus_->Broadcast(2, forged);
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_TRUE(node->committed.empty());
}

TEST_F(PbftFixture, BadSignatureVotesIgnored) {
  Init(4);
  EntryPtr entry = MakeEntry(0);
  // Garbage commit votes should not help reach quorum.
  for (int from = 1; from < 4; ++from) {
    auto vote = std::make_shared<PbftVoteMsg>(
        MessageType::kCommit, 0, 0, entry->digest(), Signature{});
    bus_->Send(from, 0, vote);
  }
  bus_->Deliver();
  EXPECT_TRUE(nodes_[0]->committed.empty());
}

TEST_F(PbftFixture, ViewChangeElectsNextLeaderAndReproposes) {
  Init(4);
  for (auto& node : nodes_)
    node->engine->set_view_change_timeout(100);
  // Partially-connected faulty leader: its pre-prepare reaches nodes 1 and
  // 2 but not 3, and the leader then contributes nothing further. Nodes
  // 1+2 reach the 2f+1 prepare quorum (pre-prepare counts as the leader's
  // vote) but the commit quorum stalls at 2 of 3 — the classic stuck
  // instance that view change must resolve.
  bus_->DropLink(0, 3);
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Drop(0);  // Leader contributes nothing beyond the pre-prepare.
  bus_->Deliver();
  EXPECT_TRUE(nodes_[1]->committed.empty());

  bus_->AdvanceTime(150);  // Followers' timers fire; view-change votes flow.
  bus_->AdvanceTime(150);  // Echo amplification + NEW-VIEW + re-propose.
  bus_->AdvanceTime(150);
  EXPECT_GE(nodes_[1]->engine->view(), 1u);
  EXPECT_EQ(nodes_[1]->engine->leader_index(),
            static_cast<int>(nodes_[1]->engine->view() % 4));
  // The new leader re-proposed the unfinished entry; correct nodes commit.
  EXPECT_GE(nodes_[1]->committed.size(), 1u);
  EXPECT_GE(nodes_[2]->committed.size(), 1u);
  EXPECT_GE(nodes_[3]->committed.size(), 1u);
}

TEST_F(PbftFixture, ValidationGateBlocksPrepare) {
  // Followers only vote after entry validation completes (per-transaction
  // signature checks in the real node).
  bus_ = std::make_unique<GroupBus>(4);
  for (int i = 0; i < 4; ++i) {
    nodes_.push_back(std::make_unique<PbftNode>(
        bus_.get(), i, 4, /*instant_validation=*/i == 0));
    PbftNode* node = nodes_.back().get();
    bus_->Register(i, [node](NodeId from, const MessagePtr& m) {
      node->engine->OnMessage(from, m);
    });
  }
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  EXPECT_TRUE(nodes_[1]->committed.empty());
  // Release validations.
  for (int i = 1; i < 4; ++i) {
    for (auto& done : nodes_[i]->pending_validations) done(true);
    nodes_[i]->pending_validations.clear();
  }
  bus_->Deliver();
  for (auto& node : nodes_) EXPECT_EQ(node->committed.size(), 1u);
}

TEST_F(PbftFixture, VotesAfterQuorumAreNeverVerified) {
  Init(7);  // f = 2, quorum 5.
  nodes_[0]->engine->Propose(MakeEntry(0));
  bus_->Deliver();
  // Every node checks only the votes that complete each quorum: the
  // leader 4 prepares + 4 commits (its own vote counts unchecked); a
  // follower the pre-prepare, 3 prepares (own + pre-prepare count) and 4
  // commits. Checking every vote would cost 12 per node.
  for (int i = 0; i < 7; ++i) {
    ASSERT_EQ(nodes_[i]->committed.size(), 1u) << "node " << i;
    EXPECT_EQ(nodes_[i]->sigs_checked, 8) << "node " << i;
  }
  // The vote checks rode the batched path.
  VerifyStats stats = bus_->registry.verify_stats();
  EXPECT_EQ(stats.batch_calls, 14u);  // One per phase per node.
  EXPECT_EQ(stats.batch_fallbacks, 0u);
}

/// A well-formed signature by `index` over the wrong bytes.
Signature ForgedSig(const KeyRegistry& registry, uint16_t index) {
  return registry.Sign(NodeId{0, index}, ToBytes("not the vote payload"));
}

TEST_F(PbftFixture, ForgedVotesInABatchAreExcludedAndHonestQuorumCommits) {
  Init(7);  // f = 2, quorum 5: nodes 5 and 6 forge, 0..4 are the quorum.
  bus_->Drop(5);
  bus_->Drop(6);
  EntryPtr entry = MakeEntry(0);
  // Forged prepares and commits reach every honest node first, so they
  // sit in the first batch each node checks.
  for (int from : {5, 6}) {
    for (MessageType phase : {MessageType::kPrepare, MessageType::kCommit}) {
      auto vote = std::make_shared<PbftVoteMsg>(
          phase, 0, 0, entry->digest(),
          ForgedSig(bus_->registry, static_cast<uint16_t>(from)));
      for (int to = 0; to < 5; ++to)
        nodes_[to]->engine->OnMessage(
            NodeId{0, static_cast<uint16_t>(from)}, vote);
    }
  }
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  EXPECT_GT(bus_->registry.verify_stats().batch_fallbacks, 0u);
  for (int i = 0; i < 5; ++i) {
    ASSERT_EQ(nodes_[i]->committed.size(), 1u) << "node " << i;
    const Certificate& cert = nodes_[i]->committed[0].second;
    EXPECT_EQ(cert.Signers(), (std::vector<uint16_t>{0, 1, 2, 3, 4}));
    std::vector<uint16_t> forgers;
    EXPECT_TRUE(cert.Verify(bus_->registry, 5, &forgers));
    EXPECT_TRUE(forgers.empty());
  }
}

TEST_F(PbftFixture, VoteForAnotherDigestNeverCounts) {
  Init(4);  // f = 1, quorum 3. Node 3 is Byzantine and otherwise silent.
  bus_->Drop(3);
  EntryPtr entry = MakeEntry(0);
  EntryPtr other = MakeEntry(0, 200);
  // Node 3's commit vote is validly signed, but for another digest, and
  // reaches node 1 before the pre-prepare (while the digest is unknown).
  const Digest& wrong = other->digest();
  nodes_[1]->engine->OnMessage(
      NodeId{0, 3},
      std::make_shared<PbftVoteMsg>(
          MessageType::kCommit, 0, 0, wrong,
          bus_->registry.Sign(NodeId{0, 3}, Bytes(wrong.begin(), wrong.end()))));
  // Node 2's commit to node 1 is held back: node 1 then has commits from
  // 0 and itself plus node 3's wrong-digest one — not a quorum.
  bus_->Hold([](int from, int to, const MessagePtr& m) {
    return from == 2 && to == 1 &&
           m->type() == static_cast<uint8_t>(MessageType::kCommit);
  });
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->committed.size(), 1u);
  EXPECT_TRUE(nodes_[1]->committed.empty());

  bus_->ReleaseHeld();
  bus_->Deliver();
  ASSERT_EQ(nodes_[1]->committed.size(), 1u);
  const Certificate& cert = nodes_[1]->committed[0].second;
  EXPECT_EQ(cert.Signers(), (std::vector<uint16_t>{0, 1, 2}));
  EXPECT_TRUE(cert.Verify(bus_->registry, 3));
}

TEST_F(PbftFixture, CheckedVoteForAnotherDigestNeverCounts) {
  Init(4);  // f = 1, quorum 3. Node 3 is Byzantine and otherwise silent.
  bus_->Drop(3);
  EntryPtr entry = MakeEntry(0);
  const Digest wrong = MakeEntry(0, 200)->digest();
  // Before the pre-prepare, node 1 gets node 3's genuine commit for
  // another digest, then a forgery in node 3's name: the contest checks
  // the genuine vote, which is still for the wrong digest.
  for (const Signature& sig :
       {bus_->registry.Sign(NodeId{0, 3}, Bytes(wrong.begin(), wrong.end())),
        ForgedSig(bus_->registry, 3)}) {
    nodes_[1]->engine->OnMessage(
        NodeId{0, 3}, std::make_shared<PbftVoteMsg>(MessageType::kCommit, 0,
                                                    0, wrong, sig));
  }
  EXPECT_EQ(nodes_[1]->sigs_checked, 1);
  bus_->Hold([](int from, int to, const MessagePtr& m) {
    return from == 2 && to == 1 &&
           m->type() == static_cast<uint8_t>(MessageType::kCommit);
  });
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  EXPECT_TRUE(nodes_[1]->committed.empty());

  bus_->ReleaseHeld();
  bus_->Deliver();
  ASSERT_EQ(nodes_[1]->committed.size(), 1u);
  const Certificate& cert = nodes_[1]->committed[0].second;
  EXPECT_EQ(cert.Signers(), (std::vector<uint16_t>{0, 1, 2}));
  EXPECT_TRUE(cert.Verify(bus_->registry, 3));
}

TEST_F(PbftFixture, VotesBeforePrePrepareCountOnceItArrives) {
  Init(4);
  // Node 3 sees every prepare and commit before the pre-prepare.
  bus_->Hold([](int from, int to, const MessagePtr& m) {
    return from == 0 && to == 3 &&
           m->type() == static_cast<uint8_t>(MessageType::kPrePrepare);
  });
  EntryPtr entry = MakeEntry(0);
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  EXPECT_TRUE(nodes_[3]->committed.empty());
  EXPECT_EQ(nodes_[3]->sigs_checked, 0);  // Nothing checked while unknown.

  bus_->ReleaseHeld();
  bus_->Deliver();
  ASSERT_EQ(nodes_[3]->committed.size(), 1u);
  EXPECT_EQ(nodes_[3]->committed[0].first->digest(), entry->digest());
  EXPECT_TRUE(nodes_[3]->committed[0].second.Verify(bus_->registry, 3));
  // Pre-prepare, one prepare (own + pre-prepare already count), two
  // commits (own counts).
  EXPECT_EQ(nodes_[3]->sigs_checked, 4);
}

TEST_F(PbftFixture, ForgedVotesBeforeTheRealOnesDoNotBlockThem) {
  Init(4);  // f = 1, quorum 3: node 3 is silent, so node 2 is needed.
  bus_->Drop(3);
  EntryPtr entry = MakeEntry(0);
  // Before the pre-prepare, a peer sends prepares and commits in node 2's
  // name to nodes 0 and 1: one with a forged signature and the right
  // digest, one with a forged signature and another digest.
  const Digest other = MakeEntry(0, 200)->digest();
  for (const Digest* digest : {&entry->digest(), &other}) {
    for (MessageType phase : {MessageType::kPrepare, MessageType::kCommit}) {
      auto vote = std::make_shared<PbftVoteMsg>(phase, 0, 0, *digest,
                                                ForgedSig(bus_->registry, 2));
      for (int to : {0, 1})
        nodes_[to]->engine->OnMessage(NodeId{0, 2}, vote);
    }
  }
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(nodes_[i]->committed.size(), 1u) << "node " << i;
    const Certificate& cert = nodes_[i]->committed[0].second;
    EXPECT_EQ(cert.Signers(), (std::vector<uint16_t>{0, 1, 2}));
    std::vector<uint16_t> forgers;
    EXPECT_TRUE(cert.Verify(bus_->registry, 3, &forgers));
    EXPECT_TRUE(forgers.empty());
  }
}

TEST_F(PbftFixture, ForgedVoteAfterTheRealOneCostsNoExtraCheck) {
  Init(4);  // Node 3 is silent, so node 2 is needed.
  bus_->Drop(3);
  // Node 1 gets node 2's real prepare before the pre-prepare, then a
  // forgery in node 2's name. The contest checks the real vote, which
  // then counts without a second check.
  bus_->Hold([](int from, int to, const MessagePtr& m) {
    return from == 0 && to == 1 &&
           m->type() == static_cast<uint8_t>(MessageType::kPrePrepare);
  });
  EntryPtr entry = MakeEntry(0);
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  EXPECT_EQ(nodes_[1]->sigs_checked, 0);
  nodes_[1]->engine->OnMessage(
      NodeId{0, 2}, std::make_shared<PbftVoteMsg>(
                        MessageType::kPrepare, 0, 0, entry->digest(),
                        ForgedSig(bus_->registry, 2)));
  EXPECT_EQ(nodes_[1]->sigs_checked, 1);

  bus_->ReleaseHeld();
  bus_->Deliver();
  ASSERT_EQ(nodes_[1]->committed.size(), 1u);
  EXPECT_EQ(nodes_[1]->committed[0].second.Signers(),
            (std::vector<uint16_t>{0, 1, 2}));
  // Pre-prepare, the contested prepare, two commits: as without the
  // forgery.
  EXPECT_EQ(nodes_[1]->sigs_checked, 4);
}

TEST_F(PbftFixture, VotesFromIndicesOutsideTheGroupAreNeverChecked) {
  Init(4);
  bus_->Drop(3);
  EntryPtr entry = MakeEntry(0);
  for (uint16_t index : {4, 7, 65535}) {
    for (MessageType phase : {MessageType::kPrepare, MessageType::kCommit}) {
      auto vote = std::make_shared<PbftVoteMsg>(phase, 0, 0, entry->digest(),
                                                Signature{});
      for (int to = 0; to < 3; ++to)
        nodes_[to]->engine->OnMessage(NodeId{0, index}, vote);
    }
  }
  nodes_[0]->engine->Propose(entry);
  bus_->Deliver();
  for (int i = 0; i < 3; ++i) {
    ASSERT_EQ(nodes_[i]->committed.size(), 1u) << "node " << i;
    for (uint16_t index : nodes_[i]->checked_indices)
      EXPECT_LT(index, 3) << "node " << i;
  }
}

// -------------------------------------------------------- DigestCertifier

struct CertifierNode {
  CertifierNode(GroupBus* bus, int index, int n) {
    NodeId self{0, static_cast<uint16_t>(index)};
    DigestCertifier::Callbacks cb;
    cb.broadcast = [bus, index](MessagePtr m) {
      bus->Broadcast(index, std::move(m));
    };
    cb.send_to = [bus, index](NodeId dst, MessagePtr m) {
      bus->Send(index, dst.index, std::move(m));
    };
    cb.sign = [bus, self](const Bytes& payload) {
      return bus->registry.Sign(self, payload);
    };
    cb.verify = [this, bus](const std::vector<NodeId>& nodes,
                            const Bytes& payload,
                            const std::vector<const Signature*>& sigs) {
      sigs_checked += static_cast<int>(nodes.size());
      return bus->registry.VerifyBatch(nodes, payload.data(), payload.size(),
                                       sigs);
    };
    cb.can_sign = [this](const DecisionId&) { return can_sign; };
    cb.on_certified = [this](const DecisionId& decision, Certificate cert) {
      certified.push_back({decision, std::move(cert)});
    };
    certifier = std::make_unique<DigestCertifier>(0, self, n,
                                                  /*leader_index=*/0,
                                                  std::move(cb));
  }

  std::unique_ptr<DigestCertifier> certifier;
  bool can_sign = true;
  int sigs_checked = 0;
  std::vector<std::pair<DecisionId, Certificate>> certified;
};

class CertifierFixture : public ::testing::Test {
 protected:
  void Init(int n) {
    bus_ = std::make_unique<GroupBus>(n);
    for (int i = 0; i < n; ++i) {
      nodes_.push_back(std::make_unique<CertifierNode>(bus_.get(), i, n));
      CertifierNode* node = nodes_.back().get();
      bus_->Register(i, [node](NodeId from, const MessagePtr& m) {
        node->certifier->OnMessage(from, m);
      });
    }
  }

  DecisionId Decision() {
    return DecisionId{DigestCertifier::kAccept, 0, 1, 7, 42};
  }

  std::unique_ptr<GroupBus> bus_;
  std::vector<std::unique_ptr<CertifierNode>> nodes_;
};

TEST_F(CertifierFixture, CertifiesWithQuorum) {
  Init(4);
  nodes_[0]->certifier->Start(Decision());
  bus_->Deliver();
  ASSERT_EQ(nodes_[0]->certified.size(), 1u);
  const Certificate& cert = nodes_[0]->certified[0].second;
  EXPECT_EQ(static_cast<int>(cert.NumSignatures()), 3);
  Digest digest = DigestCertifier::DecisionDigest(Decision());
  EXPECT_EQ(cert.digest, digest);
  EXPECT_TRUE(cert.Verify(bus_->registry, 3));
}

TEST_F(CertifierFixture, DeferredVotesFlowAfterRecheck) {
  Init(4);
  // Followers refuse (entry payload missing, Lemma V.1 gate).
  for (int i = 1; i < 4; ++i) nodes_[i]->can_sign = false;
  nodes_[0]->certifier->Start(Decision());
  bus_->Deliver();
  EXPECT_TRUE(nodes_[0]->certified.empty());
  // Payload arrives on followers.
  for (int i = 1; i < 4; ++i) {
    nodes_[i]->can_sign = true;
    nodes_[i]->certifier->RecheckPending();
  }
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->certified.size(), 1u);
}

TEST_F(CertifierFixture, DistinctDecisionsDistinctDigests) {
  DecisionId a{DigestCertifier::kAccept, 0, 1, 7, 42};
  DecisionId b{DigestCertifier::kAccept, 0, 1, 7, 43};
  DecisionId c{DigestCertifier::kCommitDecision, 0, 1, 7, 42};
  EXPECT_NE(DigestCertifier::DecisionDigest(a),
            DigestCertifier::DecisionDigest(b));
  EXPECT_NE(DigestCertifier::DecisionDigest(a),
            DigestCertifier::DecisionDigest(c));
}

TEST_F(CertifierFixture, ToleratesFSilentNodes) {
  Init(7);  // f=2, quorum 5.
  bus_->Drop(5);
  bus_->Drop(6);
  nodes_[0]->certifier->Start(Decision());
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->certified.size(), 1u);
}

TEST_F(CertifierFixture, DuplicateStartIdempotent) {
  Init(4);
  nodes_[0]->certifier->Start(Decision());
  nodes_[0]->certifier->Start(Decision());
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->certified.size(), 1u);
}

TEST_F(CertifierFixture, NonLeaderRequestDrawsNoVote) {
  Init(4);
  // A follower asking for shares on a decision (say, a commit the global
  // Raft never reached) gets none.
  nodes_[1]->certifier->Start(Decision());
  bus_->Deliver();
  EXPECT_TRUE(nodes_[1]->certified.empty());
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(nodes_[i]->sigs_checked, 0) << "node " << i;

  nodes_[0]->certifier->Start(Decision());
  bus_->Deliver();
  ASSERT_EQ(nodes_[0]->certified.size(), 1u);
  EXPECT_TRUE(nodes_[0]->certified[0].second.Verify(bus_->registry, 3));
}

TEST_F(CertifierFixture, ForgedSharesAreExcludedFromTheCertificate) {
  Init(7);  // f = 2, quorum 5.
  DecisionId decision = Decision();
  nodes_[0]->certifier->Start(decision);
  // Forged shares from 5 and 6 reach the leader ahead of every honest one.
  for (uint16_t from : {5, 6}) {
    bus_->Send(from, 0,
               std::make_shared<CertifyVoteMsg>(
                   decision, bus_->registry.Sign(NodeId{0, from},
                                                 ToBytes("not the digest"))));
  }
  bus_->Deliver();
  ASSERT_EQ(nodes_[0]->certified.size(), 1u);
  EXPECT_GT(bus_->registry.verify_stats().batch_fallbacks, 0u);
  const Certificate& cert = nodes_[0]->certified[0].second;
  EXPECT_EQ(static_cast<int>(cert.NumSignatures()), 5);
  std::vector<uint16_t> forgers;
  EXPECT_TRUE(cert.Verify(bus_->registry, 5, &forgers));
  EXPECT_TRUE(forgers.empty());
}

TEST_F(CertifierFixture, ForgedShareBeforeTheRealOneDoesNotBlockIt) {
  Init(4);  // f = 1, quorum 3: node 3 is silent, so node 2 is needed.
  bus_->Drop(3);
  DecisionId decision = Decision();
  nodes_[0]->certifier->Start(decision);
  // A share in node 2's name reaches the leader first; node 2's real
  // share follows while node 1's is held back.
  nodes_[0]->certifier->OnMessage(
      NodeId{0, 2},
      std::make_shared<CertifyVoteMsg>(
          decision,
          bus_->registry.Sign(NodeId{0, 2}, ToBytes("not the digest"))));
  bus_->Hold([](int from, int to, const MessagePtr&) {
    return from == 1 && to == 0;
  });
  bus_->Deliver();
  EXPECT_TRUE(nodes_[0]->certified.empty());

  bus_->ReleaseHeld();
  bus_->Deliver();
  ASSERT_EQ(nodes_[0]->certified.size(), 1u);
  const Certificate& cert = nodes_[0]->certified[0].second;
  EXPECT_EQ(cert.Signers(), (std::vector<uint16_t>{0, 1, 2}));
  EXPECT_TRUE(cert.Verify(bus_->registry, 3));
}

TEST_F(CertifierFixture, HeldStateStaysAtTheInFlightCount) {
  Init(4);
  auto decision = [](uint64_t seq) {
    return DecisionId{DigestCertifier::kAccept, 0, 1, seq, 0};
  };
  auto held = [this] {
    size_t total = 0;
    for (auto& node : nodes_) total += node->certifier->held_decisions();
    return total;
  };
  for (uint64_t seq = 0; seq < 500; ++seq) {
    nodes_[0]->certifier->Start(decision(seq));
    bus_->Deliver();
  }
  EXPECT_EQ(nodes_[0]->certified.size(), 500u);
  EXPECT_EQ(held(), 0u);

  // Node 3 defers ten decisions; the leader certifies them without it.
  nodes_[3]->can_sign = false;
  for (uint64_t seq = 500; seq < 510; ++seq)
    nodes_[0]->certifier->Start(decision(seq));
  bus_->Deliver();
  EXPECT_EQ(nodes_[0]->certified.size(), 510u);
  EXPECT_EQ(nodes_[0]->certifier->held_decisions(), 0u);
  EXPECT_EQ(nodes_[3]->certifier->held_decisions(), 10u);
  // Its late shares, once sent, are dropped unchecked.
  const int checked = nodes_[0]->sigs_checked;
  nodes_[3]->can_sign = true;
  nodes_[3]->certifier->RecheckPending();
  bus_->Deliver();
  EXPECT_EQ(held(), 0u);
  EXPECT_EQ(nodes_[0]->sigs_checked, checked);
  EXPECT_EQ(nodes_[0]->certified.size(), 510u);
}

}  // namespace
}  // namespace massbft
