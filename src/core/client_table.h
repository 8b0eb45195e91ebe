#ifndef MASSBFT_CORE_CLIENT_TABLE_H_
#define MASSBFT_CORE_CLIENT_TABLE_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/rng.h"
#include "proto/entry.h"
#include "sim/time.h"
#include "workload/workload.h"

namespace massbft {

/// The closed-loop client population of one cluster run, shared by the
/// simulated harness (Experiment) and the threaded one (RealCluster). Each
/// client keeps one transaction outstanding against its group's leader and
/// draws its payloads from its own forked rng, so its transaction stream
/// depends only on the seed. The caller owns the clock (simulated or wall)
/// and passes submit times in.
///
/// It is also both harnesses' liveness oracle: a run's `failed` is the
/// number of clients still outstanding after its drain.
///
/// Not synchronized: the threaded harness touches group g's clients only
/// on g's leader's event loop; IndexOf reads nothing mutable.
class ClientTable {
 public:
  struct Client {
    uint32_t id = 0;  // (group << kIndexBits) | index within the group.
    int group = 0;
    uint64_t next_txn = 0;
    Rng rng;
    std::optional<uint64_t> outstanding;  // Submitted, uncommitted txn id.
  };

  /// Builds groups × clients_per_group clients, group-major, forking each
  /// client's rng from `seed_rng` in that order.
  ClientTable(Rng& seed_rng, int groups, int clients_per_group)
      : clients_per_group_(static_cast<uint32_t>(clients_per_group)) {
    for (uint32_t g = 0; g < static_cast<uint32_t>(groups); ++g) {
      for (uint32_t c = 0; c < clients_per_group_; ++c)
        clients_.push_back(Client{(g << kIndexBits) | c,
                                  static_cast<int>(g), 0, seed_rng.Fork(),
                                  std::nullopt});
    }
  }

  size_t size() const { return clients_.size(); }
  const Client& client(size_t index) const { return clients_[index]; }

  /// Index of the client whose id is `client_id`; size() when no client of
  /// this table has that id.
  size_t IndexOf(uint32_t client_id) const {
    const uint32_t index = client_id & ((1u << kIndexBits) - 1);
    if (index >= clients_per_group_) return size();
    const size_t at = (client_id >> kIndexBits) * clients_per_group_ + index;
    return at < size() ? at : size();
  }

  /// Materializes client `index`'s next (now outstanding) transaction,
  /// submitted at `submit_time`; its id (client_id << 32) | n is unique.
  Transaction NextTxn(size_t index, Workload& workload, SimTime submit_time) {
    Client& c = clients_[index];
    Transaction txn;
    txn.client = c.id;
    txn.id = (static_cast<uint64_t>(c.id) << 32) | c.next_txn++;
    txn.submit_time = submit_time;
    txn.payload = workload.NextPayload(c.rng);
    c.outstanding = txn.id;
    return txn;
  }

  /// Clears `txn` if it is its client's outstanding one and returns the
  /// client's index; size() for a stale or unknown transaction.
  size_t Commit(const Transaction& txn) {
    const size_t index = IndexOf(txn.client);
    if (index >= size() || clients_[index].outstanding != txn.id)
      return size();
    clients_[index].outstanding.reset();
    return index;
  }

  /// `group`'s transactions are lost with its crashed leader, not stalled.
  void MarkLost(int group) {
    for (Client& c : clients_)
      if (c.group == group) c.outstanding.reset();
  }

  /// Clients with a transaction outstanding, in every group or in `group`.
  size_t Outstanding() const {
    return static_cast<size_t>(std::ranges::count_if(
        clients_, [](const Client& c) { return c.outstanding.has_value(); }));
  }
  size_t Outstanding(int group) const {
    return static_cast<size_t>(std::ranges::count_if(
        clients_, [group](const Client& c) {
          return c.group == group && c.outstanding.has_value();
        }));
  }

 private:
  static constexpr int kIndexBits = 20;

  uint32_t clients_per_group_;
  std::vector<Client> clients_;
};

}  // namespace massbft

#endif  // MASSBFT_CORE_CLIENT_TABLE_H_
