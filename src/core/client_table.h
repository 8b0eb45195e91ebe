#ifndef MASSBFT_CORE_CLIENT_TABLE_H_
#define MASSBFT_CORE_CLIENT_TABLE_H_

#include <cstddef>
#include <cstdint>
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
/// Not synchronized: the threaded harness touches client i only on the
/// event loop of client i's group leader; IndexOf reads nothing mutable.
class ClientTable {
 public:
  struct Client {
    uint32_t id = 0;  // (group << kIndexBits) | index within the group.
    int group = 0;
    uint64_t next_txn = 0;
    Rng rng;
  };

  /// Builds groups × clients_per_group clients, group-major, forking each
  /// client's rng from `seed_rng` in that order.
  ClientTable(Rng& seed_rng, int groups, int clients_per_group)
      : clients_per_group_(static_cast<uint32_t>(clients_per_group)) {
    for (uint32_t g = 0; g < static_cast<uint32_t>(groups); ++g) {
      for (uint32_t c = 0; c < clients_per_group_; ++c)
        clients_.push_back(Client{(g << kIndexBits) | c,
                                  static_cast<int>(g), 0, seed_rng.Fork()});
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

  /// Materializes client `index`'s next transaction, submitted at
  /// `submit_time`; its id (client_id << 32) | n is unique across the table.
  Transaction NextTxn(size_t index, Workload& workload, SimTime submit_time) {
    Client& c = clients_[index];
    Transaction txn;
    txn.client = c.id;
    txn.id = (static_cast<uint64_t>(c.id) << 32) | c.next_txn++;
    txn.submit_time = submit_time;
    txn.payload = workload.NextPayload(c.rng);
    return txn;
  }

 private:
  static constexpr int kIndexBits = 20;

  uint32_t clients_per_group_;
  std::vector<Client> clients_;
};

}  // namespace massbft

#endif  // MASSBFT_CORE_CLIENT_TABLE_H_
