#ifndef MASSBFT_SIM_TOPOLOGY_H_
#define MASSBFT_SIM_TOPOLOGY_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "crypto/signature.h"  // NodeId
#include "sim/time.h"

namespace massbft {

/// Cluster shape and link parameters. Mirrors the paper's testbeds:
/// each group is one data center; every node has an exclusive WAN uplink
/// (20 Mbps default) and shares a fast LAN (2.5 Gbps default); groups are
/// separated by an RTT matrix (nationwide 26.7–43.4 ms, worldwide
/// 156–206 ms).
struct TopologyConfig {
  /// Nodes per group; group count = group_sizes.size().
  std::vector<int> group_sizes;

  /// Per-node WAN bandwidth (bits/s), applied to both directions.
  double wan_bps = 20e6;
  /// Per-node LAN bandwidth (bits/s).
  double lan_bps = 2.5e9;
  /// One-way LAN latency within a data center.
  SimTime lan_latency = 250 * kMicrosecond;
  /// rtt_ms[i][j]: round-trip time between groups i and j in milliseconds.
  std::vector<std::vector<double>> rtt_ms;

  /// Per-node WAN bandwidth overrides: (node, bits/s). Used by the Fig 14
  /// mixed-bandwidth experiment.
  std::vector<std::pair<NodeId, double>> wan_overrides;

  /// The paper's nationwide cluster (Zhangjiakou / Chengdu / Hangzhou):
  /// `num_groups` groups of `nodes_per_group` nodes, RTTs in 26.7–43.4 ms.
  /// Scaling past 3 groups adds the four extra Chinese data centers of
  /// Fig 13b with RTTs in the same band.
  static TopologyConfig Nationwide(int num_groups, int nodes_per_group);

  /// The paper's worldwide cluster (Hong Kong / London / Silicon Valley),
  /// RTTs 156–206 ms.
  static TopologyConfig Worldwide(int num_groups, int nodes_per_group);

  int num_groups() const { return static_cast<int>(group_sizes.size()); }
  int total_nodes() const;
  /// The nodes of `group`, leader (index 0) first.
  std::vector<NodeId> GroupNodes(int group) const;

  /// Validates sizes and matrix shape.
  Status Validate() const;
};

/// Resolved per-node link parameters + helpers for quorum math.
class Topology {
 public:
  [[nodiscard]] static Result<Topology> Create(TopologyConfig config);

  const TopologyConfig& config() const { return config_; }
  int num_groups() const { return config_.num_groups(); }
  int group_size(int group) const { return config_.group_sizes[group]; }
  int total_nodes() const { return config_.total_nodes(); }

  /// Byzantine fault bound within a group: f = floor((n-1)/3).
  int max_faulty(int group) const { return (group_size(group) - 1) / 3; }
  /// Group-crash bound: f_g = floor((n_g-1)/2) (CFT across groups).
  int max_faulty_groups() const { return (num_groups() - 1) / 2; }

  double wan_bps(NodeId node) const;
  double lan_bps() const { return config_.lan_bps; }
  SimTime lan_latency() const { return config_.lan_latency; }

  /// One-way WAN propagation delay between the data centers of two nodes.
  SimTime WanPropagation(NodeId a, NodeId b) const;

  /// All node ids, group-major.
  std::vector<NodeId> AllNodes() const;

 private:
  explicit Topology(TopologyConfig config);

  TopologyConfig config_;
  std::vector<std::vector<double>> node_wan_bps_;  // [group][index]
};

}  // namespace massbft

#endif  // MASSBFT_SIM_TOPOLOGY_H_
