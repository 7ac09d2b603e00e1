// Logical topology model: the graph of logical switches, hosts, and links
// that a user asks SDT to project (paper §III-B "logical topology").
//
// Ports on each logical switch are dense 0..radix-1 indices, assigned in the
// order links are attached. Links come in two kinds:
//   - switch-switch links (the fabric; these are what Topology Projection maps
//     onto physical self-links / inter-switch links), and
//   - host links (node attachments; these map onto dedicated host-facing
//     physical ports and are excluded from the projection budget, §IV-A).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/result.hpp"
#include "common/units.hpp"
#include "topo/graph.hpp"

namespace sdt::topo {

using SwitchId = int;
using HostId = int;
using PortId = int;

/// One end of a link: a logical switch and a port on it.
struct SwitchPort {
  SwitchId sw = -1;
  PortId port = -1;

  auto operator<=>(const SwitchPort&) const = default;
};

/// A fabric link between two logical switch ports.
struct Link {
  SwitchPort a;
  SwitchPort b;
  Gbps speed{10.0};

  /// The far end as seen from switch `sw`.
  [[nodiscard]] SwitchPort peerOf(SwitchId sw) const { return a.sw == sw ? b : a; }
};

/// A host attachment: host `host` hangs off `attach` (one port of a switch).
struct HostLink {
  HostId host = -1;
  SwitchPort attach;
  Gbps speed{10.0};
};

class Topology {
 public:
  Topology() = default;
  explicit Topology(std::string name, int numSwitches = 0)
      : name_(std::move(name)), portsUsed_(static_cast<std::size_t>(numSwitches), 0) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  [[nodiscard]] int numSwitches() const { return static_cast<int>(portsUsed_.size()); }
  [[nodiscard]] int numHosts() const { return static_cast<int>(hostLinks_.size()); }
  [[nodiscard]] int numLinks() const { return static_cast<int>(links_.size()); }

  /// Adds `count` switches; returns the id of the first one.
  SwitchId addSwitches(int count);

  /// Connects switches `a` and `b` with a fabric link; ports auto-assigned.
  /// Returns the link index.
  int connect(SwitchId a, SwitchId b, Gbps speed = Gbps{10.0});

  /// Attaches a new host to switch `sw`; returns the host id.
  HostId attachHost(SwitchId sw, Gbps speed = Gbps{10.0});

  [[nodiscard]] const std::vector<Link>& links() const { return links_; }
  [[nodiscard]] const std::vector<HostLink>& hostLinks() const { return hostLinks_; }
  [[nodiscard]] const Link& link(int index) const { return links_[index]; }
  [[nodiscard]] const HostLink& hostLink(HostId h) const { return hostLinks_[h]; }

  /// Total ports in use on switch `sw` (fabric + host-facing).
  [[nodiscard]] int radix(SwitchId sw) const { return portsUsed_[sw]; }
  /// Fabric-only port count on `sw` (what TP must provide, §IV-A).
  [[nodiscard]] int fabricRadix(SwitchId sw) const;
  /// Sum of fabric ports over all switches == 2 * numLinks().
  [[nodiscard]] int totalFabricPorts() const { return 2 * numLinks(); }

  /// Which switch a host attaches to.
  [[nodiscard]] SwitchId hostSwitch(HostId h) const { return hostLinks_[h].attach.sw; }

  /// Fabric link incident to (sw, port), if any.
  [[nodiscard]] std::optional<int> linkAt(SwitchPort sp) const;

  /// Switch-level graph (one vertex per switch, one edge per fabric link),
  /// e.g. for partitioning or diameter computations.
  [[nodiscard]] Graph switchGraph() const;

  /// Neighbor switch reached from (sw, port), if that port carries a fabric
  /// link; std::nullopt for host ports / unused ports.
  [[nodiscard]] std::optional<SwitchPort> neighborOf(SwitchPort sp) const;

  /// Fabric links incident to switch `sw` (indices into links()).
  [[nodiscard]] std::vector<int> linksOf(SwitchId sw) const;

  /// Hosts attached to switch `sw`.
  [[nodiscard]] std::vector<HostId> hostsOf(SwitchId sw) const;

  /// Structural sanity: port uniqueness, endpoint validity, connectivity of
  /// the switch graph when `requireConnected`.
  [[nodiscard]] Status<Error> validate(bool requireConnected = true) const;

 private:
  PortId allocPort(SwitchId sw) { return portsUsed_[sw]++; }

  std::string name_;
  std::vector<int> portsUsed_;
  std::vector<Link> links_;
  std::vector<HostLink> hostLinks_;
};

}  // namespace sdt::topo
