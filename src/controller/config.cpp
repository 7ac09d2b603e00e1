#include "controller/config.hpp"

#include <cmath>
#include <cstdint>
#include <optional>

#include "common/strings.hpp"
#include "topo/generators.hpp"
#include "topo/zoo.hpp"

namespace sdt::controller {

namespace {

/// Most switches a config may ask for, and most hosts and full-mesh links a
/// generator may build: it bounds what a generator allocates.
constexpr std::int64_t kMaxSwitches = std::int64_t{1} << 20;

/// Reads the integer fields of one "topology" object, each checked against
/// its bounds before anything narrows it to int. The first violation is kept
/// for check(); get() then returns `lo` so the caller can go on.
class IntFields {
 public:
  explicit IntFields(const json::Value& spec) : spec_(spec) {}

  int get(const char* key, std::int64_t fallback, std::int64_t lo, std::int64_t hi) {
    const std::int64_t v = spec_.getInt(key, fallback);
    if (v >= lo && v <= hi) return static_cast<int>(v);
    if (error_.empty()) {
      error_ = strFormat("topology '%s' must be in [%lld, %lld], got %lld", key,
                         static_cast<long long>(lo), static_cast<long long>(hi),
                         static_cast<long long>(v));
    }
    return static_cast<int>(lo);
  }

  /// The first out-of-range field, or a generator that would build more
  /// than kMaxSwitches switches, hosts or links.
  [[nodiscard]] std::optional<Error> check(std::int64_t switches, int hostsPerSwitch,
                                           std::int64_t links = 0) const {
    if (!error_.empty()) return makeError(error_);
    if (switches > kMaxSwitches || switches * hostsPerSwitch > kMaxSwitches ||
        links > kMaxSwitches) {
      return makeError(strFormat("topology has more than %lld switches, hosts or links",
                                 static_cast<long long>(kMaxSwitches)));
    }
    return std::nullopt;
  }

 private:
  const json::Value& spec_;
  std::string error_;
};

/// Switch id `v` of a custom topology with `switches` switches, if valid.
std::optional<int> switchId(const json::Value& v, int switches) {
  if (!v.isNumber() || v.asInt() < 0 || v.asInt() >= switches) return std::nullopt;
  return static_cast<int>(v.asInt());
}

}  // namespace

Result<topo::Topology> topologyFromJson(const json::Value& spec) {
  if (!spec.isObject()) return makeError("'topology' must be an object");
  const std::string type = spec.getString("type", "");
  IntFields f(spec);
  topo::GenOptions opt;
  opt.hostsPerSwitch = f.get("hosts_per_switch", 1, 0, kMaxSwitches);
  const double gbps = spec.getDouble("link_gbps", 10.0);
  if (!std::isfinite(gbps) || gbps <= 0.0) {
    return makeError("topology 'link_gbps' must be a finite number > 0");
  }
  opt.linkSpeed = Gbps{gbps};
  const int hps = opt.hostsPerSwitch;

  // Every generator only asserts its preconditions: check them here.
  if (type == "line" || type == "ring" || type == "star") {
    const int n = f.get("n", 8, type == "line" ? 1 : 2, kMaxSwitches);
    if (auto e = f.check(n, hps)) return *e;
    if (type == "line") return topo::makeLine(n, opt);
    return type == "ring" ? topo::makeRing(n, opt) : topo::makeStar(n, opt);
  }
  if (type == "fullmesh") {
    const int n = f.get("n", 4, 2, kMaxSwitches);
    if (auto e = f.check(n, hps, std::int64_t{n} * (n - 1) / 2)) return *e;
    return topo::makeFullMesh(n, opt);
  }
  if (type == "hypercube") {
    const int dims = f.get("dims", 3, 1, 20);
    if (auto e = f.check(std::int64_t{1} << dims, hps)) return *e;
    return topo::makeHypercube(dims, opt);
  }
  if (type == "fattree") {
    const int k = f.get("k", 4, 2, kMaxSwitches);
    if (k % 2 != 0) return makeError("fattree requires even k >= 2");
    if (auto e = f.check(std::int64_t{5} * k * k / 4, hps)) return *e;
    return topo::makeFatTree(k, opt);
  }
  if (type == "dragonfly") {
    const int a = f.get("a", 4, 2, kMaxSwitches);
    const int g = f.get("g", 9, 2, kMaxSwitches);
    const int h = f.get("h", 2, 1, kMaxSwitches);
    if (auto e = f.check(std::int64_t{a} * g, hps)) return *e;
    if (std::int64_t{a} * h < g - 1) {
      return makeError("dragonfly requires a>=2, g>=2, h>=1 and a*h >= g-1");
    }
    return topo::makeDragonfly(a, g, h, opt);
  }
  if (type == "mesh2d" || type == "torus2d") {
    const bool torus = type == "torus2d";
    const int x = f.get("x", torus ? 5 : 4, torus ? 2 : 1, kMaxSwitches);
    const int y = f.get("y", torus ? 5 : 4, torus ? 2 : 1, kMaxSwitches);
    if (auto e = f.check(std::int64_t{x} * y, hps)) return *e;
    return torus ? topo::makeTorus2D(x, y, opt) : topo::makeMesh2D(x, y, opt);
  }
  if (type == "mesh3d" || type == "torus3d") {
    const bool torus = type == "torus3d";
    const int x = f.get("x", torus ? 4 : 3, torus ? 2 : 1, kMaxSwitches);
    const int y = f.get("y", torus ? 4 : 3, torus ? 2 : 1, kMaxSwitches);
    const int z = f.get("z", torus ? 4 : 3, torus ? 2 : 1, kMaxSwitches);
    if (auto e = f.check(std::int64_t{x} * y * z, hps)) return *e;
    return torus ? topo::makeTorus3D(x, y, z, opt) : topo::makeMesh3D(x, y, z, opt);
  }
  if (type == "zoo") {
    const int index = f.get("index", 0, 0, topo::zooSize() - 1);
    if (auto e = f.check(0, 0)) return *e;
    return topo::makeZooTopology(index);
  }
  if (type == "custom") {
    const int switches = f.get("switches", 0, 1, kMaxSwitches);
    if (auto e = f.check(switches, 0)) return *e;
    topo::Topology t(spec.getString("name", "custom"), switches);
    if (!spec.at("links").isArray()) return makeError("custom topology needs 'links'");
    for (const json::Value& l : spec.at("links").asArray()) {
      if (!l.isArray() || l.asArray().size() != 2) {
        return makeError("each link must be [a, b]");
      }
      const auto a = switchId(l.asArray()[0], switches);
      const auto b = switchId(l.asArray()[1], switches);
      if (!a || !b) {
        return makeError(strFormat("link [a, b] must join switches in [0, %d)", switches));
      }
      t.connect(*a, *b, opt.linkSpeed);
    }
    if (spec.at("hosts").isArray()) {
      for (const json::Value& h : spec.at("hosts").asArray()) {
        const auto sw = switchId(h, switches);
        if (!sw) return makeError(strFormat("host must sit on a switch in [0, %d)", switches));
        t.attachHost(*sw, opt.linkSpeed);
      }
    }
    if (auto s = t.validate(/*requireConnected=*/false); !s) return s.error();
    return t;
  }
  return makeError("unknown topology type: '" + type + "'");
}

Result<ExperimentConfig> parseExperimentConfig(const json::Value& doc) {
  if (!doc.isObject()) return makeError("config must be a JSON object");
  auto topoResult = topologyFromJson(doc.at("topology"));
  if (!topoResult) return topoResult.error();
  ExperimentConfig config{std::move(topoResult).value()};
  config.routingStrategy = doc.getString("routing", "shortest");
  config.pfc = doc.getBool("pfc", true);
  config.dcqcn = doc.getBool("dcqcn", true);
  config.cutThrough = doc.getBool("cut_through", true);
  return config;
}

Result<ExperimentConfig> loadExperimentConfig(const std::string& path) {
  auto doc = json::parseFile(path);
  if (!doc) return doc.error();
  return parseExperimentConfig(doc.value());
}

void applyFabricKnobs(const ExperimentConfig& config, sim::NetworkConfig& netConfig) {
  netConfig.pfcEnabled = config.pfc;
  netConfig.ecnEnabled = config.dcqcn;
  netConfig.cutThrough = config.cutThrough;
}

}  // namespace sdt::controller
