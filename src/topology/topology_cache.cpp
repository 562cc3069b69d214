#include "topology/topology_cache.hpp"

#include "sim/config.hpp"

namespace dragonfly {

std::string topology_cache_key(const SimConfig& cfg) {
  // Reuse the canonical knob serialization so spelling variants
  // ("topology=dfly:2,4,2" vs "p=2,a=4,h=2") share one entry; only the
  // topology-defining keys participate.
  std::string key;
  for (const auto& [k, v] : cfg.canonical_kv()) {
    if (k == "topology" || k == "h" || k == "p" || k == "a" ||
        k == "groups" || k == "arrangement") {
      key += k + "=" + v + ";";
    }
  }
  return key;
}

std::shared_ptr<const Topology> TopologyCache::acquire(const SimConfig& cfg) {
  const std::string key = topology_cache_key(cfg);
  std::promise<std::shared_ptr<const Topology>> build;
  Entry entry;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = map_.find(key);
    if (it != map_.end()) {
      ++hits_;
      entry = it->second;
    } else {
      // The first acquire of a shape claims its build; concurrent
      // acquires of the same shape wait on the entry instead of
      // building a second copy.
      ++misses_;
      owner = true;
      entry = build.get_future().share();
      map_.emplace(key, entry);
    }
  }
  if (owner) {
    // Build outside the lock: construction is the expensive part, and
    // acquires of other shapes proceed meanwhile.
    try {
      build.set_value(make_topology(cfg));
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        map_.erase(key);  // the next acquire retries the build
      }
      build.set_exception(std::current_exception());
    }
  }
  return entry.get();
}

TopologyCache::Stats TopologyCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return Stats{hits_, misses_, map_.size()};
}

void TopologyCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

TopologyCache& TopologyCache::process_cache() {
  static TopologyCache* cache = new TopologyCache();
  return *cache;
}

}  // namespace dragonfly
