#include "workload/spec.h"

#include "core/macros.h"

namespace hbtree::workload {

WorkloadSpec WorkloadSpec::YcsbMix(char mix) {
  WorkloadSpec spec;
  spec.name = std::string("ycsb_") + mix;
  spec.chooser.kind = KeyChooserKind::kScrambledZipfian;
  switch (mix) {
    case 'a':
      spec.read_bp = 5000;
      spec.update_bp = 5000;
      break;
    case 'b':
      spec.read_bp = 9500;
      spec.update_bp = 500;
      break;
    case 'c':
      spec.read_bp = 10000;
      break;
    case 'd':
      spec.read_bp = 9500;
      spec.insert_bp = 500;
      spec.chooser.kind = KeyChooserKind::kLatest;
      break;
    case 'e':
      spec.read_bp = 0;
      spec.scan_bp = 9500;
      spec.insert_bp = 500;
      break;
    case 'f':
      spec.read_bp = 5000;
      spec.rmw_bp = 5000;
      break;
    default:
      HBTREE_CHECK_MSG(false, "unknown YCSB mix '%c'", mix);
  }
  return spec;
}

WorkloadSpec WorkloadSpec::InsertRatio(int insert_bp) {
  HBTREE_CHECK_MSG(insert_bp >= 0 && insert_bp <= 10000,
                   "insert_bp must lie in [0, 10000]");
  WorkloadSpec spec;
  spec.name = "insert_" + std::to_string(insert_bp / 100) + "pct";
  spec.read_bp = 10000 - insert_bp;
  spec.insert_bp = insert_bp;
  spec.chooser.kind = KeyChooserKind::kUniform;
  return spec;
}

namespace {

std::vector<Scenario> BuildMatrix() {
  std::vector<Scenario> matrix;
  for (char mix : {'a', 'b', 'c', 'd', 'e', 'f'}) {
    matrix.push_back({WorkloadSpec::YcsbMix(mix), DatasetKind::kSequential});
  }

  // 10% of the keys take 90% of the ops, uniform within each set.
  WorkloadSpec hotspot = WorkloadSpec::YcsbMix('b');
  hotspot.name = "hotspot";
  hotspot.chooser.kind = KeyChooserKind::kHotspot;
  hotspot.chooser.hot_key_fraction = 0.1;
  hotspot.chooser.hot_op_fraction = 0.9;
  matrix.push_back({hotspot, DatasetKind::kSequential});

  // Unscrambled zipf: the hot ranks are a contiguous low-key range, so
  // one key-range shard takes nearly all the load (the hot-shard regime
  // the elastic-sharding roadmap item targets).
  WorkloadSpec zipfian = WorkloadSpec::YcsbMix('b');
  zipfian.name = "zipfian";
  zipfian.chooser.kind = KeyChooserKind::kZipfian;
  matrix.push_back({zipfian, DatasetKind::kSequential});

  // Flat key popularity: the negative control for the heat pipeline —
  // no range may clear the hot-range threshold (validate_metrics.py
  // --heat-verdicts).
  WorkloadSpec uniform = WorkloadSpec::YcsbMix('b');
  uniform.name = "uniform";
  uniform.chooser.kind = KeyChooserKind::kUniform;
  matrix.push_back({uniform, DatasetKind::kSequential});

  WorkloadSpec scan_heavy;
  scan_heavy.name = "scan_heavy";
  scan_heavy.read_bp = 1500;
  scan_heavy.scan_bp = 8000;
  scan_heavy.insert_bp = 500;
  scan_heavy.max_scan_len = 256;
  scan_heavy.chooser.kind = KeyChooserKind::kScrambledZipfian;
  matrix.push_back({scan_heavy, DatasetKind::kSequential});

  WorkloadSpec rmw_heavy;
  rmw_heavy.name = "rmw_heavy";
  rmw_heavy.read_bp = 1000;
  rmw_heavy.rmw_bp = 9000;
  rmw_heavy.chooser.kind = KeyChooserKind::kScrambledZipfian;
  matrix.push_back({rmw_heavy, DatasetKind::kSequential});

  matrix.push_back(
      {WorkloadSpec::InsertRatio(5000), DatasetKind::kUniform});
  matrix.back().spec.name = "insert_heavy";

  // Real-key shape: YCSB B over OSM-style clustered 64-bit keys.
  WorkloadSpec osm = WorkloadSpec::YcsbMix('b');
  osm.name = "osm";
  matrix.push_back({osm, DatasetKind::kOsm});

  return matrix;
}

}  // namespace

const std::vector<Scenario>& ScenarioMatrix() {
  static const std::vector<Scenario>* matrix =
      new std::vector<Scenario>(BuildMatrix());
  return *matrix;
}

bool FindScenario(const std::string& name, Scenario* out) {
  for (const Scenario& scenario : ScenarioMatrix()) {
    if (scenario.spec.name == name) {
      *out = scenario;
      return true;
    }
  }
  return false;
}

std::string ScenarioNames() {
  std::string names;
  for (const Scenario& scenario : ScenarioMatrix()) {
    if (!names.empty()) names += ", ";
    names += scenario.spec.name;
  }
  return names;
}

}  // namespace hbtree::workload
