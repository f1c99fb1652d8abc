#ifndef HBTREE_WORKLOAD_SPEC_H_
#define HBTREE_WORKLOAD_SPEC_H_

#include <string>
#include <vector>

#include "workload/dataset.h"
#include "workload/key_chooser.h"

namespace hbtree::workload {

/// One workload definition: an operation mix in basis points (the five
/// shares sum to 10000) plus the key-skew and scan/RMW knobs. The six
/// standard YCSB mixes:
///
///   mix | read | update | insert | scan | rmw | skew
///   ----+------+--------+--------+------+-----+------------------
///    A  | 5000 |  5000  |        |      |     | scrambled zipf
///    B  | 9500 |   500  |        |      |     | scrambled zipf
///    C  |10000 |        |        |      |     | scrambled zipf
///    D  | 9500 |        |  500   |      |     | latest
///    E  |      |        |  500   | 9500 |     | scrambled zipf
///    F  | 5000 |        |        |      |5000 | scrambled zipf
struct WorkloadSpec {
  std::string name;
  int read_bp = 10000;
  int update_bp = 0;
  int insert_bp = 0;
  int scan_bp = 0;
  int rmw_bp = 0;
  KeyChooser::Params chooser;
  /// Scan lengths are uniform in [1, max_scan_len] (YCSB E's default).
  int max_scan_len = 100;

  /// Tenant this stream submits as (index into ServerOptions::tenants;
  /// see serve/tenant.h). Every op the stream generates carries it
  /// through admission, dispatch and the per-tenant serve.tenant<T>.*
  /// stats. 0 — the always-present default tenant — keeps single-tenant
  /// workloads tenant-oblivious.
  int tenant = 0;

  /// Standard mix for 'a'..'f'.
  static WorkloadSpec YcsbMix(char mix);

  /// Insert-ratio sweep point: insert_bp inserts, the rest reads,
  /// uniform keys (the fig21-style mixed-workload regime).
  static WorkloadSpec InsertRatio(int insert_bp);
};

/// A named scenario = a workload spec plus the dataset it runs against.
struct Scenario {
  WorkloadSpec spec;
  DatasetKind dataset = DatasetKind::kSequential;
};

/// The checked-in scenario matrix `check.sh workloads` runs: the six
/// YCSB mixes plus hotspot, zipfian (unscrambled, hot-shard), uniform
/// (flat popularity — the heat pipeline's negative control), scan-heavy,
/// rmw-heavy, insert-heavy, and the OSM real-key variant.
const std::vector<Scenario>& ScenarioMatrix();

/// Looks up a matrix scenario by name; false if unknown.
bool FindScenario(const std::string& name, Scenario* out);

/// Comma-separated names of every matrix scenario (for --help / errors).
std::string ScenarioNames();

}  // namespace hbtree::workload

#endif  // HBTREE_WORKLOAD_SPEC_H_
