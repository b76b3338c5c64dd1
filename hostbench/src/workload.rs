//! The benchmark's named workloads and the run configs each generates
//! from a seed.

use kloc_policy::PolicyKind;
use kloc_sim::engine::{Platform, RunConfig};
use kloc_workloads::{Scale, WorkloadKind};

/// One named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Bench {
    /// Filebench x KLOCs at Huge: registry hooks plus VFS/page-cache/slab churn.
    FilebenchKloc,
    /// Cassandra x KLOCs at Huge: policy ticks dominate.
    CassandraKloc,
    /// RocksDB x Nimble at Huge: kernel and frame table, no registry.
    RocksdbNimble,
    /// Fig. 6-style matrix at Small through the parallel runner.
    Sweep,
}

/// Worker threads of the parallel sweep.
pub const SWEEP_JOBS: usize = 2;

/// Measured-phase ops of a single-run workload.
const SINGLE_RUN_OPS: u64 = 120_000;

impl Bench {
    /// Every workload, in the order the README lists them.
    pub const ALL: [Bench; 4] = [
        Bench::FilebenchKloc,
        Bench::CassandraKloc,
        Bench::RocksdbNimble,
        Bench::Sweep,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Bench::FilebenchKloc => "filebench-kloc",
            Bench::CassandraKloc => "cassandra-kloc",
            Bench::RocksdbNimble => "rocksdb-nimble",
            Bench::Sweep => "sweep",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Bench> {
        Bench::ALL.into_iter().find(|b| b.name() == name)
    }

    /// Whether this is the multi-run sweep (the others are single runs).
    pub fn is_sweep(self) -> bool {
        self == Bench::Sweep
    }

    /// The run configs for `seed`: one for a single-run workload, the
    /// whole matrix for the sweep. The seed replaces `Scale::seed`.
    pub fn configs(self, seed: u64) -> Vec<RunConfig> {
        let single = |workload, policy| {
            let scale = Scale::huge().with_ops(SINGLE_RUN_OPS).with_seed(seed);
            vec![two_tier(workload, policy, scale.fast_bytes, 8, &scale)]
        };
        match self {
            Bench::FilebenchKloc => single(WorkloadKind::Filebench, PolicyKind::Kloc),
            Bench::CassandraKloc => single(WorkloadKind::Cassandra, PolicyKind::Kloc),
            Bench::RocksdbNimble => single(WorkloadKind::RocksDb, PolicyKind::Nimble),
            Bench::Sweep => sweep(&Scale::small().with_seed(seed)),
        }
    }
}

/// The same config with no measured-phase operations: a run of it is
/// the load phase plus the teardown of the freshly loaded dataset.
pub fn setup_only(config: &RunConfig) -> RunConfig {
    let mut c = config.clone();
    c.scale = c.scale.with_ops(0);
    c
}

fn two_tier(
    workload: WorkloadKind,
    policy: PolicyKind,
    fast_bytes: u64,
    bw_ratio: u64,
    scale: &Scale,
) -> RunConfig {
    let mut c = RunConfig::two_tier(workload, policy, scale.clone());
    c.platform = Platform::TwoTier {
        fast_bytes,
        bw_ratio,
    };
    c
}

/// 2 capacities x 2 bandwidth ratios x 5 strategies x 2 workloads = 40 runs.
fn sweep(scale: &Scale) -> Vec<RunConfig> {
    let policies = [
        PolicyKind::AllSlow,
        PolicyKind::Naive,
        PolicyKind::Nimble,
        PolicyKind::NimblePlusPlus,
        PolicyKind::Kloc,
    ];
    let mut configs = Vec::new();
    for cap_shift in [0u64, 1] {
        for ratio in [8u64, 2] {
            for policy in policies {
                for w in [WorkloadKind::RocksDb, WorkloadKind::Redis] {
                    configs.push(two_tier(
                        w,
                        policy,
                        scale.fast_bytes >> cap_shift,
                        ratio,
                        scale,
                    ));
                }
            }
        }
    }
    configs
}
