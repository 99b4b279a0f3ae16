//! Snapshots of the program's public counters, taken before and after a
//! window so that every count is a delta over that window.

use ovs_core::ct::CtStats;
use ovs_core::dpif::DpifStats;
use ovs_core::revalidator::RevalStats;
use ovs_kernel::ovs_module::ModStats;
use ovs_nsx::topology::Host;
use ovs_obs::perf::{Stage, STAGES};
use ovs_sim::Context;

pub const CONTEXTS: [Context; 4] = [
    Context::User,
    Context::System,
    Context::Softirq,
    Context::Guest,
];

/// One host's counters at an instant.
#[derive(Debug, Clone, Default)]
pub struct HostSnap {
    pub dpif: DpifStats,
    /// `DpifNetdev::perf` stage totals summed over PMD cores.
    pub stage_ns: [u64; STAGES.len()],
    pub perf_packets: u64,
    pub subtables_probed: u64,
    pub lane_steps: u64,
    pub lane_keys: u64,
    pub lane_width: usize,
    pub miniflow_expands: u64,
    pub megaflows: usize,
    pub ct: CtStats,
    pub ct_conns: usize,
    pub ct_accounting_ok: bool,
    pub reval: RevalStats,
    pub kmod: ModStats,
    pub netlink_upcalls: u64,
    pub kernel_drops: u64,
    /// Busy ns per core, per context (`CONTEXTS` order).
    pub cpu: Vec<[f64; 4]>,
}

impl HostSnap {
    pub fn take(h: &Host) -> Self {
        let k = &h.kernel;
        let cpus = &k.sim.cpus;
        let cpu = (0..cpus.len())
            .map(|c| CONTEXTS.map(|ctx| cpus.core(c).ns(ctx)))
            .collect();
        let mut s = HostSnap {
            kmod: k.ovs.stats,
            kernel_drops: k.upcall_drops + k.vhost_flushed,
            cpu,
            ..Default::default()
        };
        if let Some(dp) = &h.dp {
            s.dpif = dp.stats;
            for perf in dp.perf.values() {
                for (acc, stage) in s.stage_ns.iter_mut().zip(STAGES) {
                    *acc += perf.stage_ns(stage);
                }
                s.perf_packets += perf.packets();
            }
            s.subtables_probed = dp.subtables_probed();
            s.lane_steps = dp.lane_steps();
            s.lane_keys = dp.lane_keys();
            s.lane_width = dp.lane_width();
            s.miniflow_expands = dp.miniflow_stats.expands;
            s.megaflows = dp.megaflow_count();
            s.ct = dp.ct.stats;
            s.ct_conns = dp.ct.len();
            s.ct_accounting_ok = dp.ct.accounting_ok();
            s.reval = dp.revalidator.stats;
        }
        if let Some(nl) = &h.netlink {
            s.megaflows = k.ovs.flow_count();
            s.ct = k.conntrack.stats;
            s.ct_conns = k.conntrack.len();
            s.ct_accounting_ok = k.conntrack.accounting_ok();
            s.reval = nl.revalidator.stats;
            s.netlink_upcalls = nl.upcalls_handled;
        }
        s
    }

    pub fn stage(&self, stage: Stage) -> u64 {
        let i = STAGES
            .iter()
            .position(|s| *s == stage)
            .expect("known stage");
        self.stage_ns[i]
    }

    /// Busy ns of `ctx` summed over every core.
    pub fn ctx_ns(&self, ctx: usize) -> f64 {
        self.cpu.iter().map(|c| c[ctx]).sum()
    }
}

/// Both hosts plus the thread's coverage counters.
#[derive(Debug, Clone, Default)]
pub struct Snap {
    pub hosts: Vec<HostSnap>,
    pub coverage_total: u64,
    pub coverage_drops: u64,
}

impl Snap {
    pub fn take(hosts: &[Host]) -> Self {
        let cov = ovs_obs::coverage::snapshot();
        let drops = ovs_tgen::scenarios::DROP_COUNTERS;
        Snap {
            hosts: hosts.iter().map(HostSnap::take).collect(),
            coverage_total: cov.iter().map(|(_, v)| v).sum(),
            coverage_drops: cov
                .iter()
                .filter(|(n, _)| drops.contains(n))
                .map(|(_, v)| v)
                .sum(),
        }
    }
}

/// `after - before` for a monotonically growing counter.
pub fn d(after: u64, before: u64) -> f64 {
    after.saturating_sub(before) as f64
}
