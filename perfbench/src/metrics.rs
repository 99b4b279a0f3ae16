//! Metric derivation, output checks and the result line.
//!
//! "per pkt" below means per request: one frame a sending VM offers,
//! which crosses both hosts and comes back as one echo.

use crate::counters::{d, HostSnap, Snap};
use crate::rig::{Counts, Rig};
use crate::trace::Layer;
use crate::workload::{Workload, BURST, REVALIDATE_EVERY_NS};
use ovs_obs::perf::Stage;
use ovs_sim::{SimCtx, SimRng};
use ovs_tgen::RateMeasurement;

/// The clock a metric is read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Host time the Rust code takes.
    Wall,
    /// Virtual-clock cost model (`ovs-sim::costs`): modeled only.
    Modeled,
    /// A count or a size, on no clock.
    Count,
}

pub struct Value {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub clock: Clock,
}

fn v(name: &'static str, value: f64, unit: &'static str, clock: Clock) -> Value {
    Value {
        name,
        value,
        unit,
        clock,
    }
}

/// Per-burst wall observations over the measured window, split into
/// untraced (index 0) and traced (index 1) bursts.
#[derive(Debug, Default)]
pub struct Window {
    pub burst_ns: [Vec<u64>; 2],
    pub delivered: [u64; 2],
    pub wall_ns: [u64; 2],
    pub bursts: [u64; 2],
    pub wall_s: f64,
}

impl Window {
    pub fn record(&mut self, traced: bool, delivered: u64, wall_ns: u64) {
        let i = traced as usize;
        self.burst_ns[i].push(wall_ns);
        self.delivered[i] += delivered;
        self.wall_ns[i] += wall_ns;
        self.bursts[i] += 1;
    }

    pub fn requests(&self) -> u64 {
        (self.bursts[0] + self.bursts[1]) * BURST as u64
    }

    pub fn delivered(&self) -> u64 {
        self.delivered[0] + self.delivered[1]
    }
}

pub struct Inputs<'a> {
    pub w: &'a Workload,
    pub rig: &'a Rig,
    pub win: &'a Window,
    pub start: &'a Snap,
    pub model: &'a Snap,
    pub obs_start: Counts,
    pub obs_model: Counts,
    /// Virtual ns the modeled window spans.
    pub model_ns: u64,
    pub seed: u64,
}

/// Nearest-rank percentile of `xs` (sorted in place).
pub fn percentile(xs: &mut [u64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_unstable();
    let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1] as f64
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Lossless rate of one host over the modeled window: its CPU time
/// deltas replayed into a fresh accounting set.
fn host_rate(before: &HostSnap, after: &HostSnap, requests: u64, frame_len: usize) -> f64 {
    let mut sim = SimCtx::new(after.cpu.len());
    for (c, (a, b)) in after.cpu.iter().zip(&before.cpu).enumerate() {
        for (i, ctx) in crate::counters::CONTEXTS.iter().enumerate() {
            sim.charge(c, *ctx, a[i] - b[i]);
        }
    }
    RateMeasurement::from_sim(&sim, requests as usize, frame_len, 10.0).mpps
}

/// Per host: the busiest core's modeled busy time over the window's
/// virtual duration.
fn busiest_core_util(start: &Snap, end: &Snap, window_ns: u64) -> Vec<f64> {
    start
        .hosts
        .iter()
        .zip(&end.hosts)
        .map(|(a, b)| {
            let busiest = a
                .cpu
                .iter()
                .zip(&b.cpu)
                .map(|(x, y)| y.iter().sum::<f64>() - x.iter().sum::<f64>())
                .fold(0.0, f64::max);
            busiest / window_ns as f64
        })
        .collect()
}

/// Passes of the queue model over the modeled window's bursts.
const QUEUE_PASSES: usize = 128;

/// Modeled request latency: the datapath's own rx→tx latency plus the
/// time the packet's burst waits for the busiest core. The wait comes
/// from a single-server queue fed by seeded Poisson burst arrivals at the
/// offered rate, whose service times are the modeled window's bursts in
/// order (Lindley's recursion), replayed `QUEUE_PASSES` times so that the
/// tail rests on many arrivals. Each pass takes another of every burst's
/// packets.
fn queued_latency(rig: &Rig, seed: u64) -> Vec<u64> {
    let (service, lat) = (&rig.obs.service_ns, &rig.obs.model_lat_ns);
    let mean_gap = rig.w.burst_ns() as f64;
    let mut rng = SimRng::new(seed ^ 0x7175_6575_6500);
    let (mut wait, mut prev) = (0.0f64, 0.0f64);
    let mut out = Vec::with_capacity(QUEUE_PASSES * service.len());
    for pass in 0..QUEUE_PASSES {
        for (s, l) in service.iter().zip(lat) {
            let gap = -(1.0 - rng.f64()).ln() * mean_gap;
            wait = (wait + prev - gap).max(0.0);
            prev = *s;
            if !l.is_empty() {
                out.push(wait.round() as u64 + l[pass * l.len() / QUEUE_PASSES]);
            }
        }
    }
    out
}

/// The wall-clock percentile `burst_p10_us` and `control_ms_per_s` are
/// read at: the speed of the code while the host is not disturbed (see
/// NOISE.md).
const WALL_PCT: f64 = 0.10;

/// Wall ms of control-plane work per second of virtual time: each host's
/// revalidator sweeps and controller `flow_mod`s, each kind priced at
/// `WALL_PCT` of its calls' wall times, times the number of such calls
/// the schedule makes per virtual second.
fn control_ms_per_s(m: &Inputs) -> f64 {
    let sweeps_per_s = 1e9 / REVALIDATE_EVERY_NS as f64;
    let mods_per_s = match m.w.bursts_per_flow_mod {
        0 => 0.0,
        n => 1e9 / (m.w.burst_ns() * n) as f64,
    };
    let o = &m.rig.obs;
    let priced = |calls: &[u64], per_s: f64| percentile(&mut calls.to_vec(), WALL_PCT) * per_s;
    (0..2)
        .map(|h| {
            priced(&o.sweep_wall_ns[h], sweeps_per_s) + priced(&o.flow_mod_wall_ns[h], mods_per_s)
        })
        .sum::<f64>()
        / 1e6
}

/// `setup_s`: the fastest of the run's host-pair builds.
pub fn setup(setup_s: &[f64]) -> Value {
    let fastest = setup_s.iter().copied().fold(f64::INFINITY, f64::min);
    v("setup_s", fastest, "s", Clock::Wall)
}

/// Megaflows the control plane examined per virtual second of the
/// modeled window, both hosts: flows dumped by revalidator sweeps plus
/// flows re-translated by `flow_mod`s. The schedule is fixed in virtual
/// time, so every run of a workload makes the same calls in the window.
fn control_flows_per_s(m: &Inputs) -> f64 {
    let examined: f64 = m
        .start
        .hosts
        .iter()
        .zip(&m.model.hosts)
        .map(|(a, b)| d(b.reval.flows_dumped, a.reval.flows_dumped))
        .sum();
    ratio(examined, m.model_ns as f64 / 1e9)
}

pub fn end_to_end(m: &Inputs) -> Vec<Value> {
    let requests = m.obs_model.requests - m.obs_start.requests;
    let model_mpps = m
        .start
        .hosts
        .iter()
        .zip(&m.model.hosts)
        .map(|(a, b)| host_rate(a, b, requests, m.w.frame_len))
        .fold(f64::INFINITY, f64::min);
    let mut lat = queued_latency(m.rig, m.seed);
    vec![
        v("model_mpps", model_mpps, "Mpps", Clock::Modeled),
        v(
            "model_lat_p50_us",
            percentile(&mut lat, 0.50) / 1e3,
            "us",
            Clock::Modeled,
        ),
        v(
            "model_lat_p99_us",
            percentile(&mut lat, 0.99) / 1e3,
            "us",
            Clock::Modeled,
        ),
        v(
            "control_flows_per_s",
            control_flows_per_s(m),
            "1/s",
            Clock::Count,
        ),
        v("peak_rss_mb", peak_rss_mb(), "MB", Clock::Count),
    ]
}

pub fn per_layer(m: &Inputs) -> Vec<Value> {
    let (a, b) = (m.start, m.model);
    let (o0, o1) = (m.obs_start, m.obs_model);
    let pkts = (o1.requests - o0.requests) as f64;
    let per_pkt = |x: f64| ratio(x, pkts);
    let sum = |f: &dyn Fn(&HostSnap, &HostSnap) -> f64| -> f64 {
        a.hosts.iter().zip(&b.hosts).map(|(x, y)| f(x, y)).sum()
    };
    let tr = &m.rig.tracer;
    // Wall self time per traced request, µs.
    let traced_pkts = (m.win.bursts[1] * BURST as u64) as f64;
    let self_us = |l: Layer| ratio(tr.self_ns(l) as f64 / 1e3, traced_pkts);

    // core::dpif stage split (modeled, per datapath packet).
    let dp_pkts = sum(&|x, y| d(y.perf_packets, x.perf_packets));
    let stage = |s: Stage| ratio(sum(&|x, y| d(y.stage(s), x.stage(s))), dp_pkts);
    // sim: Table 4 context split (modeled).
    let ctx = |i: usize| per_pkt(sum(&|x, y| y.ctx_ns(i) - x.ctx_ns(i)));
    // core::cache, per pipeline pass (kernel: per flow-table lookup).
    let passes = sum(&|x, y| {
        d(y.dpif.packets_processed, x.dpif.packets_processed)
            + d(y.dpif.recirculations, x.dpif.recirculations)
            + d(y.kmod.lookups, x.kmod.lookups)
    });
    let cache = |f: &dyn Fn(&HostSnap) -> u64| ratio(sum(&|x, y| d(f(y), f(x))), passes);
    // core::classifier.
    let dpcls_lookups = sum(&|x, y| {
        d(y.dpif.megaflow_hits, x.dpif.megaflow_hits)
            + d(y.dpif.upcalls, x.dpif.upcalls)
            + d(y.kmod.lookups, x.kmod.lookups)
    });
    let subtables = sum(&|x, y| {
        d(y.subtables_probed, x.subtables_probed) + d(y.kmod.masks_probed, x.kmod.masks_probed)
    });
    let lane_slots = sum(&|x, y| d(y.lane_steps, x.lane_steps) * y.lane_width as f64);
    // core::revalidator.
    let sweeps = (o1.sweeps - o0.sweeps) as f64;
    let flow_mods = (o1.flow_mods - o0.flow_mods) as f64;
    let reval_changed = sum(&|x, y| d(y.reval.deleted_changed, x.reval.deleted_changed));
    let sweep_changed = (o1.deleted_changed - o0.deleted_changed) as f64;
    let mut sweep_ns = m.rig.obs.sweep_wall_ns.concat();
    let mut update_ns = m.rig.obs.flow_mod_wall_ns.concat();
    // ct.
    let ct_hits = sum(&|x, y| d(y.ct.hits, x.ct.hits));
    let ct_misses = sum(&|x, y| d(y.ct.misses, x.ct.misses));
    // trace overhead: untraced against traced chunks of the same run.
    let pps = |i: usize| ratio(m.win.delivered[i] as f64, m.win.wall_ns[i] as f64 / 1e9);
    let overhead_pct = (ratio(pps(0), pps(1)) - 1.0) * 100.0;

    use Clock::*;
    vec![
        // The whole echo path, untraced chunks only.
        v("delivered_pps", pps(0), "pkt/s", Wall),
        v(
            "burst_p10_us",
            percentile(&mut m.win.burst_ns[0].clone(), WALL_PCT) / 1e3,
            "us",
            Wall,
        ),
        v(
            "burst_p99_us",
            percentile(&mut m.win.burst_ns[0].clone(), 0.99) / 1e3,
            "us",
            Wall,
        ),
        // core::pmd
        v("pmd.us_per_pkt", self_us(Layer::Pmd), "us/pkt", Wall),
        v(
            "pmd.empty_round_ratio",
            ratio(
                (o1.empty_rounds - o0.empty_rounds) as f64,
                (o1.rounds - o0.rounds) as f64,
            ),
            "fraction",
            Count,
        ),
        // kernel
        v("kernel.rx_us_per_pkt", self_us(Layer::Rx), "us/pkt", Wall),
        v(
            "kernel.vhost_net_us_per_pkt",
            self_us(Layer::VhostNet),
            "us/pkt",
            Wall,
        ),
        v("guest.us_per_pkt", self_us(Layer::Guest), "us/pkt", Wall),
        v(
            "generator.us_per_pkt",
            self_us(Layer::Burst),
            "us/pkt",
            Wall,
        ),
        // core::dpif (modeled stage split)
        v("dpif.model.rx_ns", stage(Stage::Rx), "ns/pkt", Modeled),
        v(
            "dpif.model.parse_ns",
            stage(Stage::Parse),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.emc_ns",
            stage(Stage::EmcLookup),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.smc_ns",
            stage(Stage::SmcLookup),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.megaflow_ns",
            stage(Stage::MegaflowLookup),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.upcall_ns",
            stage(Stage::Upcall),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.batch_ns",
            stage(Stage::Batch),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.actions_ns",
            stage(Stage::Actions),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.ct_ns",
            stage(Stage::CtLookup),
            "ns/pkt",
            Modeled,
        ),
        v(
            "dpif.model.recirc_ns",
            stage(Stage::Recirc),
            "ns/pkt",
            Modeled,
        ),
        v("dpif.model.tx_ns", stage(Stage::Tx), "ns/pkt", Modeled),
        // sim (Table 4 contexts)
        v("sim.model.user_ns_per_pkt", ctx(0), "ns/pkt", Modeled),
        v("sim.model.system_ns_per_pkt", ctx(1), "ns/pkt", Modeled),
        v("sim.model.softirq_ns_per_pkt", ctx(2), "ns/pkt", Modeled),
        v("sim.model.guest_ns_per_pkt", ctx(3), "ns/pkt", Modeled),
        v(
            "sim.model.busiest_core_util",
            busiest_core_util(a, b, m.model_ns)
                .into_iter()
                .fold(0.0, f64::max),
            "fraction",
            Modeled,
        ),
        // core::cache
        v(
            "cache.emc_hit_ratio",
            cache(&|s| s.dpif.emc_hits),
            "fraction",
            Count,
        ),
        v(
            "cache.smc_hit_ratio",
            cache(&|s| s.dpif.smc_hits),
            "fraction",
            Count,
        ),
        v(
            "cache.megaflow_hit_ratio",
            cache(&|s| s.dpif.megaflow_hits + s.kmod.hits),
            "fraction",
            Count,
        ),
        v(
            "cache.upcall_ratio",
            cache(&|s| s.dpif.upcalls + s.kmod.misses),
            "fraction",
            Count,
        ),
        // core::classifier
        v(
            "dpcls.subtables_per_lookup",
            ratio(subtables, dpcls_lookups),
            "count",
            Count,
        ),
        v(
            "dpcls.lane_occupancy",
            ratio(sum(&|x, y| d(y.lane_keys, x.lane_keys)), lane_slots),
            "fraction",
            Count,
        ),
        v(
            "dpcls.miniflow_expands_per_pkt",
            per_pkt(sum(&|x, y| d(y.miniflow_expands, x.miniflow_expands))),
            "count",
            Count,
        ),
        // core::ofproto
        v(
            "ofproto.upcalls_per_kpkt",
            1e3 * per_pkt(sum(&|x, y| {
                d(y.dpif.upcalls, x.dpif.upcalls) + d(y.netlink_upcalls, x.netlink_upcalls)
            })),
            "count",
            Count,
        ),
        v(
            "ofproto.megaflows",
            b.hosts.iter().map(|h| h.megaflows as f64).sum(),
            "count",
            Count,
        ),
        v(
            "ofproto.update_p50_us",
            percentile(&mut update_ns, 0.50) / 1e3,
            "us",
            Wall,
        ),
        v(
            "ofproto.update_p95_us",
            percentile(&mut update_ns, 0.95) / 1e3,
            "us",
            Wall,
        ),
        // core::revalidator
        v("control_ms_per_s", control_ms_per_s(m), "ms/s", Wall),
        v(
            "revalidator.sweep_ms",
            percentile(&mut sweep_ns, 0.50) / 1e6,
            "ms",
            Wall,
        ),
        v(
            "revalidator.flows_dumped_per_sweep",
            ratio((o1.swept_flows - o0.swept_flows) as f64, sweeps),
            "count",
            Count,
        ),
        v(
            "revalidator.deleted_idle",
            (o1.deleted_idle - o0.deleted_idle) as f64,
            "count",
            Count,
        ),
        v(
            "revalidator.changed_per_flow_mod",
            ratio(reval_changed - sweep_changed, flow_mods),
            "count",
            Count,
        ),
        // ct
        v(
            "ct.commits_per_kpkt",
            1e3 * per_pkt(sum(&|x, y| d(y.ct.commits, x.ct.commits))),
            "count",
            Count,
        ),
        v(
            "ct.hit_ratio",
            ratio(ct_hits, ct_hits + ct_misses),
            "fraction",
            Count,
        ),
        v(
            "ct.expired_per_sweep",
            ratio(sum(&|x, y| d(y.ct.expired, x.ct.expired)), sweeps),
            "count",
            Count,
        ),
        v(
            "ct.conns",
            b.hosts.iter().map(|h| h.ct_conns as f64).sum(),
            "count",
            Count,
        ),
        // kernel::ovs_module / DpifNetlink
        v(
            "ovs_module.lookups_per_pkt",
            per_pkt(sum(&|x, y| d(y.kmod.lookups, x.kmod.lookups))),
            "count",
            Count,
        ),
        v(
            "netlink.upcalls",
            sum(&|x, y| d(y.netlink_upcalls, x.netlink_upcalls)),
            "count",
            Count,
        ),
        v(
            "netlink.handle_upcalls_us",
            self_us(Layer::Upcalls),
            "us/pkt",
            Wall,
        ),
        // obs
        v(
            "obs.coverage_bumps_per_pkt",
            per_pkt(d(b.coverage_total, a.coverage_total)),
            "count",
            Count,
        ),
        // core::tunnel
        v(
            "tunnel.encaps_per_pkt",
            per_pkt(sum(&|x, y| {
                d(y.dpif.tunnel_encaps, x.dpif.tunnel_encaps)
                    + d(y.kmod.tunnel_encaps, x.kmod.tunnel_encaps)
            })),
            "count",
            Count,
        ),
        v(
            "tunnel.decaps_per_pkt",
            per_pkt(sum(&|x, y| {
                d(y.dpif.tunnel_decaps, x.dpif.tunnel_decaps)
                    + d(y.kmod.tunnel_decaps, x.kmod.tunnel_decaps)
            })),
            "count",
            Count,
        ),
        // the traced run itself
        v("trace.overhead_pct", overhead_pct, "%", Wall),
    ]
}

/// One output check and its verdict.
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
}

fn check(name: &'static str, ok: bool, detail: String) -> Check {
    Check { name, ok, detail }
}

pub fn checks(rig: &Rig, end: &Snap, start: &Snap, model: &Snap, window_ns: u64) -> Vec<Check> {
    let o = &rig.obs.counts;
    let mut out = vec![check(
        "one_echo_per_request",
        rig.obs.first_error.is_none() && o.bad_echoes == 0 && o.delivered == o.requests,
        format!(
            "{} requests, {} echoes, {} stray; {}",
            o.requests,
            o.delivered,
            o.bad_echoes,
            rig.obs.first_error.as_deref().unwrap_or("no error")
        ),
    )];

    // offered == delivered + Σ counted drops, over the whole run.
    let host_drops: u64 = end
        .hosts
        .iter()
        .map(|h| {
            let s = &h.dpif;
            s.dropped
                + s.meter_drops
                + s.ct_limit_drops
                + s.ct_full_drops
                + s.ct_invalid_drops
                + h.kernel_drops
        })
        .sum();
    let counted = host_drops + end.coverage_drops + o.rx_dropped;
    let unaccounted = o.requests as i64 - o.delivered as i64 - counted as i64;
    out.push(check(
        "ledger_exact",
        unaccounted == 0,
        format!(
            "offered {} = delivered {} + counted drops {} + unaccounted {unaccounted}",
            o.requests, o.delivered, counted
        ),
    ));

    for (i, h) in rig.hosts.iter().enumerate() {
        if let (Some(dp), Some(pmds)) = (&h.dp, &h.pmds) {
            // The per-PMD counter deltas must sum to the global counters
            // once the control plane's own changes (flow deletions by
            // sweeps and flow_mods, made outside any PMD poll) are taken
            // out of them.
            let traffic = dp.stats.delta(&rig.obs.control_plane[i]);
            out.push(check(
                "dpif_stats_coherent",
                dp.stats.coherent() && pmds.coherent_with(&traffic),
                format!(
                    "host {}: {} flow deletions made by the control plane",
                    i + 1,
                    rig.obs.control_plane[i].flows_deleted
                ),
            ));
        }
        out.push(check(
            "ct_accounting_ok",
            end.hosts[i].ct_accounting_ok,
            format!("host {}", i + 1),
        ));
    }

    // The modeled schedule is feasible: no core of either host was busy
    // for longer than the virtual time the modeled window spanned.
    for (i, util) in busiest_core_util(start, model, window_ns)
        .into_iter()
        .enumerate()
    {
        out.push(check(
            "model_schedule_feasible",
            util < 1.0,
            format!("host {} busiest core {:.1}% busy", i + 1, util * 100.0),
        ));
    }
    out
}

impl Clock {
    fn label(self) -> &'static str {
        match self {
            Clock::Wall => "wall",
            Clock::Modeled => "modeled",
            Clock::Count => "count",
        }
    }
}

/// `{"clocks": {"<metric>": "wall" | "modeled" | "count", ...}}`
pub fn clocks_json(values: &[Value]) -> String {
    let clocks: Vec<String> = values
        .iter()
        .map(|v| format!("\"{}\": \"{}\"", v.name, v.clock.label()))
        .collect();
    format!("{{\"clocks\": {{{}}}}}", clocks.join(", "))
}

pub fn report(w: &Workload, seed: u64, win: &Window, checks: &[Check], values: &[Value]) {
    eprintln!(
        "perfbench {} seed {seed}: {} bursts of {BURST} in {:.2} s wall ({} modeled), \
         {} requests, {} echoes",
        w.name,
        win.bursts[0] + win.bursts[1],
        win.wall_s,
        w.model_bursts,
        win.requests(),
        win.delivered()
    );
    for c in checks {
        eprintln!(
            "  check {:<26} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    for v in values {
        eprintln!(
            "  {:<36} {:>16.6} {:<9} {}",
            v.name,
            v.value,
            v.unit,
            v.clock.label()
        );
    }
}

pub fn json(correct: bool, attempted: u64, failed: u64, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            let value = if v.value.is_finite() { v.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                v.name, value, v.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}
