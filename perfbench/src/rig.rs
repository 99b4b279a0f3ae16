//! Two peered NSX hosts driven one public call at a time.
//!
//! `Host::pump` runs PMD rounds (or upcall handling), then services
//! every guest, until the host is quiet. The rig replays exactly those
//! calls, alternating hosts and moving the wire between them, so that
//! each call can be timed from outside the program.

use crate::trace::{Layer, Tracer};
use crate::workload::{
    echo_id, is_echo_of, PolicyFeed, Request, Traffic, Workload, REVALIDATE_EVERY_NS,
};
use ovs_afxdp::OptLevel;
use ovs_core::dpif::DpifStats;
use ovs_kernel::guest::{GuestRole, VirtioBackend};
use ovs_kernel::kernel::{Kernel, RxOutcome};
use ovs_nsx::topology::{DatapathKind, Host, HostConfig, VmAttachment};
use ovs_sim::Context;
use std::time::Instant;

/// Host-loop iterations after which a burst that still moves frames is
/// declared stuck.
const SETTLE_LIMIT: usize = 10_000;

/// Build both hosts with the default Table 3 rule set and peer them.
pub fn build_pair(kernel: bool) -> [Host; 2] {
    let (dpk, att) = if kernel {
        (DatapathKind::Kernel, VmAttachment::Tap)
    } else {
        (
            DatapathKind::UserspaceAfxdp {
                opt: OptLevel::O5,
                interrupt_mode: false,
            },
            VmAttachment::VhostUser,
        )
    };
    // Host 1's VMs send and consume the echoes; host 2's reflect.
    let mut cfg1 = HostConfig::nsx_default(1, dpk, att);
    cfg1.guest_role = GuestRole::Sink;
    let cfg2 = HostConfig::nsx_default(2, dpk, att);
    let mut h1 = Host::build(&cfg1);
    let mut h2 = Host::build(&cfg2);
    h1.peer(cfg2.vtep_ip, h2.uplink_mac());
    h2.peer(cfg1.vtep_ip, h1.uplink_mac());
    [h1, h2]
}

/// Counts the rig keeps while it runs; copies taken at the edges of a
/// window give the window's deltas.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counts {
    pub requests: u64,
    pub delivered: u64,
    /// Echoes that matched no outstanding request, or came twice.
    pub bad_echoes: u64,
    pub rx_dropped: u64,
    pub rounds: u64,
    pub empty_rounds: u64,
    pub sweeps: u64,
    pub swept_flows: u64,
    pub deleted_idle: u64,
    pub deleted_changed: u64,
    pub flow_mods: u64,
}

/// Wall-clock and modeled observations the rig makes while it runs.
#[derive(Debug, Default)]
pub struct Observed {
    pub counts: Counts,
    /// Per host: wall ns of each revalidator sweep and each `flow_mod`.
    pub sweep_wall_ns: [Vec<u64>; 2],
    pub flow_mod_wall_ns: [Vec<u64>; 2],
    /// Per burst of the modeled window: the modeled work it put on the
    /// busiest core of either host (its service time in the queue model).
    pub service_ns: Vec<f64>,
    /// Per burst of the modeled window: the datapath's modeled rx→tx
    /// latency of each of its packets. Userspace: `DpifNetdev::latency`
    /// raw samples. Kernel, from the wire: the modeled cost of the
    /// `Kernel::receive` calls for the frames that arrived with a frame,
    /// up to and including its own (the kernel datapath runs a frame from
    /// the wire to its tap to completion inside that call); to the wire:
    /// the frame's share of its `Kernel::vhost_net_service` pass, counted
    /// the same way.
    pub model_lat_ns: Vec<Vec<u64>>,
    /// Per host: the `DpifStats` changes made inside revalidator sweeps
    /// and `flow_mod`s (flow deletions), which no PMD thread owns.
    pub control_plane: [DpifStats; 2],
    pub first_error: Option<String>,
}

pub struct Rig {
    pub w: Workload,
    pub hosts: [Host; 2],
    pub tracer: Tracer,
    pub obs: Observed,
    traffic: Traffic,
    feeds: Vec<PolicyFeed>,
    /// The current burst's requests and whether each has been echoed.
    outstanding: Vec<(Request, bool)>,
    burst_base: u64,
    vnow_ns: u64,
    next_reval_ns: u64,
    /// Keep modeled latency samples (inside the modeled window).
    pub sample_latency: bool,
}

/// Modeled busy ns of every core of `k`, guest time left out: the
/// kernel datapath's own work (softirq, system, and vhost-net).
fn datapath_ns(k: &Kernel) -> f64 {
    let cpus = &k.sim.cpus;
    (0..cpus.len())
        .map(|c| cpus.core(c).total_ns() - cpus.core(c).ns(Context::Guest))
        .sum()
}

impl Rig {
    pub fn new(w: Workload, seed: u64, mut hosts: [Host; 2]) -> Self {
        let vifs = hosts[0].guest_of_vif.len();
        for h in &mut hosts {
            if let Some(dp) = h.dp.as_mut() {
                dp.latency.enable_raw();
                if let Some(ns) = w.ct_timeout_ns {
                    dp.ct.timeouts.udp_new_ns = ns;
                    dp.ct.timeouts.udp_established_ns = ns;
                }
                if let Some(ms) = w.megaflow_idle_ms {
                    dp.revalidator.cfg.max_idle_ms = ms;
                }
            }
            if let Some(nl) = h.netlink.as_mut() {
                if let Some(ns) = w.ct_timeout_ns {
                    h.kernel.conntrack.timeouts.udp_new_ns = ns;
                    h.kernel.conntrack.timeouts.udp_established_ns = ns;
                }
                if let Some(ms) = w.megaflow_idle_ms {
                    nl.revalidator.cfg.max_idle_ms = ms;
                }
            }
        }
        let feeds = if w.bursts_per_flow_mod > 0 {
            vec![
                PolicyFeed::new(seed, 1, vifs),
                PolicyFeed::new(seed, 2, vifs),
            ]
        } else {
            Vec::new()
        };
        Rig {
            traffic: Traffic::new(&w, seed, vifs),
            w,
            hosts,
            tracer: Tracer::new(),
            obs: Observed::default(),
            feeds,
            outstanding: Vec::new(),
            burst_base: 0,
            vnow_ns: 0,
            next_reval_ns: REVALIDATE_EVERY_NS,
            sample_latency: false,
        }
    }

    fn error(&mut self, msg: String) {
        if self.obs.first_error.is_none() {
            self.obs.first_error = Some(msg);
        }
    }

    /// Virtual time elapsed on both hosts' clocks.
    pub fn vnow_ns(&self) -> u64 {
        self.vnow_ns
    }

    /// One burst: advance the modeled schedule (firing any revalidator
    /// sweep or controller update that came due), send the burst's
    /// requests, and run both hosts until every frame has settled.
    /// Returns (echoes delivered, wall ns of the round trip).
    pub fn burst(&mut self, b: u64, traced: bool) -> (u64, u64) {
        let reqs = self.traffic.burst(b);
        let frames: Vec<Vec<u8>> = reqs
            .iter()
            .map(|r| self.traffic.frame(r, self.w.frame_len))
            .collect();
        self.burst_base = reqs.first().map(|r| r.id).unwrap_or(0);
        self.outstanding = reqs.iter().map(|r| (*r, false)).collect();
        let delivered_before = self.obs.counts.delivered;

        let t = Instant::now();
        let gap = self.w.burst_ns();
        self.tracer.begin_burst(b, traced);
        for h in &mut self.hosts {
            h.kernel.sim.clock.advance(gap);
        }
        self.vnow_ns += gap;
        while self.vnow_ns >= self.next_reval_ns {
            self.revalidate();
            self.next_reval_ns += REVALIDATE_EVERY_NS;
        }
        let every = self.w.bursts_per_flow_mod;
        if every > 0 {
            for hi in 0..2 {
                if b % every == hi as u64 * every / 2 {
                    self.flow_mod(hi);
                }
            }
        }
        // Sweeps and controller updates run on threads of their own in
        // OVS, so only the datapath's work counts as the burst's service.
        let busy_before = self.core_busy();
        for (r, f) in reqs.iter().zip(frames) {
            let g = self.hosts[0].guest_of_vif[r.flow.src_vif];
            self.hosts[0].kernel.guests[g].tx_ring.push_back(f);
        }
        self.obs.counts.requests += reqs.len() as u64;
        if self.sample_latency {
            self.obs.model_lat_ns.push(Vec::new());
        }
        self.settle();
        let wall_ns = t.elapsed().as_nanos() as u64;
        self.tracer.end_burst();
        if self.sample_latency {
            let service = busy_before
                .iter()
                .zip(self.core_busy())
                .map(|(a, b)| b - a)
                .fold(0.0, f64::max);
            self.obs.service_ns.push(service);
        }
        let missing = self.outstanding.iter().filter(|(_, seen)| !seen).count();
        if missing > 0 {
            self.error(format!("burst {b}: {missing} requests got no echo"));
        }
        self.drain_latency();
        (self.obs.counts.delivered - delivered_before, wall_ns)
    }

    /// Busy ns of every core of both hosts.
    fn core_busy(&self) -> Vec<f64> {
        self.hosts
            .iter()
            .flat_map(|h| {
                let cpus = &h.kernel.sim.cpus;
                (0..cpus.len()).map(move |c| cpus.core(c).total_ns())
            })
            .collect()
    }

    /// Collect this burst's rx→tx samples from the userspace datapath.
    fn drain_latency(&mut self) {
        for h in &mut self.hosts {
            if let Some(dp) = h.dp.as_mut() {
                let raw = dp.latency.drain_raw();
                if let (true, Some(lat)) = (self.sample_latency, self.obs.model_lat_ns.last_mut()) {
                    lat.extend(raw);
                }
            }
        }
    }

    fn revalidate(&mut self) {
        let Rig {
            hosts, tracer, obs, ..
        } = self;
        for (i, h) in hosts.iter_mut().enumerate() {
            let before = h.dp.as_ref().map(|dp| dp.stats);
            let t = Instant::now();
            let s = tracer.call(Layer::Revalidate, || match h.netlink.as_mut() {
                Some(nl) => Some(nl.revalidate(&mut h.kernel, h.switch_core)),
                None => h.revalidate(),
            });
            obs.sweep_wall_ns[i].push(t.elapsed().as_nanos() as u64);
            if let (Some(dp), Some(before)) = (&h.dp, before) {
                obs.control_plane[i].accumulate(&dp.stats.delta(&before));
            }
            if let Some(s) = s {
                let c = &mut obs.counts;
                c.sweeps += 1;
                c.swept_flows += s.dumped;
                c.deleted_idle += s.deleted_idle;
                c.deleted_changed += s.deleted_changed;
            }
        }
    }

    /// The controller's next DFW update to host `hi`.
    fn flow_mod(&mut self, hi: usize) {
        let Rig {
            hosts,
            tracer,
            obs,
            feeds,
            ..
        } = self;
        let rule = feeds[hi].next_rule();
        let Some(dp) = hosts[hi].dp.as_mut() else {
            return;
        };
        let before = dp.stats;
        let t = Instant::now();
        tracer.call(Layer::FlowMod, || dp.flow_mod(rule));
        obs.flow_mod_wall_ns[hi].push(t.elapsed().as_nanos() as u64);
        obs.control_plane[hi].accumulate(&dp.stats.delta(&before));
        obs.counts.flow_mods += 1;
    }

    /// Alternate host rounds and wire moves until nothing moves.
    fn settle(&mut self) {
        for _ in 0..SETTLE_LIMIT {
            let moved = self.host_round(0) + self.host_round(1) + self.shuttle();
            if moved == 0 {
                return;
            }
        }
        self.error(format!(
            "frames still moving after {SETTLE_LIMIT} host rounds"
        ));
    }

    /// One iteration of `Host::pump`'s loop on host `hi`.
    fn host_round(&mut self, hi: usize) -> usize {
        let mut moved = 0;
        {
            let Rig {
                hosts, tracer, obs, ..
            } = self;
            let h = &mut hosts[hi];
            if let (Some(dp), Some(pmds)) = (h.dp.as_mut(), h.pmds.as_mut()) {
                let n = tracer.call(Layer::Pmd, || pmds.run_round(dp, &mut h.kernel));
                obs.counts.rounds += 1;
                obs.counts.empty_rounds += (n == 0) as u64;
                moved += n;
            }
            if let Some(nl) = h.netlink.as_mut() {
                let core = h.switch_core;
                moved += tracer.call(Layer::Upcalls, || nl.handle_upcalls(&mut h.kernel, core));
            }
        }
        for g in 0..self.hosts[hi].kernel.guests.len() {
            if hi == 0 {
                self.check_echoes(g);
            }
            let sample = self.sample_latency;
            let Rig {
                hosts, tracer, obs, ..
            } = self;
            let k = &mut hosts[hi].kernel;
            match k.guests[g].backend {
                VirtioBackend::VhostNet { tap_ifindex } => {
                    let rx = k.device(tap_ifindex).fd_queue.len();
                    let app = k.guests[g].rx_ring.len() + rx;
                    let before = if sample { datapath_ns(k) } else { 0.0 };
                    let n = tracer.call(Layer::VhostNet, || k.vhost_net_service(g));
                    moved += n;
                    // The vhost-net pass moves the tap's frames into the
                    // guest, then the guest's output through the tap into
                    // the OVS module and out of the uplink: each output
                    // frame waits for every frame served before it.
                    let tx = n.saturating_sub(rx + app);
                    if let (true, Some(lat), true) = (sample, obs.model_lat_ns.last_mut(), tx > 0) {
                        let per_frame = (datapath_ns(k) - before) / (rx + tx) as f64;
                        lat.extend((1..=tx).map(|j| ((rx + j) as f64 * per_frame).round() as u64));
                    }
                }
                VirtioBackend::VhostUser => {
                    moved += tracer.call(Layer::Guest, || k.run_guest(g));
                    moved += k.guests[g].tx_ring.len();
                }
            }
        }
        moved
    }

    /// Match the echoes waiting for sending VM `g` (in its virtio rx
    /// ring, or on its tap before vhost-net moves them) against the
    /// burst's outstanding requests.
    fn check_echoes(&mut self, g: usize) {
        let k = &self.hosts[0].kernel;
        let queue = match k.guests[g].backend {
            VirtioBackend::VhostNet { tap_ifindex } => &k.device(tap_ifindex).fd_queue,
            VirtioBackend::VhostUser => &k.guests[g].rx_ring,
        };
        if queue.is_empty() {
            return;
        }
        let mut bad = Vec::new();
        let mut good = 0;
        for frame in queue {
            let slot = echo_id(frame)
                .and_then(|id| id.checked_sub(self.burst_base))
                .filter(|&i| (i as usize) < self.outstanding.len());
            let ok = match slot {
                Some(i) => {
                    let (req, seen) = &mut self.outstanding[i as usize];
                    let right_vm = self.hosts[0].guest_of_vif[req.flow.src_vif] == g;
                    if !*seen && right_vm && is_echo_of(frame, req, self.w.frame_len) {
                        *seen = true;
                        true
                    } else {
                        false
                    }
                }
                None => false,
            };
            if ok {
                good += 1;
            } else {
                bad.push(echo_id(frame));
            }
        }
        self.obs.counts.delivered += good;
        self.obs.counts.bad_echoes += bad.len() as u64;
        if let Some(id) = bad.first() {
            self.error(format!(
                "VM {g} received a frame that is not a fresh echo (id {id:?})"
            ));
        }
    }

    /// Move every frame each host put on its uplink to the other host.
    fn shuttle(&mut self) -> usize {
        let mut moved = 0;
        for from in 0..2 {
            let frames = self.hosts[from].wire_take();
            moved += frames.len();
            let to = 1 - from;
            let Rig {
                hosts, tracer, obs, ..
            } = self;
            let h = &mut hosts[to];
            let sample = self.sample_latency && h.netlink.is_some();
            // Frames that arrive together are served one after another, so
            // each also waits for the frames ahead of it.
            let mut queued_ns = 0.0;
            for f in frames {
                let before = if sample { datapath_ns(&h.kernel) } else { 0.0 };
                let out = tracer.call(Layer::Rx, || h.kernel.receive(h.uplink_if, 0, f));
                if let (true, Some(lat)) = (sample, obs.model_lat_ns.last_mut()) {
                    queued_ns += datapath_ns(&h.kernel) - before;
                    lat.push(queued_ns.round() as u64);
                }
                if matches!(out, RxOutcome::Dropped | RxOutcome::XdpDrop) {
                    obs.counts.rx_dropped += 1;
                }
            }
        }
        moved
    }
}
