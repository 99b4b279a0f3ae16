//! Spans recorded by the benchmark around every public call it makes
//! into the program, and the per-layer self time derived from them.
//!
//! A span has a name (its layer), a start, an end and a parent; all
//! spans of one burst carry the burst's sequence number as their id.
//! Spans live in memory while the run lasts and are written out when it
//! ends (up to [`KEEP_SPANS`]; self time is derived from every span).

use std::io::Write;
use std::time::Instant;

/// The layers a span can belong to: the burst itself (the generator's
/// own work) and one per public call the generator makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// One burst round trip, parent of every call made for it.
    Burst,
    /// `PmdSet::run_round` (core::pmd).
    Pmd,
    /// `Kernel::receive` of a frame off the wire (kernel).
    Rx,
    /// `Kernel::run_guest` (vhostuser VMs).
    Guest,
    /// `Kernel::vhost_net_service` (tap + vhost-net VMs).
    VhostNet,
    /// `DpifNetlink::handle_upcalls`.
    Upcalls,
    /// `Host::revalidate` / `DpifNetlink::revalidate`.
    Revalidate,
    /// `DpifNetdev::flow_mod`.
    FlowMod,
}

/// Number of [`Layer`]s.
const LAYERS: usize = 8;

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Burst => "burst",
            Layer::Pmd => "PmdSet::run_round",
            Layer::Rx => "Kernel::receive",
            Layer::Guest => "Kernel::run_guest",
            Layer::VhostNet => "Kernel::vhost_net_service",
            Layer::Upcalls => "DpifNetlink::handle_upcalls",
            Layer::Revalidate => "revalidate",
            Layer::FlowMod => "DpifNetdev::flow_mod",
        }
    }
}

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// The burst's sequence number.
    pub id: u32,
    pub layer: Layer,
    /// Index of the parent span within the same burst.
    pub parent: u32,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans kept for the written trace; beyond this, spans still feed the
/// self-time totals but are not retained.
pub const KEEP_SPANS: usize = 200_000;

pub struct Tracer {
    t0: Instant,
    on: bool,
    burst: Vec<Span>,
    kept: Vec<Span>,
    /// Self time per layer, over every traced burst.
    self_ns: [u64; LAYERS],
    pub traced_bursts: u64,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            on: false,
            burst: Vec::new(),
            kept: Vec::new(),
            self_ns: [0; LAYERS],
            traced_bursts: 0,
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open burst `id`'s root span when `on`; otherwise record nothing
    /// until the next burst.
    pub fn begin_burst(&mut self, id: u64, on: bool) {
        self.on = on;
        if on {
            let now = self.now();
            self.burst.push(Span {
                id: id as u32,
                layer: Layer::Burst,
                parent: NO_PARENT,
                start_ns: now,
                end_ns: now,
            });
        }
    }

    /// Run `f` inside a span of `layer`, parented to the current burst.
    #[inline]
    pub fn call<R>(&mut self, layer: Layer, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start_ns = self.now();
        let r = f();
        let end_ns = self.now();
        self.burst.push(Span {
            id: self.burst[0].id,
            layer,
            parent: 0,
            start_ns,
            end_ns,
        });
        r
    }

    /// Close the burst: derive each span's self time (its duration minus
    /// the part its children cover) and fold it into the layer totals.
    pub fn end_burst(&mut self) {
        if !self.on {
            return;
        }
        self.on = false;
        self.burst[0].end_ns = self.now();
        let mut child_ns = vec![0u64; self.burst.len()];
        for s in &self.burst {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        for (s, child) in self.burst.iter().zip(child_ns) {
            let i = s.layer as usize;
            self.self_ns[i] += (s.end_ns - s.start_ns).saturating_sub(child);
        }
        self.traced_bursts += 1;
        let room = KEEP_SPANS.saturating_sub(self.kept.len());
        self.kept.extend(self.burst.drain(..).take(room));
    }

    pub fn self_ns(&self, layer: Layer) -> u64 {
        self.self_ns[layer as usize]
    }

    pub fn kept(&self) -> usize {
        self.kept.len()
    }

    /// Write the kept spans as tab-separated `id name parent start end`
    /// lines (`parent` is `-` for a burst's root span).
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tparent\tstart_ns\tend_ns")?;
        for s in &self.kept {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.id,
                s.layer.name(),
                parent,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}
