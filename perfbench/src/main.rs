//! `perfbench`: the dataplane benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! Builds two peered NSX hosts, warms them up, then measures one window:
//! a fixed number of bursts on the modeled clock (so modeled metrics
//! repeat exactly for a seed), continued on the wall clock until
//! `--seconds` have passed. The last line of standard output is the
//! JSON result; a readable report goes to standard error.

mod counters;
mod metrics;
mod rig;
mod trace;
mod workload;

use rig::Rig;
use std::time::Instant;

/// Host-pair builds before and again after the measured window;
/// `setup_s` is the fastest of them.
const SETUP_REPS: usize = 5;
/// Alternating traced / untraced chunk length in a traced run, bursts.
const TRACE_CHUNK: u64 = 32;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    trace_out: Option<std::path::PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        trace_out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => a.seed = val()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = val()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => a.trace = val()? == "1",
            "--trace-out" => a.trace_out = Some(val()?.into()),
            "--tiny" => a.tiny = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(a)
}

/// Build and peer a host pair, recording how long it took.
fn timed_build(kernel: bool, setup_s: &mut Vec<f64>) -> [ovs_nsx::topology::Host; 2] {
    let t = Instant::now();
    let hosts = rig::build_pair(kernel);
    setup_s.push(t.elapsed().as_secs_f64());
    hosts
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(mut w) = workload::by_name(&args.workload) else {
        eprintln!(
            "perfbench: unknown workload {:?} (one of {:?})",
            args.workload,
            workload::NAMES
        );
        std::process::exit(2);
    };
    if args.tiny {
        w.model_bursts = 48;
        w.warmup_ns = w.warmup_ns.min(600_000_000);
    }

    // --- Set-up, several times; the last pair is kept. ----------------
    let reps = if args.tiny { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut hosts = None;
    for _ in 0..reps {
        drop(hosts.take());
        hosts = Some(timed_build(w.kernel, &mut setup_s));
    }
    let mut rig = Rig::new(w.clone(), args.seed, hosts.expect("built"));

    // --- Warm-up: caches, conntrack and churned tables reach steady size.
    let warmup = w.warmup_bursts();
    for b in 0..warmup {
        rig.burst(b, false);
    }

    // --- The measured window. -----------------------------------------
    let mut win = metrics::Window::default();
    let model_end = warmup + w.model_bursts;
    let start = counters::Snap::take(&rig.hosts);
    let obs_start = rig.obs.counts;
    let vstart = rig.vnow_ns();
    rig.obs.sweep_wall_ns = Default::default();
    rig.obs.flow_mod_wall_ns = Default::default();
    rig.sample_latency = true;
    let t_window = Instant::now();
    let mut b = warmup;
    let mut model = None;
    loop {
        if b == model_end {
            rig.sample_latency = false;
            model = Some((
                counters::Snap::take(&rig.hosts),
                rig.obs.counts,
                rig.vnow_ns() - vstart,
            ));
            if args.tiny || t_window.elapsed().as_secs_f64() >= args.seconds {
                break;
            }
        } else if b > model_end && t_window.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        let traced = args.trace && ((b - warmup) / TRACE_CHUNK).is_multiple_of(2);
        let (delivered, wall_ns) = rig.burst(b, traced);
        win.record(traced, delivered, wall_ns);
        b += 1;
    }
    win.wall_s = t_window.elapsed().as_secs_f64();
    let (model_snap, obs_model, model_ns) = model.expect("window covers the modeled bursts");
    let end = counters::Snap::take(&rig.hosts);

    let checks = metrics::checks(&rig, &end, &start, &model_snap, model_ns);
    let m = metrics::Inputs {
        w: &w,
        rig: &rig,
        win: &win,
        start: &start,
        model: &model_snap,
        obs_start,
        obs_model,
        model_ns,
        seed: args.seed,
    };
    let mut values = if args.trace {
        metrics::per_layer(&m)
    } else {
        metrics::end_to_end(&m)
    };

    if args.trace {
        if let Some(path) = &args.trace_out {
            match rig.tracer.write(path) {
                Ok(()) => eprintln!(
                    "trace: {} spans of {} traced bursts written to {}",
                    rig.tracer.kept(),
                    rig.tracer.traced_bursts,
                    path.display()
                ),
                Err(e) => eprintln!("trace: cannot write {}: {e}", path.display()),
            }
        }
    }

    if !args.trace {
        // Set up again after the window, with the run's state gone, so
        // that the fastest build does not rest on one moment's speed.
        drop(rig);
        for _ in 0..reps {
            drop(timed_build(w.kernel, &mut setup_s));
        }
        values.push(metrics::setup(&setup_s));
    }

    metrics::report(&w, args.seed, &win, &checks, &values);
    let attempted = win.requests();
    let failed = attempted - win.delivered();
    let correct = checks.iter().all(|c| c.ok);
    if args.tiny {
        // The self-test reads each metric's clock from this line.
        println!("{}", metrics::clocks_json(&values));
    }
    println!("{}", metrics::json(correct, attempted, failed, &values));
    if !correct {
        std::process::exit(1);
    }
}
