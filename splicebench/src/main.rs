//! `splicebench`: the repository's end-to-end benchmark (`BENCHMARK.json`).
//!
//! ```text
//! cargo run --release --manifest-path splicebench/Cargo.toml -- \
//!     --workload paper_grid --seed 1 --seconds 30 --trace 0
//! ```
//!
//! Every simulation configuration is generated from `--seed`. With
//! `--trace 0` the run prints the end-to-end metrics; with `--trace 1` it
//! records spans around the calls into each layer and prints the per-layer
//! metrics instead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `splicebench/METRICS.md`
//! defines every metric and which layer moves which end-to-end metric.

mod host;
mod outputs;
mod probes;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use splicecast_core::swarm::sched_wall_ns;
use splicecast_core::{
    sweep_with_workers, AveragedMetrics, PreparedExperiment, RunResult, Summary, SweepPoint,
};

use outputs::{percentile, Outputs};
use trace::Tracer;
use workloads::{Kind, Workload};

const USAGE: &str = "usage: splicebench --workload <paper_grid|big_swarm|flash_churn> \
                     --seed <u64> --seconds <1-600> --trace <0|1>";

/// Set-up repetitions in one batch. The untraced run times a batch before
/// the first simulation and another after every measured job; `setup_s` is
/// the fastest repetition of all (`METRICS.md` says why).
const SETUP_REPS: usize = 100;
/// Runs of the reference loop in the traced run.
const REF_REPS: usize = 5;
/// Messages per codec-probe repetition, and repetitions.
const CODEC_MSGS: usize = 50_000;
const CODEC_REPS: usize = 5;

#[derive(Debug)]
struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = raw.next() {
        let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let fresh = match flag.as_str() {
            "--workload" => kind
                .replace(Kind::parse(&value).ok_or(format!("unknown workload `{value}`"))?)
                .is_none(),
            "--seed" => seed
                .replace(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?)
                .is_none(),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1.0..=600.0).contains(&s) {
                    return Err(format!("--seconds must be within 1..=600, got {s}"));
                }
                seconds.replace(s).is_none()
            }
            "--trace" => trace
                .replace(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                })
                .is_none(),
            _ => return Err(format!("unknown option `{flag}`")),
        };
        if !fresh {
            return Err(format!("{flag} given twice"));
        }
    }
    Ok(Args {
        kind: kind.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// Prepares every point's media the way `sweep_with_workers` does: points
/// that stream the same video with the same splicing share one build.
fn prepare_all(points: &[SweepPoint]) -> Vec<PreparedExperiment> {
    let mut done: Vec<PreparedExperiment> = Vec::with_capacity(points.len());
    for point in points {
        let p = done
            .iter()
            .find_map(|q| q.try_share(&point.config))
            .unwrap_or_else(|| PreparedExperiment::new(&point.config));
        done.push(p);
    }
    done
}

/// Generates the workload and prepares its media; returns them with the
/// seconds taken.
fn set_up(kind: Kind, seed: u64) -> ((Workload, Vec<PreparedExperiment>), f64) {
    timed(|| {
        let w = Workload::generate(kind, seed);
        let prepared = prepare_all(&w.points);
        (w, prepared)
    })
}

/// Host timings taken between measured jobs, outside their time.
#[derive(Default)]
struct Between {
    setup_secs: Vec<f64>,
    ref_secs: Vec<f64>,
}

impl Between {
    /// Times one batch of set-ups and one run of the reference loop on
    /// the workload's threads.
    fn sample(&mut self, args: &Args, threads: usize) {
        for _ in 0..SETUP_REPS {
            self.setup_secs.push(set_up(args.kind, args.seed).1);
        }
        self.ref_secs.push(host::reference(threads));
    }
}

/// Simulation `j` of a pass (point-major order): its prepared experiment
/// and seed.
fn sim<'a>(
    w: &Workload,
    prepared: &'a [PreparedExperiment],
    j: usize,
) -> (&'a PreparedExperiment, u64) {
    let per_point = w.sim_seeds.len();
    (&prepared[j / per_point], w.sim_seeds[j % per_point])
}

/// The outputs of simulation `j` alone.
fn sim_outputs(w: &Workload, j: usize, run: &RunResult) -> Outputs {
    let point = &w.points[j / w.sim_seeds.len()];
    let mut out = Outputs::default();
    out.absorb(&point.label, &point.config, run);
    out
}

/// Runs `run(j)` inside a `swarm.run` span and reads the scheduler probe
/// around it; returns the run, its seconds and its scheduler seconds.
fn traced_run(t: &mut Tracer, j: usize, run: impl FnOnce() -> RunResult) -> (RunResult, f64, f64) {
    let before = sched_wall_ns();
    let (out, id) = t.span("swarm.run", Some(j), |_| run());
    let sched = (sched_wall_ns() - before) as f64 / 1e9;
    (out, t.get(id).secs(), sched)
}

fn outputs_of(w: &Workload, runs: &[RunResult]) -> Outputs {
    let mut out = Outputs::default();
    let per_point = w.sim_seeds.len();
    for (i, run) in runs.iter().enumerate() {
        let point = &w.points[i / per_point];
        out.absorb(&point.label, &point.config, run);
    }
    out
}

/// What `sweep_with_workers` must return, computed from the serial runs.
fn expected_sweep(w: &Workload, runs: &[RunResult]) -> Vec<(String, AveragedMetrics)> {
    w.points
        .iter()
        .zip(runs.chunks(w.sim_seeds.len()))
        .map(|(p, chunk)| (p.label.clone(), AveragedMetrics::from_runs(chunk)))
        .collect()
}

/// Runs `job(0)`, `job(1)`, … back to back: at least `min_jobs`, then more
/// until starting another would overrun `seconds`. Returns what each job
/// reported.
fn measure(seconds: f64, min_jobs: usize, mut job: impl FnMut(usize) -> f64) -> Vec<f64> {
    let start = Instant::now();
    let mut walls = Vec::new();
    loop {
        walls.push(job(walls.len()));
        let elapsed = start.elapsed().as_secs_f64();
        if walls.len() >= min_jobs && elapsed + elapsed / walls.len() as f64 > seconds {
            return walls;
        }
    }
}

/// Host seconds of a pass: the sum over its jobs of each job's median
/// seconds.
fn pass_secs(per_job: &[Vec<f64>]) -> f64 {
    per_job.iter().map(|w| Summary::of(w).median).sum()
}

/// Groups job walls by job, where wall `i` belongs to job `i % jobs`.
fn by_job(walls: &[f64], jobs: usize) -> Vec<Vec<f64>> {
    (0..jobs)
        .map(|j| walls.iter().skip(j).step_by(jobs).copied().collect())
        .collect()
}

/// The smallest of `secs`.
fn fastest(secs: &[f64]) -> f64 {
    secs.iter().copied().fold(f64::INFINITY, f64::min)
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Peak resident set of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .expect("the peak resident set is read from VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A finished run: metrics in print order, checks, and counts.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
    problems: Vec<String>,
    digest: u64,
    attempted: u64,
    failed: u64,
}

/// The end-to-end metrics (viewer QoE from the reference pass).
fn qoe_metrics(
    out: &Outputs,
    tail: f64,
    metrics: &mut Vec<(&'static str, f64, &'static str)>,
) -> String {
    let mut startups = out.startups.clone();
    startups.sort_by(f64::total_cmp);
    let tail_value = percentile(&startups, tail);
    let beyond = startups.iter().filter(|&&s| s > tail_value).count();
    let viewers = out.viewers as f64;
    let deliveries = (out.from_seeder + out.from_peers + out.from_cdn) as f64;
    let net = &out.counters.net;
    metrics.extend([
        ("stalls_per_viewer", out.stalls as f64 / viewers, "count"),
        ("stall_s_per_viewer", out.stall_secs / viewers, "s"),
        ("startup_p50_s", percentile(&startups, 50.0), "s"),
        ("startup_tail_s", tail_value, "s"),
        (
            "finished_frac",
            1.0 - out.unfinished as f64 / viewers,
            "ratio",
        ),
        ("peer_offload", out.from_peers as f64 / deliveries, "ratio"),
        (
            "wire_expansion",
            net.wire_bytes_sent as f64 / net.payload_bytes_delivered as f64,
            "ratio",
        ),
    ]);
    format!(
        "startup_tail_s is p{tail} of {} startups ({beyond} beyond it); \
         unfinished_frac {} ({} of {} viewers); server_share {}",
        startups.len(),
        out.unfinished as f64 / viewers,
        out.unfinished,
        out.viewers,
        (out.from_seeder + out.from_cdn) as f64 / deliveries
    )
}

fn run_untraced(args: &Args) -> Report {
    let ((w, prepared), first) = set_up(args.kind, args.seed);
    let mut between = Between::default();
    between.setup_secs.push(first);
    between.sample(args, w.workers);
    let mut problems = Vec::new();
    let sims = w.sims();
    let mut runs: Vec<RunResult> = Vec::with_capacity(sims);
    let (mut attempted, mut failed) = (0, 0);

    // A job is one 2-worker sweep on paper_grid and one simulation on the
    // other workloads. A set-up batch and a pass of the reference loop
    // follow every job, outside its time.
    let per_job = if w.workers > 1 {
        // The serial pass is the reference the fanned-out sweep must match.
        runs.extend((0..sims).map(|j| {
            let (p, seed) = sim(&w, &prepared, j);
            p.run(seed)
        }));
        let expected = expected_sweep(&w, &runs);
        let out = outputs_of(&w, &runs);
        let walls = measure(args.seconds, 1, |_| {
            let (got, secs) = timed(|| sweep_with_workers(&w.points, &w.sim_seeds, w.workers));
            if got != expected {
                problems.push("sweep_with_workers disagrees with the serial pass".into());
            }
            between.sample(args, w.workers);
            secs
        });
        attempted = out.viewers * (walls.len() as u64 + 1);
        failed = out.unfinished * (walls.len() as u64 + 1);
        vec![walls]
    } else {
        // The first pass over the simulations is the reference; every
        // repeat of a simulation must reproduce its outputs.
        let mut reference: Vec<Outputs> = Vec::with_capacity(sims);
        let walls = measure(args.seconds, sims, |i| {
            let j = i % sims;
            let (p, seed) = sim(&w, &prepared, j);
            let (run, secs) = timed(|| p.run(seed));
            let out = sim_outputs(&w, j, &run);
            attempted += out.viewers;
            failed += out.unfinished;
            if i < sims {
                reference.push(out);
                runs.push(run);
            } else if out.digest() != reference[j].digest() {
                problems.push(format!("simulation {j} differs between repeats"));
            }
            between.sample(args, w.workers);
            secs
        });
        by_job(&walls, sims)
    };
    let out = outputs_of(&w, &runs);
    problems.extend(out.problems.iter().cloned());

    let rate = out.viewer_secs / pass_secs(&per_job);
    let ref_loop = Summary::of(&between.ref_secs).median;
    let mut metrics = vec![
        ("setup_s", fastest(&between.setup_secs), "s"),
        (
            "viewer_s_per_ref_s",
            rate * ref_loop / host::REF_LOOP_SECS,
            "1/ref_s",
        ),
        ("peak_rss_mb", peak_rss_mb(), "MiB"),
    ];
    let qoe_note = qoe_metrics(&out, w.tail_percentile, &mut metrics);
    Report {
        metrics,
        notes: vec![
            qoe_note,
            format!(
                "viewer_s_per_s {rate} 1/s in host seconds; the reference loop's \
                 median of {} runs took {ref_loop} s",
                between.ref_secs.len()
            ),
            format!(
                "{} timed runs of {} distinct job(s) over {} simulations ({} worker(s)); \
                 {} set-up repetitions in {} batches",
                per_job.iter().map(Vec::len).sum::<usize>(),
                per_job.len(),
                w.sims(),
                w.workers,
                between.setup_secs.len(),
                between.setup_secs.len() / SETUP_REPS
            ),
        ],
        problems,
        digest: out.digest(),
        attempted,
        failed,
    }
}

fn run_traced(args: &Args) -> Report {
    let mut t = Tracer::new();
    let mut problems = Vec::new();

    // Set-up, with the media layer's calls split out of `PreparedExperiment::new`.
    let (mut encode, mut splice, mut prepare) = (Vec::new(), Vec::new(), Vec::new());
    let mut setup = None;
    for _ in 0..SETUP_REPS {
        let (s, _) = t.span("setup", None, |t| {
            let w = Workload::generate(args.kind, args.seed);
            let (mut enc, mut spl) = (0.0, 0.0);
            let mut seen: Vec<&SweepPoint> = Vec::new();
            for p in &w.points {
                let same_media = |q: &&SweepPoint| {
                    q.config.video == p.config.video && q.config.splicing == p.config.splicing
                };
                if seen.iter().any(same_media) {
                    continue;
                }
                seen.push(p);
                let (video, e) = t.span("media.encode", None, |_| p.config.video.build());
                let splicer = p.config.splicing.build();
                let (segments, s) = t.span("media.splice", None, |_| splicer.splice(&video));
                std::hint::black_box(segments);
                enc += t.get(e).secs();
                spl += t.get(s).secs();
            }
            let (prepared, c) = t.span("core.prepare", None, |_| prepare_all(&w.points));
            encode.push(enc);
            splice.push(spl);
            prepare.push(t.get(c).secs());
            (w, prepared)
        });
        setup = Some(s);
    }
    let (w, prepared) = setup.expect("set-up ran");
    let ref_secs: Vec<f64> = (0..REF_REPS).map(|_| host::reference(1)).collect();
    let ref_loop = Summary::of(&ref_secs).median;

    // The traced reference pass: every simulation once, serially.
    let start = Instant::now();
    let sims = w.sims();
    let (mut runs, mut run_secs, mut sched) = (Vec::new(), Vec::new(), Vec::new());
    t.span("pass", None, |t| {
        for j in 0..sims {
            let (p, seed) = sim(&w, &prepared, j);
            let (run, secs, sched_secs) = traced_run(t, j, || p.run(seed));
            runs.push(run);
            run_secs.push(secs);
            sched.push(sched_secs);
        }
    });
    let digests: Vec<u64> = (0..sims)
        .map(|j| sim_outputs(&w, j, &runs[j]).digest())
        .collect();

    // Tracing overhead: untraced and traced repeats of single simulations,
    // alternately, until `--seconds` is spent (at least one untraced).
    let mut traced: Vec<Vec<f64>> = run_secs.iter().map(|&s| vec![s]).collect();
    let mut untraced = vec![Vec::new(); sims];
    let left = args.seconds - start.elapsed().as_secs_f64();
    let repeats = measure(left, 1, |i| {
        let j = (i / 2) % sims;
        let (p, seed) = sim(&w, &prepared, j);
        let (run, secs) = if i % 2 == 0 {
            let (run, secs) = timed(|| p.run(seed));
            untraced[j].push(secs);
            (run, secs)
        } else {
            let (run, secs, _) = traced_run(&mut t, j, || p.run(seed));
            traced[j].push(secs);
            (run, secs)
        };
        if sim_outputs(&w, j, &run).digest() != digests[j] {
            problems.push(format!(
                "traced and untraced runs of simulation {j} disagree"
            ));
        }
        secs
    })
    .len();
    let out = outputs_of(&w, &runs);
    problems.extend(out.problems.iter().cloned());
    let repeated: Vec<usize> = (0..sims).filter(|&j| !untraced[j].is_empty()).collect();
    let pick =
        |v: &[Vec<f64>]| -> Vec<Vec<f64>> { repeated.iter().map(|&j| v[j].clone()).collect() };
    let overhead = pass_secs(&pick(&traced)) / pass_secs(&pick(&untraced)) - 1.0;
    let sims = sims as f64;
    let mut notes = Vec::new();

    // The 2-worker sweep must reproduce the serial pass exactly.
    let sweep_efficiency = if w.workers > 1 {
        let (got, id) = t.span("core.sweep", None, |_| {
            sweep_with_workers(&w.points, &w.sim_seeds, w.workers)
        });
        if got != expected_sweep(&w, &runs) {
            problems.push("sweep_with_workers disagrees with the serial pass".into());
        }
        run_secs.iter().sum::<f64>() / (w.workers as f64 * t.get(id).secs())
    } else {
        notes.push(
            "core.sweep_efficiency is 1 by definition: this workload runs on one thread".into(),
        );
        1.0
    };

    // netsim probe: one per point, shaped by that point's flows.
    let mut probe_flows = 0u64;
    let mut probe_secs = 0.0;
    for (i, (p, chunk)) in w
        .points
        .iter()
        .zip(runs.chunks(w.sim_seeds.len()))
        .enumerate()
    {
        let n = chunk.len() as u64;
        let flows: u64 = chunk
            .iter()
            .map(|r| r.metrics.net.flows_started)
            .sum::<u64>()
            / n;
        let done: u64 = chunk.iter().map(|r| r.metrics.net.flows_completed).sum();
        let bytes: u64 = chunk
            .iter()
            .map(|r| r.metrics.net.payload_bytes_delivered)
            .sum();
        let (probe, _) = t.span("probe.netsim", Some(i), |_| {
            probes::netsim(&p.config, flows, bytes / done.max(1), w.sim_seeds[0])
        });
        probe_flows += probe.flows;
        probe_secs += probe.secs;
    }

    // protocol probe over the workload's own message mix.
    let segments = (runs.iter().map(|r| r.segment_count).sum::<usize>() / runs.len()) as u32;
    let mix = probes::message_mix(&out.counters, segments);
    let ((codec_secs, codec_ok), _) = t.span("probe.codec", None, |_| {
        probes::codec(&mix, CODEC_MSGS, CODEC_REPS)
    });
    if !codec_ok {
        problems.push("codec probe: a message did not decode to itself".into());
    }

    let c = &out.counters;
    let per_sim = |v: u64| v as f64 / sims;
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mut sorted_runs = run_secs.clone();
    sorted_runs.sort_by(f64::total_cmp);
    let run_mean = Summary::of(&run_secs).mean;
    let sched_mean = Summary::of(&sched).mean;
    let events = per_sim(c.net.messages_sent + c.net.flows_started);
    let deliveries = out.from_seeder + out.from_peers + out.from_cdn;
    let traced_rate = out.viewer_secs / pass_secs(&traced);
    let metrics = vec![
        ("core.prepare_s", fastest(&prepare), "s"),
        ("core.sweep_efficiency", sweep_efficiency, "ratio"),
        ("media.encode_s", fastest(&encode), "s"),
        ("media.splice_s", fastest(&splice), "s"),
        ("media.overhead_frac", c.overhead_ratio / sims, "ratio"),
        ("swarm.run_s_p50", percentile(&sorted_runs, 50.0), "s"),
        ("swarm.run_s_p90", percentile(&sorted_runs, 90.0), "s"),
        ("swarm.scheduler_s", sched_mean, "s"),
        ("swarm.nonsched_s", run_mean - sched_mean, "s"),
        ("swarm.sched.passes", per_sim(c.sched.passes), "count"),
        (
            "swarm.sched.skip_frac",
            ratio(c.sched.skips, c.sched.passes + c.sched.skips),
            "ratio",
        ),
        (
            "swarm.sched.no_source_frac",
            ratio(c.sched.no_source, c.sched.passes),
            "ratio",
        ),
        (
            "swarm.sched.holder_adds",
            per_sim(c.sched.holder_adds),
            "count",
        ),
        (
            "swarm.sched.holder_removes",
            per_sim(c.sched.holder_removes),
            "count",
        ),
        (
            "swarm.control.haves_sent",
            per_sim(c.control.haves_sent),
            "count",
        ),
        (
            "swarm.control.bundles_sent",
            per_sim(c.control.have_bundles_sent),
            "count",
        ),
        (
            "swarm.control.suppressed_frac",
            ratio(
                c.control.haves_suppressed,
                c.control.haves_suppressed + c.control.haves_sent + c.control.haves_coalesced,
            ),
            "ratio",
        ),
        (
            "swarm.control.heartbeat_frac",
            ratio(c.control.pumps_heartbeat, c.control.pumps()),
            "ratio",
        ),
        (
            "swarm.dissem.window_suppressed",
            per_sim(c.dissem.window_suppressed),
            "count",
        ),
        (
            "swarm.dissem.fold_inserts",
            per_sim(c.dissem.fold_inserts),
            "count",
        ),
        (
            "swarm.dissem.catchup_haves",
            per_sim(c.dissem.catchup_haves),
            "count",
        ),
        (
            "swarm.fault.silent_evictions",
            per_sim(c.fault.silent_evictions),
            "count",
        ),
        (
            "swarm.fault.backoff_bans",
            per_sim(c.fault.backoff_bans),
            "count",
        ),
        (
            "swarm.fault.cdn_fallbacks",
            per_sim(c.fault.cdn_fallbacks),
            "count",
        ),
        (
            "swarm.fault.watchdog_trips",
            per_sim(c.fault.watchdog_trips),
            "count",
        ),
        (
            "swarm.fault.keepalives_sent",
            per_sim(c.fault.keepalives_sent),
            "count",
        ),
        (
            "swarm.mem.bytes_per_peer",
            ratio(c.mem.total_bytes(), c.leechers),
            "B",
        ),
        (
            "swarm.mem.holder_entries",
            per_sim(c.mem.holder_entries),
            "count",
        ),
        ("swarm.sources.seeder", per_sim(out.from_seeder), "count"),
        ("swarm.sources.peers", per_sim(out.from_peers), "count"),
        ("swarm.sources.cdn", per_sim(out.from_cdn), "count"),
        ("netsim.messages", per_sim(c.net.messages_sent), "count"),
        (
            "netsim.flows_started",
            per_sim(c.net.flows_started),
            "count",
        ),
        ("netsim.host_ns_per_event", run_mean * 1e9 / events, "ns"),
        (
            "netsim.flow_fail_frac",
            ratio(c.net.flows_failed, c.net.flows_started),
            "ratio",
        ),
        (
            "netsim.injected.dropped",
            per_sim(c.injected.messages_dropped),
            "count",
        ),
        (
            "netsim.injected.delayed",
            per_sim(c.injected.messages_delayed),
            "count",
        ),
        (
            "netsim.injected.outages",
            per_sim(c.injected.outages_started),
            "count",
        ),
        ("netsim.sim_end_s", c.sim_end_secs / sims, "s"),
        (
            "netsim.probe_ns_per_flow",
            probe_secs * 1e9 / probe_flows as f64,
            "ns",
        ),
        ("protocol.codec_ns_per_msg", codec_secs * 1e9, "ns"),
        (
            "protocol.msgs_per_segment",
            ratio(c.net.messages_sent, deliveries),
            "count",
        ),
        ("host.ref_loop_s", ref_loop, "s"),
        ("trace.viewer_s_per_s", traced_rate, "1/s"),
        ("trace.overhead_frac", overhead, "ratio"),
    ];
    let zeros: Vec<&str> = metrics.iter().filter(|m| m.1 == 0.0).map(|m| m.0).collect();
    notes.push(format!("reading 0 on this workload: {}", zeros.join(", ")));
    notes.extend(not_applicable(args.kind).into_iter().map(String::from));
    notes.push(format!(
        "a traced pass of {} simulations, then {repeats} repeat(s) of single simulations, \
         alternately untraced and traced; probe: {probe_flows} flows, \
         {CODEC_MSGS} messages x {CODEC_REPS}",
        w.sims()
    ));
    for (name, (count, total, own)) in t.summary() {
        notes.push(format!(
            "span {name}: {count} calls, {total:.6} s total, {own:.6} s self"
        ));
    }
    match write_spans(args, &t) {
        Ok(path) => notes.push(format!("spans written to {path}")),
        Err(e) => problems.push(format!("cannot write spans: {e}")),
    }
    Report {
        metrics,
        notes,
        problems,
        digest: out.digest(),
        attempted: out.viewers,
        failed: out.unfinished,
    }
}

/// Why per-layer metrics read 0 by construction on a workload.
fn not_applicable(kind: Kind) -> Vec<&'static str> {
    let mut notes = Vec::new();
    if kind != Kind::FlashChurn {
        notes.push(
            "swarm.fault.*, netsim.injected.*, swarm.sources.cdn and holder removes are 0: \
             no faults, departures, defenses or CDN in this workload",
        );
    }
    notes.push(if kind == Kind::PaperGrid {
        "swarm.control.bundles_sent, swarm.control.heartbeat_frac and swarm.dissem.* are 0: \
         the legacy control plane sends individual Haves on a fixed pump, without windows"
    } else {
        "swarm.control.haves_sent is 0: the eventful control plane coalesces \
         announcements into bundles"
    });
    notes
}

/// The benchmark's own output directory, beside the build.
fn out_dir() -> std::io::Result<std::path::PathBuf> {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let dir = std::path::Path::new(&target).join("splicebench");
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

/// Writes every span as JSON lines; returns the file's path.
fn write_spans(args: &Args, t: &Tracer) -> std::io::Result<String> {
    let path = out_dir()?.join(format!(
        "spans-{}-seed{}.jsonl",
        args.kind.name(),
        args.seed
    ));
    std::fs::write(&path, t.to_jsonl())?;
    Ok(path.display().to_string())
}

/// Compares `digest` with what earlier runs of this same build printed for
/// the workload and seed, and records it when it is the first. Returns the
/// earlier digest when they disagree.
fn check_digest_record(args: &Args, digest: u64) -> std::io::Result<Option<String>> {
    // The executable's size and modification time identify the build: a
    // rebuilt program may legitimately print other digests.
    let exe = std::fs::metadata(std::env::current_exe()?)?;
    let built = exe
        .modified()?
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let key = format!("{built}-{} {} {}", exe.len(), args.kind.name(), args.seed);
    let path = out_dir()?.join("digests.txt");
    let known = std::fs::read_to_string(&path).unwrap_or_default();
    let digest = format!("{digest:#018x}");
    if let Some(earlier) = known
        .lines()
        .find_map(|l| l.strip_prefix(key.as_str())?.strip_prefix(' '))
    {
        return Ok((earlier != digest).then(|| earlier.to_string()));
    }
    use std::io::Write as _;
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)?;
    writeln!(file, "{key} {digest}")?;
    Ok(None)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("splicebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let mut report = if args.trace {
        run_traced(&args)
    } else {
        run_untraced(&args)
    };
    match check_digest_record(&args, report.digest) {
        Ok(None) => {}
        Ok(Some(earlier)) => report.problems.push(format!(
            "outputs_digest differs from {earlier}, printed by an earlier run of this build"
        )),
        Err(e) => report
            .problems
            .push(format!("cannot record outputs_digest: {e}")),
    }

    let name = args.kind.name();
    println!(
        "outputs_digest {name} seed {} = {:#018x}",
        args.seed, report.digest
    );
    for note in &report.notes {
        println!("note: {note}");
    }
    for problem in &report.problems {
        println!("problem: {problem}");
    }
    let mut json = Vec::new();
    for &(metric, value, unit) in &report.metrics {
        println!("metric {name} {metric} = {value} {unit}");
        assert!(value.is_finite(), "{metric} is not finite: {value}");
        json.push(format!(
            "\"{metric}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    let correct = report.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        json.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
