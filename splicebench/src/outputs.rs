//! What one pass over a workload produced: viewer QoE, segment sources and
//! network totals, the outputs digest, and the sanity checks every
//! simulation must pass.

use splicecast_core::netsim::{InjectedFaults, SimStats};
use splicecast_core::swarm::{
    ControlPlaneStats, DisseminationStats, PeerFaultStats, PeerMemStats, SchedulerStats,
};
use splicecast_core::{fnv1a, ExperimentConfig, RunResult};

/// Layer counters summed over the simulations of a pass.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub sched: SchedulerStats,
    pub control: ControlPlaneStats,
    pub dissem: DisseminationStats,
    pub fault: PeerFaultStats,
    pub mem: PeerMemStats,
    pub injected: InjectedFaults,
    pub net: SimStats,
    pub leechers: u64,
    pub sim_end_secs: f64,
    pub overhead_ratio: f64,
}

/// Viewer QoE and totals of one pass (every simulation of the workload
/// once), in simulation order.
#[derive(Debug, Clone, Default)]
pub struct Outputs {
    pub sims: usize,
    /// Watching viewers (leechers that did not depart or crash).
    pub viewers: u64,
    /// Watching viewers that had not finished when the simulation ended.
    pub unfinished: u64,
    pub stalls: u64,
    pub stall_secs: f64,
    /// Startup time of every watching viewer that started playing.
    pub startups: Vec<f64>,
    /// Watching viewers × clip seconds.
    pub viewer_secs: f64,
    pub from_seeder: u64,
    pub from_peers: u64,
    pub from_cdn: u64,
    pub counters: Counters,
    /// The fields the outputs digest covers, in simulation order.
    digest_input: Vec<u8>,
    /// Sanity-check failures, one line each.
    pub problems: Vec<String>,
}

impl Outputs {
    /// FNV-1a over every simulation's per-viewer QoE, segment sources and
    /// `SimStats`.
    pub fn digest(&self) -> u64 {
        fnv1a(&self.digest_input)
    }

    /// Folds one simulation in: QoE, sources, counters, digest, checks.
    pub fn absorb(&mut self, label: &str, config: &ExperimentConfig, run: &RunResult) {
        let m = &run.metrics;
        self.sims += 1;
        self.check(label, config, run);

        let n = &m.net;
        let mut words = vec![run.seed, m.reports.len() as u64];
        for r in &m.reports {
            let qoe = &r.qoe;
            words.extend([
                qoe.startup_secs.map_or(u64::MAX, f64::to_bits),
                qoe.stall_count as u64,
                qoe.total_stall_secs.to_bits(),
                qoe.finished_secs.map_or(u64::MAX, f64::to_bits),
                u64::from(r.finished) | u64::from(r.departed) << 1,
                r.segments_from_seeder as u64,
                r.segments_from_peers as u64,
                r.segments_from_cdn as u64,
            ]);
        }
        words.extend([
            n.messages_sent,
            n.flows_started,
            n.flows_completed,
            n.flows_failed,
            n.payload_bytes_delivered,
            n.wire_bytes_sent,
            m.sim_end_secs.to_bits(),
        ]);
        for w in words {
            self.digest_input.extend_from_slice(&w.to_le_bytes());
        }

        for r in m.watching() {
            self.viewers += 1;
            self.unfinished += u64::from(!r.finished);
            self.stalls += r.qoe.stall_count as u64;
            self.stall_secs += r.qoe.total_stall_secs;
            self.startups.extend(r.qoe.startup_secs);
            self.viewer_secs += config.video.duration_secs;
        }
        for r in &m.reports {
            self.from_seeder += r.segments_from_seeder as u64;
            self.from_peers += r.segments_from_peers as u64;
            self.from_cdn += r.segments_from_cdn as u64;
        }

        let c = &mut self.counters;
        c.sched.absorb(&m.sched_totals());
        c.control.absorb(&m.control_totals());
        c.dissem.absorb(&m.dissem_totals());
        c.fault.absorb(&m.fault_totals());
        c.mem.absorb(&m.mem_totals());
        c.injected.absorb(&m.injected);
        c.net.messages_sent += n.messages_sent;
        c.net.flows_started += n.flows_started;
        c.net.flows_completed += n.flows_completed;
        c.net.flows_failed += n.flows_failed;
        c.net.payload_bytes_delivered += n.payload_bytes_delivered;
        c.net.wire_bytes_sent += n.wire_bytes_sent;
        c.leechers += m.reports.len() as u64;
        c.sim_end_secs += m.sim_end_secs;
        c.overhead_ratio += run.overhead_ratio;
    }

    /// Checks one simulation's outputs for internal consistency.
    fn check(&mut self, label: &str, config: &ExperimentConfig, run: &RunResult) {
        let m = &run.metrics;
        let mut fail = |what: String| self.problems.push(format!("{label}: {what}"));
        if m.reports.len() != config.swarm.n_leechers {
            fail(format!(
                "{} reports for {} leechers",
                m.reports.len(),
                config.swarm.n_leechers
            ));
        }
        if !(m.sim_end_secs > 0.0 && m.sim_end_secs <= config.swarm.max_sim_secs + 1.0) {
            fail(format!("simulation ended at {} s", m.sim_end_secs));
        }
        let n = &m.net;
        if n.flows_completed + n.flows_failed > n.flows_started {
            fail(format!("flow counts do not reconcile: {n:?}"));
        }
        if n.wire_bytes_sent < n.payload_bytes_delivered || n.payload_bytes_delivered == 0 {
            fail(format!("wire bytes below payload bytes: {n:?}"));
        }
        for r in &m.reports {
            let got = r.segments_from_seeder + r.segments_from_peers + r.segments_from_cdn;
            let finite = r.qoe.total_stall_secs.is_finite()
                && r.qoe.total_stall_secs >= 0.0
                && r.qoe.startup_secs.is_none_or(|s| s.is_finite() && s >= 0.0);
            if !finite {
                fail(format!("peer {} has invalid QoE {:?}", r.peer, r.qoe));
            }
            if r.finished && (got < run.segment_count || r.qoe.startup_secs.is_none()) {
                fail(format!(
                    "peer {} finished with {got} of {} segments, startup {:?}",
                    r.peer, run.segment_count, r.qoe.startup_secs
                ));
            }
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}
