//! Layer probes that call `netsim` and `protocol` directly, shaped by the
//! workload's own counts, to separate their cost from the swarm's.

use std::hint::black_box;
use std::time::Instant;

use splicecast_core::netsim::{
    star, Ctx, LinkSpec, NodeBehavior, NodeEvent, NodeId, NullBehavior, SimDuration, SimTime,
    Simulator, TcpConfig,
};
use splicecast_core::protocol::{encode_to_bytes, Bitfield, Decoder, Message};
use splicecast_core::{ExperimentConfig, Summary};

use crate::outputs::Counters;

/// Streams chunks over each of its chains: sequentially within a chain,
/// concurrently across chains (fig_scale's transfer-only pattern).
struct FanSender {
    chains: Vec<(NodeId, u64)>,
    chunk_bytes: u64,
}

impl NodeBehavior for FanSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for (tag, &(to, _)) in self.chains.iter().enumerate() {
            ctx.start_transfer(to, self.chunk_bytes, tag as u64)
                .expect("probe transfer starts");
        }
    }

    fn on_event(&mut self, ctx: &mut Ctx<'_>, event: NodeEvent) {
        if let NodeEvent::UploadComplete { to, tag, .. } = event {
            let left = &mut self.chains[tag as usize].1;
            if *left > 0 {
                *left -= 1;
                ctx.start_transfer(to, self.chunk_bytes, tag)
                    .expect("probe transfer starts");
            }
        }
    }
}

/// Result of one netsim probe.
#[derive(Debug, Clone, Copy)]
pub struct NetsimProbe {
    pub flows: u64,
    pub secs: f64,
}

/// Runs about `flows` transfers of `chunk_bytes` over the workload's star
/// (same leaves, link specs and flow model as the swarm builds): every
/// leecher pulls one chain from the seeder and one from the next leecher.
pub fn netsim(config: &ExperimentConfig, flows: u64, chunk_bytes: u64, seed: u64) -> NetsimProbe {
    let sw = &config.swarm;
    let loss = sw.per_link_loss();
    let peer_latency = SimDuration::from_secs_f64(sw.peer_one_way_latency_secs / 2.0);
    let seeder_latency = SimDuration::from_secs_f64(
        sw.seeder_one_way_latency_secs - sw.peer_one_way_latency_secs / 2.0,
    );
    let n = sw.n_leechers;
    let mut specs = vec![LinkSpec::from_bytes_per_sec(
        sw.seeder_bandwidth_bytes_per_sec,
        seeder_latency,
        loss,
    )];
    specs.extend(std::iter::repeat_n(
        LinkSpec::from_bytes_per_sec(sw.peer_bandwidth_bytes_per_sec, peer_latency, loss),
        n,
    ));
    if let Some(cdn) = &sw.cdn {
        let latency = (cdn.one_way_latency_secs - sw.peer_one_way_latency_secs / 2.0).max(0.0);
        specs.push(LinkSpec::from_bytes_per_sec(
            cdn.bandwidth_bytes_per_sec,
            SimDuration::from_secs_f64(latency),
            loss,
        ));
    }
    let topo = star(&specs);
    let leechers = &topo.leaves[1..=n];

    let chains = if n > 1 { 2 * n } else { 1 };
    let extra = (flows.max(chains as u64) / chains as u64).saturating_sub(1);
    let mut sim = Simulator::new(topo.network, seed);
    sim.set_tcp_config(TcpConfig {
        flow_model: sw.flow_model,
        ..TcpConfig::default()
    });
    sim.add_node(Box::new(NullBehavior)); // the hub
    sim.add_node(Box::new(FanSender {
        chains: leechers.iter().map(|&to| (to, extra)).collect(),
        chunk_bytes,
    }));
    for i in 0..n {
        let chains = if n > 1 {
            vec![(leechers[(i + 1) % n], extra)]
        } else {
            Vec::new()
        };
        sim.add_node(Box::new(FanSender {
            chains,
            chunk_bytes,
        }));
    }
    if sw.cdn.is_some() {
        sim.add_node(Box::new(NullBehavior));
    }

    let start = Instant::now();
    sim.run_until_idle(SimTime::from_secs_f64(1e6));
    let secs = start.elapsed().as_secs_f64();
    let stats = sim.stats();
    assert_eq!(
        stats.flows_completed + stats.flows_failed,
        stats.flows_started,
        "probe flows must all end"
    );
    NetsimProbe {
        flows: stats.flows_started,
        secs,
    }
}

/// The workload's control-message mix, weighted by its own counters:
/// `(message, how many the workload sent)`.
pub fn message_mix(c: &Counters, segments: u32) -> Vec<(Message, u64)> {
    let bundle = |indices: u64, bundles: u64| {
        let size = (indices / bundles.max(1)).clamp(1, u64::from(segments)) as u32;
        let stride = (segments / size).max(1);
        Message::HaveBundle {
            indices: (0..size).map(|i| i * stride).collect(),
        }
    };
    let mut bitfield = Bitfield::new(segments);
    for i in (0..segments).step_by(2) {
        bitfield.set(i);
    }
    let flows = c.net.flows_started;
    let mut mix = vec![
        (
            Message::Have {
                index: segments / 2,
            },
            c.control.haves_sent,
        ),
        (
            bundle(c.control.haves_coalesced, c.control.have_bundles_sent),
            c.control.have_bundles_sent,
        ),
        (
            bundle(c.dissem.catchup_haves, c.dissem.catchup_bundles),
            c.dissem.catchup_bundles,
        ),
        (
            Message::InterestWindow {
                start: segments / 4,
                end: segments / 4 + 64,
            },
            c.dissem.windows_sent,
        ),
        (Message::KeepAlive, c.fault.keepalives_sent),
        (
            Message::Request {
                index: segments / 3,
            },
            flows,
        ),
        (
            Message::SegmentHeader {
                index: segments / 3,
                bytes: c.net.payload_bytes_delivered / c.net.flows_completed.max(1),
            },
            flows,
        ),
    ];
    // Whatever the counters do not name: handshakes, bitfields and
    // interest changes, in equal parts.
    let named: u64 = mix.iter().map(|(_, n)| n).sum();
    let rest = c.net.messages_sent.saturating_sub(named) / 4;
    mix.extend([
        (
            Message::Handshake {
                peer_id: 0x5EED,
                info_hash: [7; 20],
                version: 1,
            },
            rest,
        ),
        (Message::Bitfield(bitfield), rest),
        (Message::Interested, rest),
        (Message::NotInterested, rest),
    ]);
    mix.retain(|(_, n)| *n > 0);
    mix
}

/// Encodes and decodes `total` messages drawn from `mix` in proportion to
/// its weights, `reps` times; returns the median seconds per message and
/// whether every message decoded to itself.
pub fn codec(mix: &[(Message, u64)], total: usize, reps: usize) -> (f64, bool) {
    let weight: u64 = mix.iter().map(|(_, n)| n).sum();
    // Interleave by weight with an error-diffusion walk so the sequence is
    // deterministic and evenly mixed.
    let mut credit = vec![0.0f64; mix.len()];
    let msgs: Vec<&Message> = (0..total)
        .map(|_| {
            for (c, (_, n)) in credit.iter_mut().zip(mix) {
                *c += *n as f64 / weight as f64;
            }
            let (best, _) = credit
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.total_cmp(b.1))
                .expect("non-empty mix");
            credit[best] -= 1.0;
            &mix[best].0
        })
        .collect();

    let mut ok = true;
    let mut per_msg = Vec::with_capacity(reps);
    for _ in 0..reps {
        let mut decoder = Decoder::new();
        let start = Instant::now();
        for &msg in &msgs {
            decoder.feed(&encode_to_bytes(black_box(msg)));
            let decoded = decoder.poll();
            ok &= matches!(&decoded, Ok(Some(m)) if m == msg);
            black_box(decoded.ok());
        }
        per_msg.push(start.elapsed().as_secs_f64() / total as f64);
    }
    (Summary::of(&per_msg).median, ok)
}
