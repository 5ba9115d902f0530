//! One basic service set (BSS) — an AP and its clients — built and
//! measured one way for the single-AP driver ([`crate::driver`]) and the
//! city ([`crate::city`]):
//!
//! * [`add_bss`] adds the AP and its clients to a simulator and registers
//!   each with the BSS's oracle bank;
//! * [`rounds`] is the warmup/tick schedule every run follows;
//! * [`measure`] drives a simulator through that schedule, samples every
//!   BSS at each tick, and reduces each BSS to a [`ScenarioOutcome`].
//!
//! One role rule gives every node its RNG stream id and oracle identity:
//! the AP is `base`, client `i` is `base + 1 + i`. The driver's BSS is the
//! city's cell 0: base 0, SSID 1.

use crate::ap::{ApBehavior, ApConfig};
use crate::client::{ClientBehavior, ClientConfig};
use crate::driver::{Sample, ScenarioOutcome};
use crate::oracles::{OracleBank, OracleSet};
use whitefi_mac::sim::DETECTION_DELAY;
use whitefi_mac::{Behavior, NodeConfig, NodeId, ShardSite, Simulator};
use whitefi_phy::{SimDuration, SimTime};
use whitefi_spectrum::{IncumbentSet, SpectrumMap, TvStation, WfChannel};

/// What one node hears: its static map and any extra incumbents (e.g.
/// scripted mics).
pub(crate) type NodeEnv<'a> = (SpectrumMap, Option<&'a IncumbentSet>);

/// Everything [`add_bss`] builds one BSS from.
pub(crate) struct BssSpec<'a> {
    /// Downlink payload bytes (backlogged).
    pub downlink_bytes: usize,
    /// Uplink payload bytes (backlogged); `None` disables uplink.
    pub uplink_bytes: Option<usize>,
    /// The AP's environment.
    pub ap_env: NodeEnv<'a>,
    /// One environment per client.
    pub client_envs: Vec<NodeEnv<'a>>,
    /// The AP's stream id and oracle identity.
    pub base: usize,
    /// The network's SSID.
    pub ssid: u32,
    /// The channel every node boots on.
    pub initial: WfChannel,
    /// Position and range of every node, and the footprint no node may
    /// leave ([`measure`] asserts it at every round).
    pub site: ShardSite,
    /// Adaptive WhiteFi, or a static network pinned to `initial`.
    pub adaptive: bool,
}

/// A built BSS: its sim-local node ids, oracle bank and footprint.
pub(crate) struct Bss {
    ap: NodeId,
    clients: Vec<NodeId>,
    bank: OracleBank,
    footprint: u32,
}

fn incumbents_for((map, extra): NodeEnv<'_>) -> IncumbentSet {
    let mut set = extra.cloned().unwrap_or_default();
    for ch in map.occupied_channels() {
        set.tv.push(TvStation::strong(ch));
    }
    set
}

/// Adds the AP, then its clients, to `sim`, and registers each in a new
/// bank of `oracles` under its stream id, with the detection delay plus
/// any faulted extra. Install the fault plan first: each node's fault
/// stream is drawn when it registers.
pub(crate) fn add_bss(sim: &mut Simulator, oracles: &OracleSet, spec: BssSpec<'_>) -> Bss {
    let bank = oracles.add_bank(spec.adaptive);
    // Places one node at the BSS's site in its SSID and registers it.
    let mut add = |cfg: NodeConfig, env, stable: usize, behavior: Box<dyn Behavior>| {
        let incumbents = incumbents_for(env);
        let mut cfg = cfg
            .in_ssid(spec.ssid)
            .at(spec.site.pos.0, spec.site.pos.1)
            .with_incumbents(incumbents.clone());
        cfg.range = spec.site.range;
        let is_ap = cfg.is_ap;
        let id = sim.add_node(cfg, behavior);
        let detection_total = DETECTION_DELAY + sim.fault_detection_extra(id);
        bank.add_member_as(id, stable, is_ap, &incumbents, detection_total);
        id
    };

    let mut ap_cfg = ApConfig::default().saturating_downlink(spec.downlink_bytes);
    ap_cfg.adaptive = spec.adaptive;
    let cfg = NodeConfig::on_channel(spec.initial)
        .ap()
        .rng_stream(spec.base as u64); // stream-map: domain=sim-nodes salt=scenario-seed streams=0..=4294967295 role="BSS AP (node base: 0 single-AP, global in a city)"
    let ap = add(
        cfg,
        spec.ap_env,
        spec.base,
        Box::new(ApBehavior::new(ap_cfg)),
    );

    let mut clients = Vec::with_capacity(spec.client_envs.len());
    for (i, &env) in spec.client_envs.iter().enumerate() {
        let stable = spec.base + 1 + i;
        let cfg = NodeConfig::on_channel(spec.initial).rng_stream(stable as u64); // stream-map: domain=sim-nodes salt=scenario-seed streams=1..=4294967295 role="BSS clients (base + 1 + client index)"
        let slot = u8::try_from(i % 16).unwrap_or(0); // i % 16 < 16, always fits
        let mut ccfg = ClientConfig::new(ap, slot);
        if let Some(bytes) = spec.uplink_bytes {
            ccfg = ccfg.saturating_uplink(bytes);
        }
        // A static network runs no disconnection protocol, and nothing
        // reads its airtime scanner.
        if !spec.adaptive {
            ccfg.disconnect_timeout = SimDuration::from_secs(1_000_000);
            ccfg.scan_enabled = false;
        }
        clients.push(add(cfg, env, stable, Box::new(ClientBehavior::new(ccfg))));
    }
    Bss {
        ap,
        clients,
        bank,
        footprint: spec.site.footprint,
    }
}

/// One round of the schedule: advance to `to`, then reset stats (the
/// round ending warmup) or sample every BSS (every other round).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Round {
    /// Absolute target time of this round (offset from `SimTime::ZERO`).
    pub to: SimDuration,
    /// Reset statistics after advancing (the round that ends warmup).
    pub reset: bool,
}

/// The warmup/tick schedule: one round at the end of warmup (none for a
/// zero warmup), then one per sampling tick, the last clamped to the end
/// of the run. A pure function of the durations, hence identical across
/// every simulator of a sharded city.
pub(crate) fn rounds(
    warmup: SimDuration,
    duration: SimDuration,
    sample_interval: SimDuration,
) -> Vec<Round> {
    let mut rounds = Vec::new();
    if warmup > SimDuration::ZERO {
        rounds.push(Round {
            to: warmup,
            reset: true,
        });
    }
    let end = warmup + duration;
    let mut t = warmup;
    while t < end {
        t += sample_interval;
        if t > end {
            t = end;
        }
        rounds.push(Round {
            to: t,
            reset: false,
        });
    }
    rounds
}

fn client_bytes(sim: &Simulator, c: NodeId) -> u64 {
    sim.stats(c).rx_data_bytes + sim.stats(c).tx_acked_bytes
}

/// Runs `sim` through `rounds` and returns each BSS's outcome over the
/// measurement window `duration`, in the order of `bsss`. At every round
/// each node must sit inside its BSS's footprint: the load-bearing
/// soundness condition of influence sharding (DESIGN.md §13).
pub(crate) fn measure(
    sim: &mut Simulator,
    bsss: &[Bss],
    rounds: &[Round],
    duration: SimDuration,
) -> Vec<ScenarioOutcome> {
    let mut samples: Vec<Vec<Sample>> = vec![Vec::new(); bsss.len()];
    let mut last_total = vec![0u64; bsss.len()];
    for round in rounds {
        sim.run_until(SimTime::ZERO + round.to);
        for bss in bsss {
            for &n in std::iter::once(&bss.ap).chain(&bss.clients) {
                let ch = sim.node_channel(n);
                assert!(
                    ch.footprint() & !bss.footprint == 0,
                    "node {n} (BSS of AP {}) on {ch} escaped its footprint {:#010x} — \
                     influence sharding would be unsound",
                    bss.ap,
                    bss.footprint,
                );
            }
        }
        if round.reset {
            sim.reset_stats();
            continue;
        }
        for (k, bss) in bsss.iter().enumerate() {
            let total: u64 = bss.clients.iter().map(|&c| client_bytes(sim, c)).sum();
            samples[k].push(Sample {
                t: SimTime::ZERO + round.to,
                ap_channel: sim.node_channel(bss.ap),
                bytes_delta: total - last_total[k],
            });
            last_total[k] = total;
        }
    }

    bsss.iter()
        .zip(samples)
        .map(|(bss, samples)| {
            let per_client_mbps: Vec<f64> = bss
                .clients
                .iter()
                .map(|&c| client_bytes(sim, c) as f64 * 8.0 / duration.as_secs_f64() / 1e6)
                .collect();
            let aggregate_mbps = per_client_mbps.iter().sum();
            let violations = std::iter::once(&bss.ap)
                .chain(&bss.clients)
                .map(|&n| sim.stats(n).incumbent_violations)
                .sum();
            ScenarioOutcome {
                per_client_mbps,
                aggregate_mbps,
                samples,
                violations,
                oracle: bss.bank.finish(sim),
            }
        })
        .collect()
}
