//! Scenario construction and measurement for the paper's evaluation.
//!
//! §5.4's large-scale simulations share one shape: "We place one AP in
//! the middle of an area, and randomly distribute clients as well as
//! background AP/client-pairs within transmission range of this AP …
//! The AP and clients are backlogged and transmit UDP flows (up- and
//! downstream). Background nodes transmit constant-bit-rate (CBR) traffic
//! at a pre-specified intensity." A [`Scenario`] captures that shape; the
//! runners measure per-client throughput after a warmup:
//!
//! * [`run_whitefi`] — the adaptive WhiteFi network;
//! * [`run_fixed`] — the same network pinned to one channel (used for the
//!   OPT-5/10/20 MHz static baselines and the omniscient OPT), with
//!   background pairs that provably cannot interact with the foreground
//!   spectrally sliced out of the simulation (DESIGN.md §9);
//! * [`StaticBaselines::measure`] — sweeps every admissible channel to
//!   produce all four baselines of Figures 11–13;
//! * [`measure_airtime`] — a background-only run that yields the airtime
//!   vector a WhiteFi scanner would measure (the Figure 10
//!   microbenchmark's MCham input).
//!
//! Every node gets an explicit RNG stream id derived from its *role*
//! (AP, i-th client, k-th background pair), not its insertion order, so
//! a pruned build draws exactly the random sequences the unpruned build
//! would — the foundation of the pruned == unpruned equality contract.

use crate::ap::{ApBehavior, ApConfig};
use crate::client::{ClientBehavior, ClientConfig};
use crate::mcham::NodeReport;
use crate::oracles::{OracleBank, OracleConfig, OracleReport, OracleSet};
use whitefi_mac::traffic::Sink;
use whitefi_mac::{
    influence_closure, CbrSender, FaultPlan, MarkovOnOffSender, NodeConfig, NodeId, NodeSite,
    ScriptedCbrSender, Simulator,
};
use whitefi_phy::{SimDuration, SimTime};
use whitefi_spectrum::{
    AirtimeVector, ChannelLoad, IncumbentSet, SpectrumMap, TvStation, UhfChannel, WfChannel, Width,
};

/// Load shape of one background AP/client pair.
#[derive(Debug, Clone, PartialEq)]
pub enum BackgroundTraffic {
    /// CBR at the given inter-packet delay.
    Cbr {
        /// Inter-packet delay.
        interval: SimDuration,
    },
    /// Two-state Markov churn (Figure 13).
    Markov {
        /// CBR interval while active.
        interval: SimDuration,
        /// Mean active dwell.
        mean_active: SimDuration,
        /// Mean passive dwell.
        mean_passive: SimDuration,
    },
    /// CBR only inside scripted windows (Figure 14).
    Scripted {
        /// CBR interval while a window is open.
        interval: SimDuration,
        /// Active windows.
        windows: Vec<(SimTime, SimTime)>,
    },
}

/// One background AP/client pair on a fixed channel.
#[derive(Debug, Clone, PartialEq)]
pub struct BackgroundPair {
    /// The pair's (fixed) channel.
    pub channel: WfChannel,
    /// Its load shape.
    pub traffic: BackgroundTraffic,
}

/// A complete experiment scenario. `PartialEq` is exact: the
/// scenario-file round-trip tests assert compiled and hand-coded
/// scenarios are equal field for field.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// RNG seed (placement and MAC backoffs).
    pub seed: u64,
    /// Incumbent occupancy observed at the AP.
    pub ap_map: SpectrumMap,
    /// Incumbent occupancy observed at each client (length = number of
    /// clients).
    pub client_maps: Vec<SpectrumMap>,
    /// Extra incumbents at the AP beyond the static map (e.g. scripted
    /// mic schedules).
    pub ap_extra_incumbents: Option<IncumbentSet>,
    /// Extra incumbents per client.
    pub client_extra_incumbents: Vec<Option<IncumbentSet>>,
    /// Background pairs.
    pub background: Vec<BackgroundPair>,
    /// Downlink payload bytes (backlogged).
    pub downlink_bytes: usize,
    /// Uplink payload bytes (backlogged); `None` disables uplink.
    pub uplink_bytes: Option<usize>,
    /// Measurement duration (after warmup).
    pub duration: SimDuration,
    /// Warmup before stats are reset.
    pub warmup: SimDuration,
    /// Timeline sampling period.
    pub sample_interval: SimDuration,
    /// AP protocol configuration template (traffic fields are overridden
    /// from the scenario).
    pub ap_config: ApConfig,
    /// Deterministic fault plan injected at the medium boundary
    /// (`None` = the fault layer is bypassed entirely and the run is
    /// byte-identical to a pre-fault-layer build — DESIGN.md §10).
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// A scenario with the given shared spectrum map and client count,
    /// backlogged in both directions, 5 s measurement after 2 s warmup.
    pub fn new(seed: u64, map: SpectrumMap, n_clients: usize) -> Self {
        Self {
            seed,
            ap_map: map,
            client_maps: vec![map; n_clients],
            ap_extra_incumbents: None,
            client_extra_incumbents: vec![None; n_clients],
            background: Vec::new(),
            downlink_bytes: 1000,
            uplink_bytes: Some(500),
            duration: SimDuration::from_secs(5),
            warmup: SimDuration::from_secs(2),
            sample_interval: SimDuration::from_millis(100),
            ap_config: ApConfig::default(),
            faults: None,
        }
    }

    /// The union of the AP's and all clients' static maps — the candidate
    /// universe of the assignment algorithm.
    pub fn combined_map(&self) -> SpectrumMap {
        SpectrumMap::union_all(std::iter::once(self.ap_map).chain(self.client_maps.iter().copied()))
    }

    pub(crate) fn incumbents_for(map: SpectrumMap, extra: Option<&IncumbentSet>) -> IncumbentSet {
        let mut set = extra.cloned().unwrap_or_default();
        for ch in map.occupied_channels() {
            set.tv.push(TvStation::strong(ch));
        }
        set
    }
}

/// One timeline sample of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Sample time.
    pub t: SimTime,
    /// The channel the AP was tuned to.
    pub ap_channel: WfChannel,
    /// Application bytes moved (down + up) since the previous sample.
    pub bytes_delta: u64,
}

/// Measured outcome of a run. `PartialEq` is exact (bit-level float
/// equality) on purpose: the pruning differential tests assert pruned
/// and unpruned fixed runs agree *exactly*, not approximately.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Per-client goodput (downlink received + uplink acknowledged) in
    /// Mbps over the measurement window.
    pub per_client_mbps: Vec<f64>,
    /// Sum of per-client goodputs.
    pub aggregate_mbps: f64,
    /// Channel/goodput timeline at the scenario's sampling period.
    pub samples: Vec<Sample>,
    /// Total incumbent violations across all WhiteFi nodes (must be 0
    /// for a correct protocol run).
    pub violations: u64,
    /// The always-on invariant oracles' verdict (DESIGN.md §10). Like
    /// every other field it derives from foreground state only, so the
    /// exact pruned == unpruned equality covers it too.
    pub oracle: OracleReport,
}

struct BuiltNetwork {
    sim: Simulator,
    ap: NodeId,
    clients: Vec<NodeId>,
    oracle: OracleBank,
}

/// Builds the network. `keep_background` (`None` = keep all) is a mask
/// over the scenario's background pairs; skipped pairs are not added to
/// the simulation at all. RNG stream ids are assigned by role — AP `0`,
/// client `i` `1 + i`, pair `k` `FG + 2k` (rx) / `FG + 2k + 1` (tx)
/// with `FG = 1 + n_clients` — so they are invariant under pruning.
fn build(
    scenario: &Scenario,
    initial: WfChannel,
    adaptive: bool,
    keep_background: Option<&[bool]>,
) -> BuiltNetwork {
    let mut sim = Simulator::new(scenario.seed);
    if !adaptive {
        // Fixed-channel runs issue no scanner queries (SCAN/BACKUP_SCAN
        // timers are disabled below), so the only history consumer left
        // is the carrier-sense interferer check, which never looks back
        // further than one frame duration (≲ 8 ms at W5). 300 ms keeps a
        // wide margin while making trace retention pay-as-you-go.
        sim.medium_mut().history_horizon = SimDuration::from_millis(300);
    }
    // The fault plan must be installed before any node registers (each
    // node's fault RNG stream is drawn at registration) and may itself
    // skew the history horizon, adversarially overriding the above.
    if let Some(plan) = &scenario.faults {
        sim.set_fault_plan(plan.clone());
    }
    let oracles = OracleSet::new();
    let bank = oracles.add_bank(OracleConfig {
        adaptive,
        ..OracleConfig::default()
    });

    let mut ap_cfg = scenario.ap_config.clone();
    ap_cfg.adaptive = adaptive;
    ap_cfg.downlink_bytes = Some(scenario.downlink_bytes);
    ap_cfg.downlink_interval = None;

    let ap_incumbents =
        Scenario::incumbents_for(scenario.ap_map, scenario.ap_extra_incumbents.as_ref());
    let ap_node_cfg = NodeConfig::on_channel(initial)
        .ap()
        .in_ssid(1)
        .rng_stream(0) // stream-map: domain=sim-nodes salt=scenario-seed streams=0..=0 role="single-BSS AP"
        .with_incumbents(ap_incumbents.clone());
    let ap_detection = ap_node_cfg.detection_delay;
    let ap = sim.add_node(ap_node_cfg, Box::new(ApBehavior::new(ap_cfg)));
    bank.add_member(
        ap,
        true,
        &ap_incumbents,
        ap_detection + sim.fault_detection_extra(ap),
    );

    let mut clients = Vec::new();
    for (i, &map) in scenario.client_maps.iter().enumerate() {
        let extra = scenario
            .client_extra_incumbents
            .get(i)
            .and_then(|o| o.as_ref());
        let incumbents = Scenario::incumbents_for(map, extra);
        let node_cfg = NodeConfig::on_channel(initial)
            .in_ssid(1)
            .rng_stream(1 + i as u64) // stream-map: domain=sim-nodes salt=scenario-seed streams=1..=65535 role="single-BSS clients (1 + client index)"
            .with_incumbents(incumbents.clone());
        let detection = node_cfg.detection_delay;
        let slot = u8::try_from(i % 16).unwrap_or(0); // i % 16 < 16, always fits
        let mut ccfg = ClientConfig::new(ap, slot);
        if let Some(bytes) = scenario.uplink_bytes {
            ccfg = ccfg.saturating_uplink(bytes);
        }
        // Fixed-channel baselines must not run the disconnection
        // protocol either (they model a dumb static network), and their
        // airtime scanner output is never consulted.
        if !adaptive {
            ccfg.disconnect_timeout = SimDuration::from_secs(1_000_000);
            ccfg.scan_enabled = false;
        }
        let id = sim.add_node(node_cfg, Box::new(ClientBehavior::new(ccfg)));
        bank.add_member(
            id,
            false,
            &incumbents,
            detection + sim.fault_detection_extra(id),
        );
        clients.push(id);
    }

    let fg = 1 + scenario.client_maps.len() as u64;
    for (k, pair) in scenario.background.iter().enumerate() {
        if let Some(mask) = keep_background {
            if !mask[k] {
                continue;
            }
        }
        let rx_cfg = NodeConfig::on_channel(pair.channel).rng_stream(fg + 2 * k as u64); // stream-map: domain=sim-nodes salt=scenario-seed streams=2..=4294967295 role="background pair rx (fg + 2*pair)"
        let rx = sim.add_node(rx_cfg, Box::new(Sink));
        let tx_cfg = NodeConfig::on_channel(pair.channel)
            .ap()
            .rng_stream(fg + 2 * k as u64 + 1); // stream-map: domain=sim-nodes salt=scenario-seed streams=3..=4294967295 role="background pair tx (fg + 2*pair + 1)"
        match &pair.traffic {
            BackgroundTraffic::Cbr { interval } => {
                sim.add_node(tx_cfg, Box::new(CbrSender::new(rx, *interval)));
            }
            BackgroundTraffic::Markov {
                interval,
                mean_active,
                mean_passive,
            } => {
                sim.add_node(
                    tx_cfg,
                    Box::new(MarkovOnOffSender::new(
                        rx,
                        *interval,
                        *mean_active,
                        *mean_passive,
                    )),
                );
            }
            BackgroundTraffic::Scripted { interval, windows } => {
                sim.add_node(
                    tx_cfg,
                    Box::new(ScriptedCbrSender::new(rx, *interval, windows.clone())),
                );
            }
        }
    }

    sim.set_observer(oracles.observer());
    BuiltNetwork {
        sim,
        ap,
        clients,
        oracle: bank,
    }
}

fn measure(scenario: &Scenario, net: &mut BuiltNetwork) -> ScenarioOutcome {
    let BuiltNetwork {
        sim,
        ap,
        clients,
        oracle,
    } = net;
    sim.run_until(SimTime::ZERO + scenario.warmup);
    sim.reset_stats();

    let mut samples = Vec::new();
    let mut last_total: u64 = 0;
    let end = scenario.warmup + scenario.duration;
    let mut t = scenario.warmup;
    while t < end {
        t += scenario.sample_interval;
        if t > end {
            t = end;
        }
        sim.run_until(SimTime::ZERO + t);
        let total: u64 = clients
            .iter()
            .map(|&c| sim.stats(c).rx_data_bytes + sim.stats(c).tx_acked_bytes)
            .sum();
        samples.push(Sample {
            t: SimTime::ZERO + t,
            ap_channel: sim.node_channel(*ap),
            bytes_delta: total - last_total,
        });
        last_total = total;
    }

    let span = scenario.duration;
    let per_client_mbps: Vec<f64> = clients
        .iter()
        .map(|&c| {
            let s = sim.stats(c);
            (s.rx_data_bytes + s.tx_acked_bytes) as f64 * 8.0 / span.as_secs_f64() / 1e6
        })
        .collect();
    let aggregate_mbps = per_client_mbps.iter().sum();
    let mut violations = sim.stats(*ap).incumbent_violations;
    for &c in clients.iter() {
        violations += sim.stats(c).incumbent_violations;
    }
    ScenarioOutcome {
        per_client_mbps,
        aggregate_mbps,
        samples,
        violations,
        oracle: oracle.finish(sim),
    }
}

/// Runs the adaptive WhiteFi network. `initial` overrides the bootstrap
/// channel; by default the assignment algorithm's clean-spectrum choice
/// over the combined map is used.
pub fn run_whitefi(scenario: &Scenario, initial: Option<WfChannel>) -> ScenarioOutcome {
    let initial = initial
        .or_else(|| {
            crate::mcham::select_channel(
                &NodeReport {
                    map: scenario.combined_map(),
                    airtime: AirtimeVector::idle(),
                },
                &[],
            )
            .map(|(c, _)| c)
        })
        // lint:allow(unwrap, a scenario whose map admits no channel at all cannot be driven; documented precondition)
        .expect("scenario has no admissible channel");
    let mut net = build(scenario, initial, true, None);
    measure(scenario, &mut net)
}

/// The spectral keep-mask for a fixed run on `channel`: pair `k` is kept
/// iff its nodes can (transitively) influence the foreground AP/clients
/// through channel-span overlap × range — see [`whitefi_mac::interference`].
/// Sites mirror `build` exactly: every driver node uses the default
/// co-located geometry, the foreground on the candidate channel, each
/// pair on its own channel.
fn fixed_keep_mask(scenario: &Scenario, channel: WfChannel) -> Vec<bool> {
    let fg = 1 + scenario.client_maps.len();
    let mut sites: Vec<NodeSite> = Vec::with_capacity(fg + 2 * scenario.background.len());
    sites.resize(fg, NodeSite::on_channel(channel));
    for pair in &scenario.background {
        sites.push(NodeSite::on_channel(pair.channel)); // rx
        sites.push(NodeSite::on_channel(pair.channel)); // tx
    }
    let roots: Vec<usize> = (0..fg).collect();
    let keep = influence_closure(&sites, &roots);
    (0..scenario.background.len())
        .map(|k| keep[fg + 2 * k] || keep[fg + 2 * k + 1])
        .collect()
}

/// Runs the network pinned to `channel` (no adaptation, no disconnection
/// protocol) — the building block of the static baselines. Background
/// pairs that provably cannot deliver to, defer, or interfere with the
/// foreground on `channel` are pruned from the simulation; the outcome
/// is exactly equal to [`run_fixed_unpruned`] (the pruning differential
/// tests enforce this, DESIGN.md §9 states why it holds).
pub fn run_fixed(scenario: &Scenario, channel: WfChannel) -> ScenarioOutcome {
    let keep = fixed_keep_mask(scenario, channel);
    let mut net = build(scenario, channel, false, Some(&keep));
    measure(scenario, &mut net)
}

/// [`run_fixed`] without the spectral slicing: every background pair is
/// simulated. Reference implementation for the differential tests and
/// the `fixed_run_pruned_vs_full` bench.
pub fn run_fixed_unpruned(scenario: &Scenario, channel: WfChannel) -> ScenarioOutcome {
    let mut net = build(scenario, channel, false, None);
    measure(scenario, &mut net)
}

/// The four baselines of Figures 11–13.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticBaselines {
    /// Best static 5 MHz channel's aggregate goodput (Mbps).
    pub opt5: f64,
    /// Best static 10 MHz channel's aggregate goodput (Mbps).
    pub opt10: f64,
    /// Best static 20 MHz channel's aggregate goodput (Mbps).
    pub opt20: f64,
    /// The omniscient OPT: best over every admissible channel.
    pub opt: f64,
}

impl StaticBaselines {
    /// The candidate channels a [`StaticBaselines::measure`] sweep runs
    /// over: every admissible channel of the scenario's combined map.
    /// Exposed so experiment harnesses can fan the independent
    /// [`run_fixed`] calls across a worker pool and reduce with
    /// [`StaticBaselines::from_runs`].
    pub fn candidates(scenario: &Scenario) -> Vec<WfChannel> {
        scenario.combined_map().available_channels()
    }

    /// Reduces `(candidate, aggregate goodput)` pairs to the four
    /// baselines. The reduction is order-independent: a candidate wins
    /// its width slot on strictly higher goodput, and exact goodput ties
    /// break toward the lower channel position — so any enumeration
    /// order (or parallel completion order) of the same pairs yields the
    /// same result.
    pub fn from_runs(runs: impl IntoIterator<Item = (WfChannel, f64)>) -> Self {
        let mut best: [Option<(WfChannel, f64)>; 3] = [None; 3];
        for (cand, mbps) in runs {
            let slot = match cand.width() {
                Width::W5 => 0,
                Width::W10 => 1,
                Width::W20 => 2,
            };
            let wins = match best[slot] {
                None => true,
                Some((incumbent, b)) => {
                    mbps > b || (mbps == b && cand.low_index() < incumbent.low_index())
                }
            };
            if wins {
                best[slot] = Some((cand, mbps));
            }
        }
        let val = |s: usize| best[s].map(|(_, m)| m).unwrap_or(0.0);
        Self {
            opt5: val(0),
            opt10: val(1),
            opt20: val(2),
            opt: val(0).max(val(1)).max(val(2)),
        }
    }

    /// Sweeps every admissible channel of the combined map, running the
    /// fixed-channel network on each, and records the best aggregate
    /// goodput per width. "OPT is an ideal, omniscient algorithm that for
    /// every experiment run picks the channel with maximum throughput."
    pub fn measure(scenario: &Scenario) -> Self {
        Self::from_runs(
            Self::candidates(scenario)
                .into_iter()
                .map(|cand| (cand, run_fixed(scenario, cand).aggregate_mbps)),
        )
    }
}

/// Runs the scenario's *background traffic only* (no WhiteFi network) and
/// returns the airtime vector a scanner parked next to the AP would
/// measure over the trailing `window` — the MCham input for the
/// Figure 10 microbenchmark.
pub fn measure_airtime(scenario: &Scenario, window: SimDuration) -> AirtimeVector {
    let mut sim = Simulator::new(scenario.seed);
    for pair in &scenario.background {
        let rx = sim.add_node(NodeConfig::on_channel(pair.channel), Box::new(Sink));
        let tx_cfg = NodeConfig::on_channel(pair.channel).ap();
        match &pair.traffic {
            BackgroundTraffic::Cbr { interval } => {
                sim.add_node(tx_cfg, Box::new(CbrSender::new(rx, *interval)));
            }
            BackgroundTraffic::Markov {
                interval,
                mean_active,
                mean_passive,
            } => {
                sim.add_node(
                    tx_cfg,
                    Box::new(MarkovOnOffSender::new(
                        rx,
                        *interval,
                        *mean_active,
                        *mean_passive,
                    )),
                );
            }
            BackgroundTraffic::Scripted { interval, windows } => {
                sim.add_node(
                    tx_cfg,
                    Box::new(ScriptedCbrSender::new(rx, *interval, windows.clone())),
                );
            }
        }
    }
    let end = scenario.warmup + window;
    sim.run_until(SimTime::ZERO + end);
    let from = SimTime::ZERO + scenario.warmup;
    let to = SimTime::ZERO + end;
    AirtimeVector::from_fn(|ch: UhfChannel| {
        let busy = sim.medium().airtime_in_window(ch, from, to);
        let aps = sim.medium().ap_count_in_window(ch, from, to);
        ChannelLoad::new(busy, aps)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(mut s: Scenario) -> Scenario {
        s.duration = SimDuration::from_secs(2);
        s.warmup = SimDuration::from_secs(1);
        s
    }

    #[test]
    fn clean_spectrum_network_reaches_20mhz_goodput() {
        let s = quick(Scenario::new(1, SpectrumMap::all_free(), 2));
        let out = run_whitefi(&s, None);
        // Clean band: WhiteFi should sit on a 20 MHz channel and move
        // multiple Mbps of aggregate traffic.
        assert!(out.aggregate_mbps > 3.0, "aggregate {}", out.aggregate_mbps);
        assert_eq!(out.violations, 0);
        assert!(out.oracle.clean(), "oracle: {:?}", out.oracle.violations);
        assert!(out.oracle.checked_tx > 0, "oracles saw no member traffic");
        let last = out.samples.last().unwrap();
        assert_eq!(last.ap_channel.width(), Width::W20);
    }

    #[test]
    fn fixed_runs_stay_on_channel() {
        let s = quick(Scenario::new(2, SpectrumMap::all_free(), 1));
        let pin = WfChannel::from_parts(13, Width::W10);
        let out = run_fixed(&s, pin);
        assert!(out.samples.iter().all(|smp| smp.ap_channel == pin));
        assert!(out.aggregate_mbps > 1.0, "aggregate {}", out.aggregate_mbps);
    }

    #[test]
    fn per_client_split_roughly_fair() {
        let s = quick(Scenario::new(3, SpectrumMap::all_free(), 3));
        let out = run_whitefi(&s, None);
        let max = out.per_client_mbps.iter().cloned().fold(0.0, f64::max);
        let min = out.per_client_mbps.iter().cloned().fold(f64::MAX, f64::min);
        assert!(min > 0.0, "a client starved: {:?}", out.per_client_mbps);
        assert!(max / min < 3.0, "unfair: {:?}", out.per_client_mbps);
    }

    #[test]
    fn background_traffic_measured_in_airtime() {
        let mut s = quick(Scenario::new(4, SpectrumMap::all_free(), 0));
        let bg_ch = WfChannel::from_parts(7, Width::W5);
        s.background.push(BackgroundPair {
            channel: bg_ch,
            traffic: BackgroundTraffic::Cbr {
                interval: SimDuration::from_millis(10),
            },
        });
        let air = measure_airtime(&s, SimDuration::from_secs(2));
        let busy = air.load(UhfChannel::from_index(7)).busy;
        assert!(busy > 0.2, "busy {busy}");
        assert_eq!(air.load(UhfChannel::from_index(7)).aps, 1);
        assert_eq!(air.load(UhfChannel::from_index(20)).busy, 0.0);
    }

    /// A small scenario with background pairs spread across the band so
    /// a narrow candidate prunes most of them.
    fn pruned_scenario(seed: u64) -> Scenario {
        let mut s = quick(Scenario::new(seed, SpectrumMap::all_free(), 2));
        for (c, w) in [
            (3usize, Width::W5),
            (7, Width::W5),
            (12, Width::W10),
            (20, Width::W20),
            (26, Width::W5),
        ] {
            s.background.push(BackgroundPair {
                channel: WfChannel::from_parts(c, w),
                traffic: BackgroundTraffic::Cbr {
                    interval: SimDuration::from_millis(8),
                },
            });
        }
        s
    }

    #[test]
    fn pruned_fixed_run_equals_unpruned() {
        for seed in [11u64, 12] {
            let s = pruned_scenario(seed);
            for cand in [
                WfChannel::from_parts(3, Width::W5),   // shares a pair's channel
                WfChannel::from_parts(15, Width::W5),  // interacts with nothing
                WfChannel::from_parts(12, Width::W20), // spans several pairs
            ] {
                let keep = fixed_keep_mask(&s, cand);
                assert!(
                    keep.iter().any(|k| !k),
                    "candidate {cand} prunes nothing — test exercises no slicing"
                );
                let pruned = run_fixed(&s, cand);
                let full = run_fixed_unpruned(&s, cand);
                assert_eq!(pruned, full, "seed {seed} candidate {cand}");
            }
        }
    }

    #[test]
    fn keep_mask_spans_overlapping_pairs_only() {
        let s = pruned_scenario(1);
        // W5 at 3: only the pair on channel 3 overlaps.
        assert_eq!(
            fixed_keep_mask(&s, WfChannel::from_parts(3, Width::W5)),
            vec![true, false, false, false, false]
        );
        // W20 at 12 spans 10..=14: pairs on 12 (W10: 11..=13) and
        // 20 (W20: 18..=22) — only the first overlaps.
        assert_eq!(
            fixed_keep_mask(&s, WfChannel::from_parts(12, Width::W20)),
            vec![false, false, true, false, false]
        );
    }

    #[test]
    fn baselines_invariant_under_candidate_order() {
        let s = pruned_scenario(21);
        let runs: Vec<(WfChannel, f64)> = StaticBaselines::candidates(&s)
            .into_iter()
            .map(|cand| (cand, run_fixed(&s, cand).aggregate_mbps))
            .collect();
        let forward = StaticBaselines::from_runs(runs.iter().copied());
        let reversed = StaticBaselines::from_runs(runs.iter().rev().copied());
        assert_eq!(forward, reversed);
        // Interleaved order (odd indexes first) for good measure.
        let interleaved = StaticBaselines::from_runs(
            runs.iter()
                .skip(1)
                .step_by(2)
                .chain(runs.iter().step_by(2))
                .copied(),
        );
        assert_eq!(forward, interleaved);
        // And the sequential `measure` agrees with the reduction.
        assert_eq!(forward, StaticBaselines::measure(&s));
    }

    #[test]
    fn from_runs_breaks_exact_ties_toward_lower_channel() {
        let a = WfChannel::from_parts(5, Width::W5);
        let b = WfChannel::from_parts(9, Width::W5);
        let fwd = StaticBaselines::from_runs([(a, 1.5), (b, 1.5)]);
        let rev = StaticBaselines::from_runs([(b, 1.5), (a, 1.5)]);
        assert_eq!(fwd, rev);
        assert_eq!(fwd.opt5, 1.5);
    }

    #[test]
    fn whitefi_avoids_loaded_fragment() {
        // Heavy background on the low 20 MHz fragment: WhiteFi must end
        // up elsewhere.
        let map = SpectrumMap::all_free();
        let mut s = quick(Scenario::new(5, map, 1));
        for c in [2usize, 3, 4, 5, 6] {
            s.background.push(BackgroundPair {
                channel: WfChannel::from_parts(c, Width::W5),
                traffic: BackgroundTraffic::Cbr {
                    interval: SimDuration::from_millis(3),
                },
            });
        }
        s.duration = SimDuration::from_secs(4);
        let out = run_whitefi(&s, Some(WfChannel::from_parts(4, Width::W20)));
        let final_ch = out.samples.last().unwrap().ap_channel;
        assert!(
            final_ch.low_index() > 6,
            "still on the loaded fragment: {final_ch}"
        );
        assert_eq!(out.violations, 0);
        assert!(out.oracle.clean(), "oracle: {:?}", out.oracle.violations);
    }
}
