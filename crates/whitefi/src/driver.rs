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
//! * [`StaticBaselines::measure`] — sweeps the admissible channels (one
//!   run standing for each width's channels no background pair or
//!   extra incumbent touches) to produce all four baselines of
//!   Figures 11–13;
//! * [`measure_airtime`] — a background-only run that yields the airtime
//!   vector a WhiteFi scanner would measure (the Figure 10
//!   microbenchmark's MCham input).
//!
//! Every node gets an explicit RNG stream id derived from its *role*
//! (AP, i-th client, k-th background pair), not its insertion order, so
//! a pruned build draws exactly the random sequences the unpruned build
//! would — the foundation of the pruned == unpruned equality contract.

use crate::bss::{add_bss, measure, rounds, BssSpec};
use crate::mcham::NodeReport;
use crate::oracles::{OracleReport, OracleSet};
use whitefi_mac::traffic::Sink;
use whitefi_mac::{
    shard_components, Behavior, CbrSender, FaultPlan, MarkovOnOffSender, NodeConfig,
    ScriptedCbrSender, ShardSite, Simulator,
};
use whitefi_phy::{SimDuration, SimTime};
use whitefi_spectrum::{
    AirtimeVector, ChannelLoad, IncumbentSet, SpectrumMap, UhfChannel, WfChannel, Width,
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
            faults: None,
        }
    }

    /// The union of the AP's and all clients' static maps — the candidate
    /// universe of the assignment algorithm.
    pub fn combined_map(&self) -> SpectrumMap {
        SpectrumMap::union_all(std::iter::once(self.ap_map).chain(self.client_maps.iter().copied()))
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

/// Builds and measures the network: one BSS at node base 0, SSID 1, on
/// the default co-located site (the city's cell 0), plus the background
/// pairs. `keep_background` (`None` = keep all) is a mask over the
/// scenario's background pairs; skipped pairs are not added to the
/// simulation at all. RNG stream ids are assigned by role — AP `0`,
/// client `i` `1 + i`, pair `k` `FG + 2k` (rx) / `FG + 2k + 1` (tx) with
/// `FG = 1 + n_clients` — so they are invariant under pruning.
fn run(
    scenario: &Scenario,
    initial: WfChannel,
    adaptive: bool,
    keep_background: Option<&[bool]>,
) -> ScenarioOutcome {
    let mut sim = Simulator::new(scenario.seed);
    if !adaptive {
        // Fixed-channel runs issue no scanner queries (SCAN/BACKUP_SCAN
        // timers are disabled in `add_bss`), so the only history consumer
        // left is the debug-build reference scan of each delivery's
        // interferers, which never looks back further than one frame
        // duration (≲ 8 ms at W5). 300 ms keeps a wide margin while
        // making trace retention pay-as-you-go.
        sim.medium_mut().history_horizon = SimDuration::from_millis(300);
    }
    // The fault plan must be installed before any node registers (each
    // node's fault RNG stream is drawn at registration) and may itself
    // skew the history horizon, adversarially overriding the above.
    if let Some(plan) = &scenario.faults {
        sim.set_fault_plan(plan.clone());
    }
    let oracles = OracleSet::new();
    let client_envs = scenario.client_maps.iter().enumerate().map(|(i, &map)| {
        let extra = scenario.client_extra_incumbents.get(i);
        (map, extra.and_then(Option::as_ref))
    });
    let bss = add_bss(
        &mut sim,
        &oracles,
        BssSpec {
            downlink_bytes: scenario.downlink_bytes,
            uplink_bytes: scenario.uplink_bytes,
            ap_env: (scenario.ap_map, scenario.ap_extra_incumbents.as_ref()),
            client_envs: client_envs.collect(),
            base: 0,
            ssid: 1,
            initial,
            site: WfChannel::all().fold(co_located(initial), ShardSite::add_channel),
            adaptive,
        },
    );

    let fg = 1 + scenario.client_maps.len() as u64;
    for (k, pair) in scenario.background.iter().enumerate() {
        if keep_background.is_none_or(|mask| mask[k]) {
            add_background_pair(&mut sim, pair, fg + 2 * k as u64, fg + 2 * k as u64 + 1);
        }
    }

    sim.set_observer(oracles.observer());
    let rounds = rounds(scenario.warmup, scenario.duration, scenario.sample_interval);
    measure(&mut sim, &[bss], &rounds, scenario.duration).swap_remove(0)
}

/// Adds one background pair — a sink and a sender of the pair's traffic
/// shape on its channel — with the given RNG stream ids.
fn add_background_pair(sim: &mut Simulator, pair: &BackgroundPair, rx_stream: u64, tx_stream: u64) {
    let rx_cfg = NodeConfig::on_channel(pair.channel).rng_stream(rx_stream); // stream-map: domain=sim-nodes salt=scenario-seed streams=0..=4294967295 role="background pair rx (fg + 2*pair; 2*pair in measure_airtime)"
    let rx = sim.add_node(rx_cfg, Box::new(Sink));
    let tx_cfg = NodeConfig::on_channel(pair.channel)
        .ap()
        .rng_stream(tx_stream); // stream-map: domain=sim-nodes salt=scenario-seed streams=1..=4294967295 role="background pair tx (fg + 2*pair + 1; 2*pair + 1 in measure_airtime)"
    let tx: Box<dyn Behavior> = match &pair.traffic {
        BackgroundTraffic::Cbr { interval } => Box::new(CbrSender::new(rx, *interval)),
        BackgroundTraffic::Markov {
            interval,
            mean_active,
            mean_passive,
        } => Box::new(MarkovOnOffSender::new(
            rx,
            *interval,
            *mean_active,
            *mean_passive,
        )),
        BackgroundTraffic::Scripted { interval, windows } => {
            Box::new(ScriptedCbrSender::new(rx, *interval, windows.clone()))
        }
    };
    sim.add_node(tx_cfg, tx);
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
    run(scenario, initial, true, None)
}

/// The site of a node on `channel` at [`NodeConfig::on_channel`]'s
/// default geometry, which every driver node uses (they are co-located).
fn co_located(channel: WfChannel) -> ShardSite {
    let NodeConfig { pos, range, .. } = NodeConfig::on_channel(channel);
    ShardSite::new(pos, range).add_channel(channel)
}

/// The spectral keep-mask for a fixed run on `channel`: pair `k` is kept
/// iff it lies in the foreground's component of the interference graph
/// ([`whitefi_mac::shard_components`]). Sites mirror `run`: one for the
/// foreground with the candidate's span, one per pair with its own (a
/// pair's sink and sender share a channel and a place, so they share
/// a site).
fn fixed_keep_mask(scenario: &Scenario, channel: WfChannel) -> Vec<bool> {
    let channels = std::iter::once(channel).chain(scenario.background.iter().map(|p| p.channel));
    let sites: Vec<ShardSite> = channels.map(co_located).collect();
    let labels = shard_components(&sites);
    labels[1..].iter().map(|&l| l == labels[0]).collect()
}

/// Runs the network pinned to `channel` (no adaptation, no disconnection
/// protocol) — the building block of the static baselines. Background
/// pairs that provably cannot deliver to, defer, or interfere with the
/// foreground on `channel` are pruned from the simulation; the outcome
/// is exactly equal to the unpruned run that simulates every pair (the
/// pruning differential tests enforce this, DESIGN.md §9 states why it
/// holds).
pub fn run_fixed(scenario: &Scenario, channel: WfChannel) -> ScenarioOutcome {
    run(
        scenario,
        channel,
        false,
        Some(&fixed_keep_mask(scenario, channel)),
    )
}

/// The UHF channels some background pair spans or some AP/client extra
/// incumbent (TV station or mic) sits on, as a bitmask in the layout of
/// [`WfChannel::footprint`]. A fixed run on a candidate whose footprint
/// misses this mask keeps no background pair and sees no incumbent
/// change on its span.
fn touched_footprint(scenario: &Scenario) -> u32 {
    let pairs = scenario.background.iter().map(|p| p.channel.footprint());
    let incumbents = std::iter::once(&scenario.ap_extra_incumbents)
        .chain(&scenario.client_extra_incumbents)
        .flatten()
        .flat_map(|set| {
            let tv = set.tv.iter().map(|t| t.channel);
            tv.chain(set.mics.iter().map(|m| m.channel))
        })
        .map(|u| 1u32 << u.index());
    pairs.chain(incumbents).fold(0, |acc, bits| acc | bits)
}

/// [`StaticBaselines`]' per-width slot: 5, 10, 20 MHz.
fn width_slot(width: Width) -> usize {
    match width {
        Width::W5 => 0,
        Width::W10 => 1,
        Width::W20 => 2,
    }
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
    /// over: every admissible channel of the scenario's combined map that
    /// a background pair's span or an extra incumbent's channel touches,
    /// plus the lowest untouched channel of each width. The untouched
    /// channels of one width all run the same foreground-only network,
    /// so they share one goodput and the lowest stands for the rest
    /// (DESIGN.md §9, "Equivalent empty candidates"). Exposed so
    /// experiment harnesses can fan the independent [`run_fixed`] calls
    /// across a worker pool and reduce with [`StaticBaselines::from_runs`].
    pub fn candidates(scenario: &Scenario) -> Vec<WfChannel> {
        let touched = touched_footprint(scenario);
        // `available_channels` ascends within each width, so the first
        // untouched channel seen per width is the lowest.
        let mut empty_seen = [false; 3];
        scenario
            .combined_map()
            .available_channels()
            .into_iter()
            .filter(|c| {
                c.footprint() & touched != 0
                    || !std::mem::replace(&mut empty_seen[width_slot(c.width())], true)
            })
            .collect()
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
            let slot = width_slot(cand.width());
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

    /// Runs the fixed-channel network on each of the scenario's
    /// [`StaticBaselines::candidates`] and records the best aggregate
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
    for (k, pair) in (0u64..).zip(&scenario.background) {
        add_background_pair(&mut sim, pair, 2 * k, 2 * k + 1);
    }
    let end = scenario.warmup + window;
    sim.run_until(SimTime::ZERO + end);
    let from = SimTime::ZERO + scenario.warmup;
    let to = SimTime::ZERO + end;
    AirtimeVector::from_fn(|ch: UhfChannel| {
        let busy = sim.medium().airtime_in_window(ch, from, to, None, None);
        let aps = sim.medium().ap_count_in_window(ch, from, to, None, None);
        ChannelLoad::new(busy, aps)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use whitefi_spectrum::{MicActivity, MicSchedule, WirelessMic};

    /// [`run_fixed`] without the spectral slicing: every background pair
    /// is simulated. Reference implementation for the pruning
    /// differential tests.
    fn run_fixed_unpruned(scenario: &Scenario, channel: WfChannel) -> ScenarioOutcome {
        run(scenario, channel, false, None)
    }

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

    /// Pair B shares no UHF channel with the candidate but overlaps pair
    /// A, which does: B can defer A, which defers the foreground, so the
    /// mask keeps it through A. Pair C touches neither and is dropped.
    #[test]
    fn keep_mask_keeps_pairs_reached_through_another_pair() {
        let mut s = quick(Scenario::new(31, SpectrumMap::all_free(), 2));
        for (c, w) in [(6usize, Width::W10), (7, Width::W5), (20, Width::W5)] {
            s.background.push(BackgroundPair {
                channel: WfChannel::from_parts(c, w),
                traffic: BackgroundTraffic::Cbr {
                    interval: SimDuration::from_millis(4),
                },
            });
        }
        // W5 at 5 spans 5; A (W10 at 6) spans 5..=7; B (W5 at 7) spans 7.
        let cand = WfChannel::from_parts(5, Width::W5);
        assert!(!cand.overlaps(s.background[1].channel));
        assert_eq!(fixed_keep_mask(&s, cand), vec![true, true, false]);
        assert_eq!(run_fixed(&s, cand), run_fixed_unpruned(&s, cand));
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

    /// The §5.4.1 campus map: 17 free UHF channels, 26 admissible
    /// channels.
    fn campus() -> SpectrumMap {
        SpectrumMap::from_free([2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 16, 17, 18, 21, 24, 27, 28])
    }

    /// A short campus scenario with one 5 MHz pair of `traffic` on each
    /// of the given UHF channels.
    fn campus_pairs(seed: u64, channels: &[usize], traffic: BackgroundTraffic) -> Scenario {
        let mut s = Scenario::new(seed, campus(), 3);
        s.warmup = SimDuration::from_millis(500);
        s.duration = SimDuration::from_secs(1);
        for &c in channels {
            s.background.push(BackgroundPair {
                channel: WfChannel::from_parts(c, Width::W5),
                traffic: traffic.clone(),
            });
        }
        s
    }

    fn cbr() -> BackgroundTraffic {
        BackgroundTraffic::Cbr {
            interval: SimDuration::from_millis(30),
        }
    }

    /// Label-free bits of an outcome: everything but the channel labels
    /// (`samples[].ap_channel` and `oracle.trace_digest`).
    type Unlabelled = (u64, Vec<u64>, Vec<(SimTime, u64)>, u64, u64, usize, u64);

    fn unlabelled(out: &ScenarioOutcome) -> Unlabelled {
        (
            out.aggregate_mbps.to_bits(),
            out.per_client_mbps.iter().map(|x| x.to_bits()).collect(),
            out.samples
                .iter()
                .map(|smp| (smp.t, smp.bytes_delta))
                .collect(),
            out.violations,
            out.oracle.checked_tx,
            out.oracle.violations.len(),
            out.oracle.explained_liveness,
        )
    }

    /// The exhaustive sweep as the differential reference: runs every
    /// admissible channel and asserts that each channel `candidates`
    /// omits is untouched and runs exactly like the kept untouched
    /// channel of its width, and that the baselines over all admissible
    /// channels equal the baselines over `candidates`. Returns the
    /// number of omitted channels.
    fn assert_collapse_exact(s: &Scenario, what: &str) -> usize {
        let all = s.combined_map().available_channels();
        let kept = StaticBaselines::candidates(s);
        let touched = touched_footprint(s);
        let outs: Vec<ScenarioOutcome> = all.iter().map(|&c| run_fixed(s, c)).collect();
        let out_of = |c: WfChannel| &outs[all.iter().position(|&a| a == c).unwrap()];
        let mut omitted = 0;
        for &c in all.iter().filter(|c| !kept.contains(c)) {
            omitted += 1;
            assert_eq!(c.footprint() & touched, 0, "{what}: touched {c} omitted");
            let reps: Vec<WfChannel> = kept
                .iter()
                .copied()
                .filter(|r| r.width() == c.width() && r.footprint() & touched == 0)
                .collect();
            assert_eq!(reps.len(), 1, "{what}: {c} has representatives {reps:?}");
            assert!(reps[0] < c, "{what}: {} is not the lowest", reps[0]);
            assert_eq!(
                unlabelled(out_of(c)),
                unlabelled(out_of(reps[0])),
                "{what}: {c} differs from its representative {}",
                reps[0]
            );
        }
        let exhaustive =
            StaticBaselines::from_runs(all.iter().map(|&c| (c, out_of(c).aggregate_mbps)));
        let collapsed =
            StaticBaselines::from_runs(kept.iter().map(|&c| (c, out_of(c).aggregate_mbps)));
        assert_eq!(exhaustive, collapsed, "{what}");
        omitted
    }

    #[test]
    fn collapsed_candidates_match_exhaustive_sweep_under_cbr() {
        // Figure 11's shape: 5 MHz CBR pairs on a few free channels.
        let s = campus_pairs(31, &[3, 11, 27], cbr());
        assert_eq!(StaticBaselines::candidates(&s).len(), 11);
        assert_eq!(assert_collapse_exact(&s, "cbr"), 15);
    }

    #[test]
    fn collapsed_candidates_match_exhaustive_sweep_under_markov_churn() {
        // Figure 13's shape: on/off Markov pairs.
        let traffic = BackgroundTraffic::Markov {
            interval: SimDuration::from_millis(20),
            mean_active: SimDuration::from_millis(300),
            mean_passive: SimDuration::from_millis(200),
        };
        let s = campus_pairs(32, &[5, 17], traffic);
        assert!(assert_collapse_exact(&s, "markov") > 0);
    }

    #[test]
    fn collapsed_candidates_match_exhaustive_sweep_under_scripted_windows() {
        // Figure 14's shape: CBR inside scripted windows.
        let traffic = BackgroundTraffic::Scripted {
            interval: SimDuration::from_millis(10),
            windows: vec![(
                SimTime::ZERO + SimDuration::from_millis(600),
                SimTime::ZERO + SimDuration::from_millis(1100),
            )],
        };
        let s = campus_pairs(33, &[12, 24], traffic);
        assert!(assert_collapse_exact(&s, "scripted") > 0);
    }

    #[test]
    fn collapsed_candidates_match_exhaustive_sweep_with_differing_client_maps() {
        // Figure 12's shape: each client sees a perturbed campus map.
        let mut s = campus_pairs(34, &[4], cbr());
        for (i, map) in s.client_maps.iter_mut().enumerate() {
            map.flip(UhfChannel::from_index([13, 28, 0][i]));
        }
        assert_ne!(s.combined_map(), campus());
        assert!(assert_collapse_exact(&s, "client maps") > 0);
    }

    #[test]
    fn collapsed_candidates_match_exhaustive_sweep_with_an_ap_mic() {
        // A mic on UHF 17 switches on mid-run: every channel spanning 17
        // is touched and kept; the rest still collapse.
        let mut s = campus_pairs(35, &[6], cbr());
        let on = SimTime::ZERO + SimDuration::from_millis(900);
        s.ap_extra_incumbents = Some(IncumbentSet {
            tv: Vec::new(),
            mics: vec![WirelessMic::new(
                UhfChannel::from_index(17),
                MicSchedule::scripted(vec![MicActivity {
                    start: on.as_nanos(),
                    end: (on + SimDuration::from_secs(10)).as_nanos(),
                }]),
            )],
        });
        let kept = StaticBaselines::candidates(&s);
        for c in s.combined_map().available_channels() {
            if c.contains(UhfChannel::from_index(17)) {
                assert!(kept.contains(&c), "mic-spanning {c} omitted");
            }
        }
        assert!(assert_collapse_exact(&s, "ap mic") > 0);
    }

    #[test]
    fn collapsed_candidates_match_exhaustive_sweep_under_a_lossy_fault_plan() {
        let mut s = campus_pairs(36, &[10, 21], cbr());
        s.faults = Some(FaultPlan {
            drop_prob: 0.1,
            dup_prob: 0.1,
            delay_prob: 0.1,
            max_delay: SimDuration::from_millis(2),
            max_detection_extra: SimDuration::from_millis(50),
            history_skew: Some(SimDuration::from_secs(1)),
            ..FaultPlan::quiet(7)
        });
        assert!(assert_collapse_exact(&s, "faults") > 0);
    }

    #[test]
    fn collapsed_candidates_match_exhaustive_sweep_on_the_all_free_map() {
        // No pairs, no incumbents: 84 admissible channels, one run per
        // width.
        let mut s = Scenario::new(37, SpectrumMap::all_free(), 2);
        s.warmup = SimDuration::from_millis(300);
        s.duration = SimDuration::from_millis(600);
        assert_eq!(s.combined_map().available_channels().len(), 84);
        assert_eq!(
            StaticBaselines::candidates(&s),
            vec![
                WfChannel::from_parts(0, Width::W5),
                WfChannel::from_parts(1, Width::W10),
                WfChannel::from_parts(2, Width::W20),
            ]
        );
        assert_eq!(assert_collapse_exact(&s, "all free"), 81);
    }

    #[test]
    fn untouched_candidate_keeps_no_background_pair() {
        use rand::{Rng, SeedableRng};
        for case in 0..64u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(case);
            let mut s = Scenario::new(case, SpectrumMap::all_free(), rng.gen_range(0..4));
            for _ in 0..rng.gen_range(0..6) {
                let w = Width::ALL[rng.gen_range(0..3)];
                let h = w.half_span();
                s.background.push(BackgroundPair {
                    channel: WfChannel::from_parts(rng.gen_range(h..30 - h), w),
                    traffic: cbr(),
                });
            }
            let touched = touched_footprint(&s);
            for c in WfChannel::all().filter(|c| c.footprint() & touched == 0) {
                assert!(
                    fixed_keep_mask(&s, c).iter().all(|&k| !k),
                    "case {case}: untouched {c} keeps a pair of {:?}",
                    s.background
                );
            }
        }
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
