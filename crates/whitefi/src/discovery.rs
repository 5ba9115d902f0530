//! AP discovery: the non-SIFT baseline, L-SIFT, and J-SIFT (§4.2).
//!
//! A WhiteFi AP "may be using either a 5 MHz, 10 MHz, or 20 MHz channel
//! width … Given 30 UHF channels and 3 possible channel widths, there are
//! 84 combinations to consider" for a client that can only decode packets
//! sent at its own exact `(F, W)`. SIFT removes the need to try every
//! combination: one dwell on a single UHF channel detects any transmitter
//! whose band covers it *and* reveals the transmitter's width.
//!
//! Three algorithms, all generic over a [`ScanOracle`] so they run both
//! against the fast synthetic oracle (Figures 8 and 9 sweeps) and against
//! the full signal-level SIFT pipeline (integration tests):
//!
//! * [`baseline_discovery`] — tune to every admissible `(F, W)` and
//!   listen for a beacon (expected ≈ `NC·NW/2` dwells);
//! * [`l_sift_discovery`] — SIFT-scan the free UHF channels from low to
//!   high; the first hit pins the centre frequency exactly, because the
//!   first spanned channel scanned is the transmitter's lowest (expected
//!   ≈ `NC/2`);
//! * [`j_sift_discovery`] — Algorithm 1: staggered passes at stride 5,
//!   then 3, then 1 (skipping channels already scanned), followed by the
//!   centre-frequency "endgame" over the `F ± W/2` candidates (expected
//!   ≈ `(NC + 2^(NW−1) + (NW−1)/2) / NW`).
//!
//! All three retry from scratch if a pass completes without finding the
//! AP (SIFT false negatives "add delay … but the discovery algorithm will
//! continue to work as long as we can detect even a single packet").

use rand::Rng;
use whitefi_phy::{Burst, RawBurst, Sift, SimDuration, VisibleBurst, SAMPLE_NS};
use whitefi_spectrum::{SpectrumMap, UhfChannel, WfChannel, Width, NUM_UHF_CHANNELS};

/// A scanning front-end the discovery algorithms drive.
///
/// Both operations cost one dwell; discovery time is
/// `dwells × dwell_duration`.
pub trait ScanOracle {
    /// SIFT-dwell on one UHF channel: returns the width of a WhiteFi
    /// transmitter whose band covers `ch`, if one was detected.
    fn sift_scan(&mut self, ch: UhfChannel) -> Option<Width>;

    /// Tune the transceiver to `(F, W)` and listen for a decodable
    /// beacon: true iff an AP operates on exactly that channel (and the
    /// beacon was caught).
    fn decode_scan(&mut self, ch: WfChannel) -> bool;

    /// Duration of one dwell (long enough to catch one 100 ms-period
    /// beacon).
    fn dwell(&self) -> SimDuration;
}

/// Result of a discovery run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiscoveryOutcome {
    /// The AP's channel.
    pub found: WfChannel,
    /// Total dwells spent (SIFT scans + decode attempts).
    pub scans: u32,
    /// Total time spent (`scans × dwell`).
    pub time: SimDuration,
}

fn outcome(found: WfChannel, scans: u32, dwell: SimDuration) -> DiscoveryOutcome {
    DiscoveryOutcome {
        found,
        scans,
        time: dwell * scans as u64,
    }
}

/// Upper bound on retry passes before giving up (only reachable when the
/// oracle misses persistently or no AP exists).
const MAX_PASSES: u32 = 64;

/// Non-SIFT baseline: sequentially tune to every admissible `(F, W)`
/// combination and listen for a beacon.
pub fn baseline_discovery<O: ScanOracle>(
    oracle: &mut O,
    map: SpectrumMap,
) -> Option<DiscoveryOutcome> {
    let candidates = map.available_channels();
    if candidates.is_empty() {
        return None;
    }
    let mut scans = 0;
    for _ in 0..MAX_PASSES {
        for &cand in &candidates {
            scans += 1;
            if oracle.decode_scan(cand) {
                return Some(outcome(cand, scans, oracle.dwell()));
            }
        }
    }
    None
}

/// L-SIFT: scan free UHF channels from the lowest frequency up; the first
/// detection pins the centre exactly (`Fc = Fs + E`), leaving a single
/// decode to associate.
pub fn l_sift_discovery<O: ScanOracle>(
    oracle: &mut O,
    map: SpectrumMap,
) -> Option<DiscoveryOutcome> {
    let free: Vec<UhfChannel> = map.free_channels().collect();
    if free.is_empty() {
        return None;
    }
    let mut scans = 0;
    for _ in 0..MAX_PASSES {
        for &ch in &free {
            scans += 1;
            if let Some(width) = oracle.sift_scan(ch) {
                // Scanning upward, this is the transmitter's lowest
                // spanned channel: centre = scanned + half-span.
                let center = ch.index() + width.half_span();
                if let Some(cand) = UhfChannel::new(center).and_then(|u| WfChannel::new(u, width)) {
                    scans += 1;
                    if oracle.decode_scan(cand) {
                        return Some(outcome(cand, scans, oracle.dwell()));
                    }
                }
            }
        }
    }
    None
}

/// J-SIFT (Algorithm 1): staggered SIFT passes at stride 5, 3, then 1
/// over not-yet-scanned free channels, then the centre-frequency endgame
/// over the `F ± W/2` candidates admitted by the spectrum map.
pub fn j_sift_discovery<O: ScanOracle>(
    oracle: &mut O,
    map: SpectrumMap,
) -> Option<DiscoveryOutcome> {
    let mut machine = JSiftMachine::new(map);
    loop {
        match machine.current()? {
            ScanStep::Sift(ch) => {
                let found = oracle.sift_scan(ch);
                machine.on_sift_result(found);
            }
            ScanStep::Decode(cand) => {
                if machine.on_decode_result(oracle.decode_scan(cand)) {
                    return Some(outcome(cand, machine.scans(), oracle.dwell()));
                }
            }
        }
    }
}

/// The next dwell an incremental J-SIFT run should perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanStep {
    /// SIFT-dwell on this UHF channel.
    Sift(UhfChannel),
    /// Tune the transceiver to this candidate and listen for a beacon.
    Decode(WfChannel),
}

/// Incremental J-SIFT (Algorithm 1) as an explicit state machine: one
/// dwell per step, so it can run inside a live node (a client's scanner
/// performing one dwell per timer tick) as well as in the batch
/// [`j_sift_discovery`] wrapper.
#[derive(Debug, Clone)]
pub struct JSiftMachine {
    map: SpectrumMap,
    scanned: [bool; NUM_UHF_CHANNELS],
    width_idx: usize,
    cur: usize,
    endgame: Vec<WfChannel>,
    last_sift: Option<UhfChannel>,
    passes: u32,
    scans: u32,
}

impl JSiftMachine {
    /// A fresh run over `map`.
    pub fn new(map: SpectrumMap) -> Self {
        Self {
            map,
            scanned: [false; NUM_UHF_CHANNELS],
            width_idx: 0,
            cur: 0,
            endgame: Vec::new(),
            last_sift: None,
            passes: 0,
            scans: 0,
        }
    }

    /// Dwells performed so far.
    pub fn scans(&self) -> u32 {
        self.scans
    }

    /// The dwell to perform now. `None` when the map has no free channel
    /// or the retry budget is exhausted.
    pub fn current(&mut self) -> Option<ScanStep> {
        if let Some(&cand) = self.endgame.first() {
            self.scans += 1;
            return Some(ScanStep::Decode(cand));
        }
        loop {
            if self.width_idx >= Width::WIDEST_FIRST.len() {
                // Pass complete without success: restart (SIFT false
                // negatives only delay discovery).
                self.passes += 1;
                if self.passes >= MAX_PASSES || self.map.free_count() == 0 {
                    return None;
                }
                self.scanned = [false; NUM_UHF_CHANNELS];
                self.width_idx = 0;
                self.cur = 0;
            }
            let stride = Width::WIDEST_FIRST[self.width_idx].span();
            while self.cur < NUM_UHF_CHANNELS {
                let idx = self.cur;
                let ch = UhfChannel::from_index(idx);
                if !self.scanned[idx] && self.map.is_free(ch) {
                    // The caller must report this scan's outcome before
                    // asking for the next step; mark and emit.
                    self.scanned[idx] = true;
                    self.scans += 1;
                    self.cur += stride;
                    self.last_sift = Some(ch);
                    return Some(ScanStep::Sift(ch));
                }
                self.cur += stride;
            }
            self.width_idx += 1;
            self.cur = 0;
        }
    }

    /// Reports the outcome of the last [`ScanStep::Sift`] dwell.
    pub fn on_sift_result(&mut self, found: Option<Width>) {
        if let (Some(width), Some(ch)) = (found, self.last_sift.take()) {
            self.endgame = whitefi_phy::Scanner::candidate_centers(ch, width)
                .into_iter()
                .filter(|c| self.map.admits(*c))
                .collect();
        }
    }

    /// Reports the outcome of the last [`ScanStep::Decode`] dwell;
    /// returns `true` when the AP has been found (the decoded candidate
    /// is the AP's channel).
    pub fn on_decode_result(&mut self, success: bool) -> bool {
        if success {
            return true;
        }
        if !self.endgame.is_empty() {
            self.endgame.remove(0);
        }
        false
    }
}

/// Expected dwell count of the non-SIFT baseline over `nc` free channels
/// and `nw` widths: `nc·nw / 2`.
pub fn expected_scans_baseline(nc: usize, nw: usize) -> f64 {
    nc as f64 * nw as f64 / 2.0
}

/// Expected dwell count of L-SIFT: `nc / 2`.
pub fn expected_scans_l_sift(nc: usize) -> f64 {
    nc as f64 / 2.0
}

/// Expected dwell count of J-SIFT:
/// `(nc + 2^(nw−1) + (nw−1)/2) / nw` (§4.2.2; the derivation is elided in
/// the paper, but this form reproduces both stated consequences — ≈
/// `(NC + 4 + 1)/NW` for `NW = 3`, and the L-SIFT crossover at
/// `NC ≈ 10`).
// `nw` is the number of supported widths (3), so the usize→i32 cast for
// `powi` is exact.
#[allow(clippy::cast_possible_truncation)]
pub fn expected_scans_j_sift(nc: usize, nw: usize) -> f64 {
    (nc as f64 + 2f64.powi(nw as i32 - 1) + (nw as f64 - 1.0) / 2.0) / nw as f64
}

/// Burst-granularity SIFT matching for live in-simulation scans: finds a
/// data/ACK or beacon/CTS signature among scanner-visible bursts whose
/// band covers `scanned`, and returns the transmitter's width.
///
/// Each burst is quantized to SDR samples as the synthesizer clips it,
/// and each consecutive same-channel pair goes through
/// [`Sift::classify_pair`]: SIFT's own pair rule on the medium's burst
/// records. The sample-level path is exercised end-to-end in the
/// integration tests.
// Sample indices of simulated times fit `usize` on every supported
// (64-bit) target.
#[allow(clippy::cast_possible_truncation)]
pub fn sift_match_bursts(bursts: &[VisibleBurst], scanned: UhfChannel) -> Option<Width> {
    let raw = |b: &Burst| {
        let start = (b.start.as_nanos() / SAMPLE_NS) as usize;
        let end = ((b.start + b.duration).as_nanos() / SAMPLE_NS) as usize;
        RawBurst {
            start,
            len: end - start,
        }
    };
    let mut visible: Vec<&VisibleBurst> = bursts
        .iter()
        .filter(|vb| vb.channel.contains(scanned))
        .collect();
    visible.sort_by_key(|vb| vb.burst.start);
    let sift = Sift::default();
    visible
        .windows(2)
        .filter(|pair| pair[0].channel == pair[1].channel)
        .find_map(|pair| sift.classify_pair(raw(&pair[0].burst), raw(&pair[1].burst)))
        .map(|d| d.width)
}

/// A synthetic oracle for fast Monte-Carlo sweeps: one AP at a known
/// channel, optional per-dwell miss probability (SIFT false negatives in
/// noisy environments).
#[derive(Debug, Clone)]
pub struct SyntheticOracle<R: Rng> {
    /// The AP's true channel.
    pub ap: WfChannel,
    /// Probability that a dwell misses the AP even when visible.
    pub miss_prob: f64,
    /// Dwell duration (defaults to one beacon period, 100 ms).
    pub dwell: SimDuration,
    /// RNG for miss sampling.
    pub rng: R,
}

impl<R: Rng> SyntheticOracle<R> {
    /// An oracle with perfect detection and 100 ms dwells.
    pub fn new(ap: WfChannel, rng: R) -> Self {
        Self {
            ap,
            miss_prob: 0.0,
            dwell: SimDuration::from_millis(100),
            rng,
        }
    }

    fn missed(&mut self) -> bool {
        self.miss_prob > 0.0 && self.rng.gen_bool(self.miss_prob)
    }
}

impl<R: Rng> ScanOracle for SyntheticOracle<R> {
    fn sift_scan(&mut self, ch: UhfChannel) -> Option<Width> {
        if self.ap.contains(ch) && !self.missed() {
            Some(self.ap.width())
        } else {
            None
        }
    }

    fn decode_scan(&mut self, ch: WfChannel) -> bool {
        ch == self.ap && !self.missed()
    }

    fn dwell(&self) -> SimDuration {
        self.dwell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    /// Every admissible AP placement is found by all three algorithms.
    #[test]
    fn all_algorithms_find_every_placement() {
        let map = SpectrumMap::all_free();
        for ap in map.available_channels() {
            for algo in [
                baseline_discovery::<SyntheticOracle<ChaCha8Rng>>,
                l_sift_discovery,
                j_sift_discovery,
            ] {
                let mut o = SyntheticOracle::new(ap, rng(1));
                let r = algo(&mut o, map).unwrap_or_else(|| panic!("missed AP at {ap}"));
                assert_eq!(r.found, ap);
                assert!(r.scans >= 1);
                assert_eq!(r.time, o.dwell * r.scans as u64);
            }
        }
    }

    /// Same, over the fragmented Building-5 map.
    #[test]
    fn fragmented_map_placements_found() {
        let map = SpectrumMap::from_free([5, 6, 7, 8, 9, 12, 13, 14, 17, 26]);
        for ap in map.available_channels() {
            for algo in [
                baseline_discovery::<SyntheticOracle<ChaCha8Rng>>,
                l_sift_discovery,
                j_sift_discovery,
            ] {
                let mut o = SyntheticOracle::new(ap, rng(2));
                assert_eq!(algo(&mut o, map).unwrap().found, ap);
            }
        }
    }

    #[test]
    fn no_free_spectrum_returns_none() {
        let map = SpectrumMap::all_occupied();
        let mut o = SyntheticOracle::new(WfChannel::from_parts(5, Width::W5), rng(3));
        assert!(baseline_discovery(&mut o, map).is_none());
        assert!(l_sift_discovery(&mut o, map).is_none());
        assert!(j_sift_discovery(&mut o, map).is_none());
    }

    /// Monte-Carlo means land near the closed forms on the full band.
    #[test]
    fn expected_scan_counts_match_analysis() {
        let map = SpectrumMap::all_free();
        let placements = map.available_channels();
        let mean = |algo: fn(
            &mut SyntheticOracle<ChaCha8Rng>,
            SpectrumMap,
        ) -> Option<DiscoveryOutcome>| {
            let total: u32 = placements
                .iter()
                .map(|&ap| {
                    let mut o = SyntheticOracle::new(ap, rng(4));
                    algo(&mut o, map).unwrap().scans
                })
                .sum();
            total as f64 / placements.len() as f64
        };
        let b = mean(baseline_discovery);
        let l = mean(l_sift_discovery);
        let j = mean(j_sift_discovery);
        // Baseline ≈ 42; allow slack (position distribution is not quite
        // what the paper's uniform approximation assumes).
        assert!(
            (b - expected_scans_baseline(30, 3)).abs() < 8.0,
            "baseline {b}"
        );
        // L-SIFT ≈ 15 (+1 decode endgame per run).
        assert!((l - expected_scans_l_sift(30)).abs() < 3.0, "l-sift {l}");
        // J-SIFT ≈ 11.7 plus its endgame decodes.
        assert!((j - expected_scans_j_sift(30, 3)).abs() < 4.0, "j-sift {j}");
        // Ordering on a wide-open band: J < L < baseline.
        assert!(j < l && l < b, "j {j} l {l} b {b}");
    }

    /// The paper's crossover: L-SIFT wins on narrow white spaces, J-SIFT
    /// on spans above ~10 channels.
    #[test]
    fn l_vs_j_crossover_near_ten_channels() {
        let mean_for_fragment = |len: usize,
                                 algo: fn(
            &mut SyntheticOracle<ChaCha8Rng>,
            SpectrumMap,
        ) -> Option<DiscoveryOutcome>| {
            let mut map = SpectrumMap::all_occupied();
            for i in 0..len {
                map.set_free(UhfChannel::from_index(i));
            }
            let placements = map.available_channels();
            let total: u32 = placements
                .iter()
                .map(|&ap| {
                    let mut o = SyntheticOracle::new(ap, rng(5));
                    algo(&mut o, map).unwrap().scans
                })
                .sum();
            total as f64 / placements.len() as f64
        };
        // Narrow fragment (4 channels): L-SIFT at least as good.
        assert!(
            mean_for_fragment(4, l_sift_discovery) <= mean_for_fragment(4, j_sift_discovery) + 0.5
        );
        // Wide fragment (20 channels): J-SIFT clearly better.
        assert!(mean_for_fragment(20, j_sift_discovery) < mean_for_fragment(20, l_sift_discovery));
    }

    #[test]
    fn closed_forms() {
        assert_eq!(expected_scans_baseline(30, 3), 45.0);
        assert_eq!(expected_scans_l_sift(30), 15.0);
        let j = expected_scans_j_sift(30, 3);
        assert!((j - 35.0 / 3.0).abs() < 1e-12);
        // Crossover with L-SIFT at NC = 10.
        let nc = 10;
        assert!((expected_scans_l_sift(nc) - expected_scans_j_sift(nc, 3)).abs() < 1e-12);
    }

    /// False negatives only delay discovery; they never break it.
    #[test]
    fn misses_add_delay_but_not_failure() {
        let map = SpectrumMap::all_free();
        let ap = WfChannel::from_parts(17, Width::W10);
        let mut clean = SyntheticOracle::new(ap, rng(6));
        let base = j_sift_discovery(&mut clean, map).unwrap();
        let mut noisy = SyntheticOracle::new(ap, rng(6));
        noisy.miss_prob = 0.5;
        let slow = j_sift_discovery(&mut noisy, map).unwrap();
        assert_eq!(slow.found, ap);
        assert!(
            slow.scans >= base.scans,
            "noisy {} clean {}",
            slow.scans,
            base.scans
        );

        let mut noisy = SyntheticOracle::new(ap, rng(7));
        noisy.miss_prob = 0.5;
        let l = l_sift_discovery(&mut noisy, map).unwrap();
        assert_eq!(l.found, ap);
    }

    /// J-SIFT's first pass alone finds wide-channel APs in at most 6
    /// dwells plus the endgame on an open band.
    #[test]
    fn j_sift_finds_20mhz_fast() {
        let map = SpectrumMap::all_free();
        for c in 2..28 {
            let ap = WfChannel::from_parts(c, Width::W20);
            let mut o = SyntheticOracle::new(ap, rng(8));
            let r = j_sift_discovery(&mut o, map).unwrap();
            // ≤ 6 stride-5 dwells + ≤ 5 endgame decodes.
            assert!(r.scans <= 11, "AP {ap}: {} scans", r.scans);
        }
    }

    /// Live matching applies SIFT's pair rule: each width's data/ACK
    /// exchange is found at that width, and an ACK one SIFS behind a
    /// burst shorter than itself is no exchange.
    #[test]
    fn burst_matching_applies_the_sift_pair_rule() {
        use whitefi_phy::synth::data_ack_exchange;
        use whitefi_phy::{PhyTiming, SimTime};
        let scanned = UhfChannel::from_index(10);
        for width in Width::ALL {
            let channel = WfChannel::new(scanned, width).expect("fits the band");
            let seen = |bursts: [Burst; 2]| bursts.map(|burst| VisibleBurst { channel, burst });
            let [data, ack] = data_ack_exchange(SimTime::from_nanos(1_000_000), width, 1000, 1.0);
            assert_eq!(sift_match_bursts(&seen([data, ack]), scanned), Some(width));
            let t = PhyTiming::for_width(width);
            let short = Burst {
                duration: SimDuration::from_nanos(t.ack_duration().as_nanos() / 2),
                ..data
            };
            let ack = Burst {
                start: short.start + short.duration + t.sifs(),
                ..ack
            };
            assert_eq!(
                sift_match_bursts(&seen([short, ack]), scanned),
                None,
                "{width:?}"
            );
        }
    }
}
