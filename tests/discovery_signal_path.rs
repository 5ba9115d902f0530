//! Integration test of the *full* discovery signal path: a beaconing AP
//! in the MAC simulator, a scanner capturing real amplitude traces from
//! the medium, SIFT classifying them, and the J-SIFT/L-SIFT drivers
//! running on top — no synthetic oracle shortcuts.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use whitefi::{
    baseline_discovery, j_sift_discovery, l_sift_discovery, DiscoveryOutcome, ScanOracle,
};
use whitefi_mac::traffic::Sink;
use whitefi_mac::{NodeConfig, Simulator};
use whitefi_phy::{DetectionKind, Scanner, Sift, SimDuration, SimTime, StreamingSift};
use whitefi_spectrum::{SpectrumMap, UhfChannel, WfChannel, Width};

/// A scan oracle backed by the live simulator: each dwell advances the
/// simulation by one beacon period and runs SIFT over the scanner's
/// captured amplitude trace.
struct MediumOracle {
    sim: Simulator,
    scanner: Scanner,
    sift: Sift,
    dwell: SimDuration,
    rng: ChaCha8Rng,
    ap_channel: WfChannel,
}

impl MediumOracle {
    fn new(ap_channel: WfChannel, seed: u64) -> Self {
        let mut sim = Simulator::new(seed);
        // A beaconing AP: ApBehavior beacons every 100 ms and the engine
        // appends the CTS-to-self that gives SIFT its signature.
        let ap_cfg = whitefi::ApConfig::default();
        sim.add_node(
            NodeConfig::on_channel(ap_channel).ap(),
            Box::new(whitefi::ApBehavior::new(ap_cfg)),
        );
        // A passive peer, so the channel also carries nothing else.
        sim.add_node(NodeConfig::on_channel(ap_channel), Box::new(Sink));
        Self {
            sim,
            scanner: Scanner::new(),
            sift: Sift::default(),
            dwell: SimDuration::from_millis(120),
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0xd00d),
            ap_channel,
        }
    }

    /// Advances the simulation by one dwell and returns the window.
    fn advance(&mut self) -> (SimTime, SimTime) {
        let from = self.sim.now();
        let to = from + self.dwell;
        self.sim.run_until(to);
        (from, to)
    }
}

impl ScanOracle for MediumOracle {
    fn sift_scan(&mut self, ch: UhfChannel) -> Option<Width> {
        let (from, to) = self.advance();
        let on_air = self
            .sim
            .medium()
            .visible_bursts(from, to, None, |_, _, _| true);
        // Block-at-a-time, like the real USRP → PC path: the dwell's
        // trace is never materialized whole.
        let mut stream = self
            .scanner
            .capture_stream(ch, &on_air, from, self.dwell, &mut self.rng);
        let mut sift = StreamingSift::new(self.sift.config);
        let mut detections = Vec::new();
        while let Some(block) = stream.next_block() {
            detections.extend(sift.push_block(block));
        }
        detections.extend(sift.finish());
        detections
            .into_iter()
            .find(|d| d.kind == DetectionKind::BeaconCts || d.kind == DetectionKind::DataAck)
            .map(|d| d.width)
    }

    fn decode_scan(&mut self, ch: WfChannel) -> bool {
        let (from, to) = self.advance();
        // Decoding succeeds iff a beacon went out on exactly this channel
        // during the dwell (the transceiver is tuned to (F, W)).
        self.sim
            .medium()
            .visible_bursts(from, to, None, |_, _, _| true)
            .iter()
            .any(|vb| vb.channel == ch && matches!(vb.burst.kind, whitefi_phy::BurstKind::Beacon))
            && ch == self.ap_channel
    }

    fn dwell(&self) -> SimDuration {
        self.dwell
    }
}

fn check(ap: WfChannel, map: SpectrumMap, seed: u64) -> (DiscoveryOutcome, DiscoveryOutcome) {
    let mut oracle = MediumOracle::new(ap, seed);
    let j = j_sift_discovery(&mut oracle, map).expect("j-sift failed on live signal");
    assert_eq!(j.found, ap, "j-sift found the wrong channel");
    let mut oracle = MediumOracle::new(ap, seed + 1);
    let l = l_sift_discovery(&mut oracle, map).expect("l-sift failed on live signal");
    assert_eq!(l.found, ap, "l-sift found the wrong channel");
    (l, j)
}

#[test]
fn live_signal_discovery_every_width() {
    let map = SpectrumMap::all_free();
    for (i, ap) in [
        WfChannel::from_parts(4, Width::W5),
        WfChannel::from_parts(14, Width::W10),
        WfChannel::from_parts(24, Width::W20),
    ]
    .into_iter()
    .enumerate()
    {
        let (l, j) = check(ap, map, 42 + i as u64);
        assert!(l.scans >= 1 && j.scans >= 1);
    }
}

#[test]
fn live_signal_discovery_fragmented_map() {
    let map = SpectrumMap::from_free([5, 6, 7, 8, 9, 12, 13, 14, 17, 26]);
    let ap = WfChannel::from_parts(7, Width::W20);
    let (l, j) = check(ap, map, 99);
    // On the 10-free-channel building map both SIFT algorithms need at
    // most ~the number of free channels plus the endgame.
    assert!(l.scans <= 12, "l-sift {} scans", l.scans);
    assert!(j.scans <= 12, "j-sift {} scans", j.scans);
}

#[test]
fn live_signal_baseline_agrees() {
    let map = SpectrumMap::from_free([5, 6, 7, 8, 9]);
    let ap = WfChannel::from_parts(6, Width::W10);
    let mut oracle = MediumOracle::new(ap, 7);
    let b = baseline_discovery(&mut oracle, map).expect("baseline failed");
    assert_eq!(b.found, ap);
}

#[test]
fn scanner_sees_beacon_cts_signature_on_spanned_channel() {
    // Direct check of the §4.2.1 mechanism: dwell on a non-centre spanned
    // channel, detect the beacon+CTS pair, infer the width.
    let ap = WfChannel::from_parts(15, Width::W20);
    let mut oracle = MediumOracle::new(ap, 5);
    let width = oracle.sift_scan(UhfChannel::from_index(13));
    assert_eq!(width, Some(Width::W20));
    // A channel outside the span sees nothing.
    let mut oracle = MediumOracle::new(ap, 6);
    assert_eq!(oracle.sift_scan(UhfChannel::from_index(20)), None);
}
