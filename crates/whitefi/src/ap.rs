//! The WhiteFi access-point state machine.
//!
//! The AP runs the full §4.1 loop:
//!
//! * beacons every 100 ms, advertising the 5 MHz backup channel;
//! * measures per-UHF-channel airtime with the scanning radio
//!   (round-robin, one channel per dwell);
//! * collects client reports, and periodically re-evaluates the spectrum
//!   assignment with the MCham objective plus hysteresis (voluntary
//!   switches), announcing the move with `SwitchAnnounce` broadcasts on
//!   the old channel before retuning;
//! * vacates immediately when an incumbent appears on the main channel —
//!   an involuntary switch (§4.3): it retunes to the backup channel
//!   without transmitting anything further on the incumbent's channel,
//!   chirps there, collects the chirped spectrum maps, reassigns, and
//!   announces on the backup channel;
//! * scans the backup channel for client chirps every
//!   `BACKUP_SCAN_INTERVAL` (3 s, as in the paper's §5.3 experiment) using
//!   SIFT burst-length matching on the scanner's view — only when a chirp
//!   is detected does the main radio visit the backup channel.

use crate::assignment::{clears_hysteresis, Assigner, Decision};
use crate::chirp::{choose_backup, choose_secondary_backup, ChirpDetector};
use crate::mcham::{objective_score, NodeReport, Objective};
use whitefi_mac::{Behavior, Ctx, Frame, FrameKind, NodeId};
use whitefi_phy::synth::duration_to_samples;
use whitefi_phy::{SimDuration, SimTime};
use whitefi_spectrum::{AirtimeVector, ChannelLoad, SpectrumMap, UhfChannel, WfChannel, Width};

/// Timer keys.
mod keys {
    pub const BEACON: u64 = 1;
    pub const SCAN: u64 = 2;
    pub const REASSESS: u64 = 3;
    pub const BACKUP_SCAN: u64 = 4;
    pub const BACKUP_DONE: u64 = 5;
    pub const SWITCH_FALLBACK: u64 = 6;
    pub const AP_CHIRP: u64 = 7;
    pub const PUMP: u64 = 8;
}

/// Beacon period (100 ms, as in Wi-Fi).
const BEACON_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// Scanner dwell per UHF channel for airtime measurement, at the AP and
/// at every client.
pub(crate) const SCAN_DWELL: SimDuration = SimDuration::from_millis(200);
/// Interval between voluntary re-evaluations of the assignment.
const REASSESS_INTERVAL: SimDuration = SimDuration::from_secs(2);
/// Interval between SIFT scans of the backup channel for chirps ("the
/// AP switched to the backup channel once every 3 seconds", §5.3).
const BACKUP_SCAN_INTERVAL: SimDuration = SimDuration::from_secs(3);
/// Time spent on the backup channel collecting chirped maps (the
/// threshold interval `T_c` of §4.3).
const CHIRP_COLLECT: SimDuration = SimDuration::from_millis(300);

// Every backup excursion must end before the watchdog of a client left
// on the main channel fires, or each one would knock connected clients
// into disconnection.
const _: () = assert!(CHIRP_COLLECT.as_nanos() < crate::client::DISCONNECT_TIMEOUT.as_nanos());

/// AP configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ApConfig {
    /// When `false`, the AP never changes channel (the OPT-x baselines).
    pub adaptive: bool,
    /// Payload bytes per frame of backlogged round-robin downlink
    /// traffic to all associated clients; `None` disables downlink.
    pub downlink_bytes: Option<usize>,
    /// Network security key: chirp payloads are processed "only if …
    /// encoded with the network's security key" (§4.3). Fake chirps
    /// still cost the brief main-radio visit to the backup channel.
    pub key: u32,
}

impl Default for ApConfig {
    fn default() -> Self {
        Self {
            adaptive: true,
            downlink_bytes: None,
            key: 0,
        }
    }
}

impl ApConfig {
    /// Enables backlogged downlink traffic to all associated clients.
    pub fn saturating_downlink(mut self, bytes: usize) -> Self {
        self.downlink_bytes = Some(bytes);
        self
    }

    /// Pins the AP to its initial channel (baseline mode).
    pub fn fixed(mut self) -> Self {
        self.adaptive = false;
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Normal operation on the main channel.
    Main,
    /// Announcing a voluntary switch on the old main channel.
    SwitchingFromMain {
        target: WfChannel,
        announces_left: u8,
    },
    /// On the backup channel collecting chirps.
    OnBackup,
    /// Announcing the post-disconnection assignment on the backup channel.
    SwitchingFromBackup {
        target: WfChannel,
        announces_left: u8,
    },
}

/// SIFT burst-length matching: whether a burst of this width and
/// on-air duration is a chirp of some slot (±4 samples).
fn is_chirp(width: Width, duration: SimDuration) -> bool {
    let tol = 4.0;
    width == Width::W5 && {
        let len = duration_to_samples(duration);
        (0u8..=15).any(|s| (len - ChirpDetector::expected_samples(s)).abs() <= tol)
    }
}

/// The AP behaviour.
#[derive(Debug)]
pub struct ApBehavior {
    cfg: ApConfig,
    assigner: Assigner,
    mode: Mode,
    backup: Option<WfChannel>,
    clients: Vec<NodeId>,
    reports: Vec<(NodeId, NodeReport)>,
    chirp_maps: Vec<SpectrumMap>,
    airtime: AirtimeVector,
    scan_cursor: usize,
    bytes_acked_since_eval: u64,
    last_eval: SimTime,
    rr_cursor: usize,
    /// Chirps older than this are already handled; the backup scan only
    /// reacts to newer ones (otherwise the trailing scanner window keeps
    /// re-triggering on the chirps of an already-completed recovery).
    chirp_scan_floor: SimTime,
    /// Channel-switch history `(time, channel)` (observable for tests and
    /// the Figure 14 timeline).
    pub switch_log: Vec<(SimTime, WfChannel)>,
}

impl ApBehavior {
    /// An AP with the given configuration.
    pub fn new(cfg: ApConfig) -> Self {
        Self {
            assigner: Assigner::new(),
            cfg,
            mode: Mode::Main,
            backup: None,
            clients: Vec::new(),
            reports: Vec::new(),
            chirp_maps: Vec::new(),
            airtime: AirtimeVector::idle(),
            scan_cursor: 0,
            bytes_acked_since_eval: 0,
            last_eval: SimTime::ZERO,
            rr_cursor: 0,
            chirp_scan_floor: SimTime::ZERO,
            switch_log: Vec::new(),
        }
    }

    fn own_report(&self, ctx: &Ctx) -> NodeReport {
        NodeReport {
            map: ctx.spectrum_map(),
            airtime: self.airtime,
        }
    }

    fn client_reports(&self) -> Vec<NodeReport> {
        self.reports.iter().map(|(_, r)| *r).collect()
    }

    fn combined_map(&self, ctx: &Ctx) -> SpectrumMap {
        SpectrumMap::union_all(
            std::iter::once(ctx.spectrum_map()).chain(self.reports.iter().map(|(_, r)| r.map)),
        )
    }

    fn refresh_backup(&mut self, ctx: &Ctx) {
        let map = self.combined_map(ctx);
        self.backup = choose_backup(map, self.assigner.current());
    }

    fn pump_downlink(&mut self, ctx: &mut Ctx) {
        if !matches!(self.mode, Mode::Main) {
            return;
        }
        let Some(bytes) = self.cfg.downlink_bytes else {
            return;
        };
        if !self.clients.is_empty() {
            while ctx.queue_len() < 2 {
                let dst = self.clients[self.rr_cursor % self.clients.len()];
                self.rr_cursor += 1;
                ctx.send(Frame::data(ctx.id(), dst, bytes));
            }
        }
    }

    fn announce(&mut self, target: WfChannel, ctx: &mut Ctx) {
        ctx.send_front(Frame {
            src: ctx.id(),
            dst: None,
            kind: FrameKind::SwitchAnnounce { target },
        });
    }

    fn complete_switch(&mut self, target: WfChannel, ctx: &mut Ctx) {
        // The target was selected before the most recent incumbent
        // detection may have landed on it (the SWITCH_FALLBACK timer and
        // in-flight announce completions both outlive detections), so it
        // must be re-checked here: tuning the network onto a primary
        // user would trip the engine compliance meter on the very next
        // frame.
        let map = ctx.spectrum_map();
        if !map.admits(target) {
            if map.admits(ctx.channel()) {
                match self.mode {
                    Mode::OnBackup | Mode::SwitchingFromBackup { .. } => {
                        // Still parked on an admissible backup: keep the
                        // chirped maps, resume chirping, and re-select
                        // with the fresh map at the next BACKUP_DONE.
                        self.mode = Mode::OnBackup;
                        ctx.set_timer(SimDuration::ZERO, keys::AP_CHIRP);
                        ctx.set_timer(CHIRP_COLLECT, keys::BACKUP_DONE);
                    }
                    _ => {
                        // Voluntary switch aborted mid-flight: stay put.
                        self.mode = Mode::Main;
                        self.assigner.set_current(Some(ctx.channel()));
                    }
                }
            } else {
                self.vacate_to_backup(ctx);
            }
            return;
        }
        // Anything chirped up to now has been handled by this switch.
        self.chirp_scan_floor = ctx.now();
        ctx.clear_queue();
        ctx.set_channel(target);
        self.assigner.set_current(Some(target));
        self.mode = Mode::Main;
        self.refresh_backup(ctx);
        self.switch_log.push((ctx.now(), target));
        // Beacon immediately so clients re-synchronise fast.
        ctx.send(Frame {
            src: ctx.id(),
            dst: None,
            kind: FrameKind::Beacon {
                backup: self.backup,
            },
        });
        // A client may have arrived on the backup channel just after we
        // left it: scan again soon (one-off catch-up ahead of the
        // periodic 3 s cadence) so stragglers reconnect quickly.
        ctx.set_timer(SimDuration::from_secs(1), keys::BACKUP_SCAN);
        self.pump_downlink(ctx);
    }

    /// Begins a voluntary switch: announce on the current channel, then
    /// retune once the announcements have gone out.
    fn begin_voluntary_switch(&mut self, target: WfChannel, ctx: &mut Ctx) {
        self.mode = Mode::SwitchingFromMain {
            target,
            announces_left: 2,
        };
        self.announce(target, ctx);
        self.announce(target, ctx);
        ctx.set_timer(SimDuration::from_millis(500), keys::SWITCH_FALLBACK);
    }

    /// Involuntary vacate: an incumbent owns the main channel. Not one
    /// more frame goes out on it.
    fn vacate_to_backup(&mut self, ctx: &mut Ctx) {
        ctx.clear_queue();
        let map = ctx.spectrum_map();
        let mut backup = self.backup.or_else(|| choose_backup(map, None));
        if let Some(b) = backup {
            if !map.admits(b) {
                backup = choose_secondary_backup(map, None, b);
            }
        }
        let Some(b) = backup else {
            // Nowhere to go: fall silent and retry at the next reassess.
            self.mode = Mode::OnBackup;
            ctx.set_timer(CHIRP_COLLECT, keys::BACKUP_DONE);
            return;
        };
        self.backup = Some(b);
        ctx.set_channel(b);
        self.mode = Mode::OnBackup;
        self.chirp_maps.clear();
        // The AP chirps too, so clients listening on the backup channel
        // know it is alive (§4.3: the node that detects the primary
        // "switches to the backup channel and transmits a series of
        // chirps").
        ctx.set_timer(SimDuration::ZERO, keys::AP_CHIRP);
        ctx.set_timer(CHIRP_COLLECT, keys::BACKUP_DONE);
    }

    /// Finds a channel carrying chirps in the scanner's view of the last
    /// scan interval, using SIFT burst-length matching (the decode-free
    /// secondary-radio path of §4.3). The advertised backup channel is
    /// preferred, but *all* channels are scanned: "in addition to
    /// scanning the backup channel for chirps, the AP periodically scans
    /// all channels in an attempt to reconnect with 'lost' nodes" — a
    /// lost client may be chirping on a stale or secondary backup.
    /// "All channels" means all channels the AP's map admits: visiting
    /// a channel an incumbent owns is both useless (the AP could never
    /// operate there) and unsafe, so chirp-shaped bursts outside the
    /// admissible map are ignored. This keeps every channel the AP
    /// reads or tunes to inside its spectrum-map footprint — the
    /// property the influence sharding of DESIGN.md §13 relies on.
    ///
    /// Every test is a function of a burst's channel and span, so the
    /// whole filter rides into the scanner query: only the chirps are
    /// sorted and materialized, in the same relative order.
    fn chirp_channel(&self, ctx: &Ctx) -> Option<WfChannel> {
        let floor = self.chirp_scan_floor;
        let map = ctx.spectrum_map();
        let chirps = ctx.visible_bursts(BACKUP_SCAN_INTERVAL, |channel, start, end| {
            start >= floor && map.admits(channel) && is_chirp(channel.width(), end.since(start))
        });
        if let Some(backup) = self.backup {
            if chirps.iter().any(|vb| vb.channel == backup) {
                return Some(backup);
            }
        }
        chirps.first().map(|vb| vb.channel)
    }

    fn reassess(&mut self, ctx: &mut Ctx) {
        if !self.cfg.adaptive || !matches!(self.mode, Mode::Main) {
            return;
        }
        let elapsed = ctx.now().since(self.last_eval);
        let goodput = if elapsed > SimDuration::ZERO {
            Some(self.bytes_acked_since_eval as f64 * 8.0 / elapsed.as_secs_f64() / 1e6)
        } else {
            None
        };
        // Post-switch evaluation: revert if the last voluntary switch
        // measured worse than what we had.
        if let Some(g) = goodput {
            if self.assigner.should_revert(g) {
                // Force an immediate re-evaluation; the hysteresis state
                // has been reset by consuming the pre-switch goodput.
                let ap_report = self.own_report(ctx);
                let clients = self.client_reports();
                if let Decision::Switch(target) = self.assigner.evaluate(&ap_report, &clients, None)
                {
                    if target != ctx.channel() {
                        self.begin_voluntary_switch(target, ctx);
                    }
                }
                self.bytes_acked_since_eval = 0;
                self.last_eval = ctx.now();
                return;
            }
        }
        let ap_report = self.own_report(ctx);
        let clients = self.client_reports();
        match self.assigner.evaluate(&ap_report, &clients, goodput) {
            Decision::Switch(target) if target != ctx.channel() => {
                // "Channel probing" (§4.1): the round-robin airtime
                // vector can be a full scan cycle stale; before
                // committing, probe the target and the current channel
                // with the scanner's fresh trailing window. Without this,
                // two co-located networks chase each other's stale
                // shadows around the band.
                let current = ctx.channel();
                let mut fresh = self.airtime;
                for u in target.spanned().chain(current.spanned()) {
                    let busy = ctx.airtime(u, SCAN_DWELL);
                    let aps = ctx.ap_count(u, SCAN_DWELL);
                    fresh.set_load(u, ChannelLoad::new(busy, aps));
                }
                self.airtime = fresh;
                let fresh_report = NodeReport {
                    map: ap_report.map,
                    airtime: fresh,
                };
                let obj = Objective::Aggregate;
                let t_score = objective_score(obj, &fresh_report, &clients, target);
                let c_score = objective_score(obj, &fresh_report, &clients, current);
                if !clears_hysteresis(t_score, c_score) {
                    // The probe contradicted the stale vector: stay.
                    self.assigner.set_current(Some(current));
                } else if ap_report.map.admits(current) {
                    self.begin_voluntary_switch(target, ctx);
                } else {
                    // Shouldn't happen (incumbents arrive via
                    // on_incumbent_change), but never announce over one.
                    self.complete_switch(target, ctx);
                }
            }
            _ => {}
        }
        self.bytes_acked_since_eval = 0;
        self.last_eval = ctx.now();
    }
}

impl Behavior for ApBehavior {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.assigner.set_current(Some(ctx.channel()));
        self.switch_log.push((ctx.now(), ctx.channel()));
        self.last_eval = ctx.now();
        self.refresh_backup(ctx);
        ctx.set_timer(SimDuration::ZERO, keys::BEACON);
        // The SCAN and BACKUP_SCAN arms feed channel re-selection and
        // backup maintenance, which fixed-channel runs never consult:
        // their handlers draw no RNG and only update airtime/backup
        // state that `reassess` reads behind the same `adaptive` gate.
        if self.cfg.adaptive {
            ctx.set_timer(SCAN_DWELL, keys::SCAN);
        }
        // Random phase: co-located APs must not re-evaluate in lockstep,
        // or they herd onto the same channels forever. The REASSESS timer
        // (and its jitter draw) stays armed even in fixed mode; the draw
        // comes from this node's private RNG stream, so it cannot shift
        // any other node's random sequence (DESIGN.md §9).
        let jitter = SimDuration::from_nanos(rand::Rng::gen_range(
            ctx.rng(),
            0..REASSESS_INTERVAL.as_nanos().max(1),
        ));
        ctx.set_timer(REASSESS_INTERVAL + jitter, keys::REASSESS);
        if self.cfg.adaptive {
            ctx.set_timer(BACKUP_SCAN_INTERVAL, keys::BACKUP_SCAN);
        }
        if self.cfg.downlink_bytes.is_some() {
            ctx.set_timer(SimDuration::from_millis(50), keys::PUMP);
        }
    }

    fn on_timer(&mut self, key: u64, ctx: &mut Ctx) {
        match key {
            keys::BEACON => {
                // Beacon on whatever channel we are tuned to (including
                // the backup channel while collecting chirps) — unless an
                // incumbent owns it.
                if ctx.spectrum_map().admits(ctx.channel()) {
                    ctx.send(Frame {
                        src: ctx.id(),
                        dst: None,
                        kind: FrameKind::Beacon {
                            backup: self.backup,
                        },
                    });
                }
                ctx.set_timer(BEACON_INTERVAL, keys::BEACON);
            }
            keys::SCAN => {
                let map = ctx.spectrum_map();
                let ch = UhfChannel::from_index(self.scan_cursor);
                if map.is_free(ch) {
                    let busy = ctx.airtime(ch, SCAN_DWELL);
                    let aps = ctx.ap_count(ch, SCAN_DWELL);
                    self.airtime.set_load(ch, ChannelLoad::new(busy, aps));
                }
                self.scan_cursor = (self.scan_cursor + 1) % whitefi_spectrum::NUM_UHF_CHANNELS;
                ctx.set_timer(SCAN_DWELL, keys::SCAN);
            }
            keys::REASSESS => {
                self.reassess(ctx);
                // Keep a light per-round jitter so two APs that happened
                // to align drift apart again.
                let jitter = SimDuration::from_nanos(rand::Rng::gen_range(
                    ctx.rng(),
                    0..(REASSESS_INTERVAL.as_nanos() / 4).max(1),
                ));
                ctx.set_timer(REASSESS_INTERVAL + jitter, keys::REASSESS);
            }
            keys::BACKUP_SCAN => {
                if matches!(self.mode, Mode::Main) && self.cfg.adaptive {
                    if let Some(ch) = self.chirp_channel(ctx) {
                        // A lost client is calling: visit that channel
                        // with the main radio to decode its chirps.
                        ctx.clear_queue();
                        ctx.set_channel(ch);
                        self.mode = Mode::OnBackup;
                        self.chirp_maps.clear();
                        ctx.set_timer(CHIRP_COLLECT, keys::BACKUP_DONE);
                    }
                }
                ctx.set_timer(BACKUP_SCAN_INTERVAL, keys::BACKUP_SCAN);
            }
            keys::BACKUP_DONE => {
                if !matches!(self.mode, Mode::OnBackup) {
                    return;
                }
                // Reassign spectrum from the collective availability
                // advertised on the backup channel plus our own view.
                let ap_report = self.own_report(ctx);
                let mut clients = self.client_reports();
                clients.extend(self.chirp_maps.iter().map(|&map| NodeReport {
                    map,
                    airtime: self.airtime,
                }));
                match crate::mcham::select_channel(&ap_report, &clients) {
                    Some((target, _)) => {
                        self.mode = Mode::SwitchingFromBackup {
                            target,
                            announces_left: 2,
                        };
                        self.announce(target, ctx);
                        self.announce(target, ctx);
                        ctx.set_timer(SimDuration::from_millis(500), keys::SWITCH_FALLBACK);
                    }
                    None => {
                        // No channel free anywhere: keep waiting on the
                        // backup channel and retry.
                        ctx.set_timer(CHIRP_COLLECT, keys::BACKUP_DONE);
                    }
                }
            }
            keys::SWITCH_FALLBACK => match self.mode {
                Mode::SwitchingFromMain { target, .. }
                | Mode::SwitchingFromBackup { target, .. } => {
                    self.complete_switch(target, ctx);
                }
                _ => {}
            },
            keys::AP_CHIRP => {
                if matches!(self.mode, Mode::OnBackup) {
                    let map = ctx.spectrum_map();
                    if map.admits(ctx.channel()) && ctx.queue_len() == 0 {
                        ctx.send(Frame {
                            src: ctx.id(),
                            dst: None,
                            kind: FrameKind::Chirp {
                                map,
                                slot: 0,
                                key: self.cfg.key,
                            },
                        });
                    }
                    ctx.set_timer(SimDuration::from_millis(100), keys::AP_CHIRP);
                }
            }
            keys::PUMP => {
                self.pump_downlink(ctx);
                ctx.set_timer(SimDuration::from_millis(50), keys::PUMP);
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut Ctx) {
        match frame.kind {
            FrameKind::Report { map, ref airtime } => {
                if !self.clients.contains(&frame.src) {
                    self.clients.push(frame.src);
                    self.pump_downlink(ctx);
                }
                let report = NodeReport {
                    map,
                    airtime: **airtime,
                };
                if let Some(entry) = self.reports.iter_mut().find(|(id, _)| *id == frame.src) {
                    entry.1 = report;
                } else {
                    self.reports.push((frame.src, report));
                }
            }
            FrameKind::Chirp { map, key, .. }
                // §4.3: process the chirp only when it carries the
                // network's key — fake chirps are discarded after the
                // (bounded) cost of having visited the backup channel.
                if matches!(self.mode, Mode::OnBackup) && key == self.cfg.key => {
                    self.chirp_maps.push(map);
                    // Persist the chirped availability over the client's
                    // (stale, pre-incumbent) report, or the next
                    // voluntary reassessment would move the network right
                    // back onto the incumbent's channel.
                    if let Some(entry) =
                        self.reports.iter_mut().find(|(id, _)| *id == frame.src)
                    {
                        entry.1.map = map;
                    } else {
                        self.reports.push((
                            frame.src,
                            NodeReport {
                                map,
                                airtime: self.airtime,
                            },
                        ));
                    }
                }
            _ => {}
        }
    }

    fn on_send_result(&mut self, frame: &Frame, success: bool, ctx: &mut Ctx) {
        if success {
            if let FrameKind::Data { bytes } = frame.kind {
                self.bytes_acked_since_eval += bytes as u64;
            }
        }
        if matches!(frame.kind, FrameKind::SwitchAnnounce { .. }) {
            match self.mode {
                Mode::SwitchingFromMain {
                    target,
                    announces_left,
                }
                | Mode::SwitchingFromBackup {
                    target,
                    announces_left,
                } => {
                    if announces_left <= 1 {
                        self.complete_switch(target, ctx);
                    } else {
                        let left = announces_left - 1;
                        self.mode = match self.mode {
                            Mode::SwitchingFromMain { .. } => Mode::SwitchingFromMain {
                                target,
                                announces_left: left,
                            },
                            _ => Mode::SwitchingFromBackup {
                                target,
                                announces_left: left,
                            },
                        };
                    }
                }
                _ => {}
            }
        }
        self.pump_downlink(ctx);
    }

    fn on_incumbent_change(&mut self, map: SpectrumMap, ctx: &mut Ctx) {
        if !self.cfg.adaptive {
            return;
        }
        match self.mode {
            Mode::Main | Mode::SwitchingFromMain { .. } => {
                if !map.admits(ctx.channel()) {
                    self.vacate_to_backup(ctx);
                } else if let Mode::SwitchingFromMain { target, .. } = self.mode {
                    if !map.admits(target) {
                        // The pending switch target was struck between
                        // selection and completion: abandon the move and
                        // stay on the (still admissible) current channel.
                        self.mode = Mode::Main;
                        self.assigner.set_current(Some(ctx.channel()));
                    }
                }
            }
            Mode::OnBackup | Mode::SwitchingFromBackup { .. } => {
                if let Mode::SwitchingFromBackup { target, .. } = self.mode {
                    if !map.admits(target) {
                        // Stale pending target (struck after BACKUP_DONE
                        // picked it): drop back to chirp collection and
                        // re-select with the fresh map.
                        self.mode = Mode::OnBackup;
                        ctx.set_timer(SimDuration::ZERO, keys::AP_CHIRP);
                        ctx.set_timer(CHIRP_COLLECT, keys::BACKUP_DONE);
                    }
                }
                if !map.admits(ctx.channel()) {
                    // The backup itself got hit: move to the secondary.
                    if let Some(next) =
                        choose_secondary_backup(map, self.assigner.current(), ctx.channel())
                    {
                        ctx.clear_queue();
                        self.backup = Some(next);
                        ctx.set_channel(next);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientBehavior, ClientConfig};
    use std::cell::RefCell;
    use std::rc::Rc;
    use whitefi_mac::traffic::Sink;
    use whitefi_mac::{CbrSender, FaultPlan, NodeConfig, SimObserver, Simulator, Transmission};

    /// The exact bit pattern of an airtime vector (`f64 ==` would let
    /// `-0.0` stand in for `0.0`).
    fn bits(v: &AirtimeVector) -> Vec<(u64, u32)> {
        v.iter().map(|(_, l)| (l.busy.to_bits(), l.aps)).collect()
    }

    /// A real AP that records, after each delivered Report, the
    /// `NodeReport` it stored for the sender.
    struct Tap {
        ap: ApBehavior,
        stored: Rc<RefCell<Vec<(SimTime, NodeReport)>>>,
    }

    impl Behavior for Tap {
        fn on_start(&mut self, ctx: &mut Ctx) {
            self.ap.on_start(ctx);
        }
        fn on_timer(&mut self, key: u64, ctx: &mut Ctx) {
            self.ap.on_timer(key, ctx);
        }
        fn on_frame(&mut self, frame: &Frame, ctx: &mut Ctx) {
            self.ap.on_frame(frame, ctx);
            if matches!(frame.kind, FrameKind::Report { .. }) {
                let (_, report) = self
                    .ap
                    .reports
                    .iter()
                    .find(|(id, _)| *id == frame.src)
                    .expect("a delivered report is stored");
                self.stored.borrow_mut().push((ctx.now(), *report));
            }
        }
        fn on_send_result(&mut self, frame: &Frame, success: bool, ctx: &mut Ctx) {
            self.ap.on_send_result(frame, success, ctx);
        }
        fn on_incumbent_change(&mut self, map: SpectrumMap, ctx: &mut Ctx) {
            self.ap.on_incumbent_change(map, ctx);
        }
    }

    /// One on-air attempt of a Report frame.
    struct Attempt {
        /// Index of the frame this attempt sends (retransmissions share it).
        frame: usize,
        /// The vector it carried when it started.
        airtime: AirtimeVector,
        /// `(end, faulted_drop)` once it left the medium.
        end: Option<(SimTime, bool)>,
    }

    /// Every Report attempt on the air. A new frame starts when the
    /// previous attempt's ACK went out unharmed; any other attempt is a
    /// retransmission after an `AckTimeout`.
    #[derive(Default)]
    struct OnAir {
        attempts: Vec<Attempt>,
        frames: usize,
        acked: bool,
    }

    struct Watch(Rc<RefCell<OnAir>>);

    impl SimObserver for Watch {
        fn on_tx_start(&mut self, _now: SimTime, tx: &Transmission) {
            if let FrameKind::Report { airtime, .. } = &tx.frame.kind {
                let mut log = self.0.borrow_mut();
                if log.attempts.is_empty() || log.acked {
                    log.frames += 1;
                }
                log.acked = false;
                let frame = log.frames;
                log.attempts.push(Attempt {
                    frame,
                    airtime: **airtime,
                    end: None,
                });
            }
        }
        fn on_tx_end(&mut self, now: SimTime, tx: &Transmission, faulted_drop: bool) {
            let mut log = self.0.borrow_mut();
            match tx.frame.kind {
                FrameKind::Report { .. } => {
                    if let Some(last) = log.attempts.last_mut() {
                        last.end = Some((now, faulted_drop));
                    }
                }
                // Only the client sends Reports, and only the AP ACKs it.
                FrameKind::Ack if !faulted_drop && tx.frame.dst == Some(CLIENT) => {
                    log.acked = true;
                }
                _ => {}
            }
        }
    }

    const CLIENT: NodeId = 1;

    /// The chirp scan as it was before its filter moved into the scanner
    /// query: materialize every visible burst, then filter.
    fn chirp_channel_reference(ap: &ApBehavior, ctx: &Ctx) -> Option<WfChannel> {
        let floor = ap.chirp_scan_floor;
        let map = ctx.spectrum_map();
        let bursts: Vec<whitefi_phy::VisibleBurst> = ctx
            .visible_bursts(BACKUP_SCAN_INTERVAL, |_, _, _| true)
            .into_iter()
            .filter(|vb| vb.burst.start >= floor && map.admits(vb.channel))
            .collect();
        let chirp = |vb: &whitefi_phy::VisibleBurst| is_chirp(vb.burst.width, vb.burst.duration);
        if let Some(backup) = ap.backup {
            if bursts.iter().any(|vb| vb.channel == backup && chirp(vb)) {
                return Some(backup);
            }
        }
        bursts.iter().find(|vb| chirp(vb)).map(|vb| vb.channel)
    }

    /// Broadcasts a chirp of a random slot or a data frame of a random
    /// length every 1–15 ms, and falls silent after 2.5 s.
    struct Noisy;

    impl Behavior for Noisy {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(1), 0);
        }
        fn on_timer(&mut self, _key: u64, ctx: &mut Ctx) {
            use rand::Rng;
            let kind = if ctx.rng().gen_bool(0.5) {
                FrameKind::Chirp {
                    map: SpectrumMap::all_free(),
                    slot: ctx.rng().gen_range(0..=15),
                    key: 0,
                }
            } else {
                FrameKind::Data {
                    bytes: ctx.rng().gen_range(20..1500),
                }
            };
            let src = ctx.id();
            ctx.send(Frame {
                src,
                dst: None,
                kind,
            });
            if ctx.now() < SimTime::from_millis(2500) {
                let gap = ctx.rng().gen_range(1..15);
                ctx.set_timer(SimDuration::from_millis(gap), 0);
            }
        }
    }

    /// Every 37 ms, draws a scan floor inside the scan window and a
    /// backup channel (or none), then checks the AP's chirp scan against
    /// the reference. `tally` counts `[backup found, other channel found,
    /// nothing found, scans that saw a chirp the map rules out]`.
    struct ChirpProbe {
        ap: ApBehavior,
        backups: Vec<WfChannel>,
        tally: Rc<RefCell<[usize; 4]>>,
    }

    impl Behavior for ChirpProbe {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(SimDuration::from_millis(37), 0);
        }
        fn on_timer(&mut self, _key: u64, ctx: &mut Ctx) {
            use rand::Rng;
            let window = BACKUP_SCAN_INTERVAL;
            let back = SimDuration::from_nanos(ctx.rng().gen_range(0..window.as_nanos()));
            self.ap.chirp_scan_floor =
                SimTime::ZERO + ctx.now().saturating_since(SimTime::ZERO + back);
            let pick = ctx.rng().gen_range(0..=self.backups.len());
            self.ap.backup = self.backups.get(pick).copied();
            let got = self.ap.chirp_channel(ctx);
            assert_eq!(
                got,
                chirp_channel_reference(&self.ap, ctx),
                "at {:?}, floor {:?}, backup {:?}",
                ctx.now(),
                self.ap.chirp_scan_floor,
                self.ap.backup
            );
            let mut tally = self.tally.borrow_mut();
            match got {
                Some(c) if Some(c) == self.ap.backup => tally[0] += 1,
                Some(_) => tally[1] += 1,
                None => tally[2] += 1,
            }
            let map = ctx.spectrum_map();
            let ruled_out = ctx.visible_bursts(window, |c, start, end| {
                !map.admits(c) && is_chirp(c.width(), end.since(start))
            });
            if !ruled_out.is_empty() {
                tally[3] += 1;
            }
            ctx.set_timer(SimDuration::from_millis(37), 0);
        }
    }

    /// The chirp scan with its filter pushed into the scanner query picks
    /// the same channel as the materialize-then-filter reference, over
    /// random media: senders on mixed widths broadcasting chirps of every
    /// slot (chirp-length on 5 MHz only) and data frames of random
    /// lengths, a scan floor anywhere in the window, random backups, and
    /// mics that make some senders' channels inadmissible to the AP.
    #[test]
    fn chirp_scan_matches_materialize_then_filter() {
        use rand::{Rng, SeedableRng};
        use whitefi_spectrum::{IncumbentSet, MicActivity, MicSchedule, WirelessMic};
        let tally = Rc::new(RefCell::new([0usize; 4]));
        for case in 0..6u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(case);
            let mut chans: Vec<WfChannel> = Vec::new();
            for w in [
                Width::W5,
                Width::W5,
                Width::W5,
                Width::W5,
                Width::W10,
                Width::W20,
            ] {
                let c = WfChannel::from_parts(rng.gen_range(4..26), w);
                if !chans.contains(&c) {
                    chans.push(c);
                }
            }
            let mut incumbents = IncumbentSet::default();
            for _ in 0..2 {
                let struck = chans[rng.gen_range(0..chans.len())].center();
                incumbents.mics.push(WirelessMic::new(
                    struck,
                    MicSchedule::scripted(vec![MicActivity {
                        start: 0,
                        end: SimTime::from_secs(100).as_nanos(),
                    }]),
                ));
            }
            let mut sim = Simulator::new(case);
            let probe = NodeConfig::on_channel(WfChannel::from_parts(2, Width::W5))
                .ap()
                .with_incumbents(incumbents);
            let backups = chans.iter().copied().filter(|c| c.width() == Width::W5);
            sim.add_node(
                probe,
                Box::new(ChirpProbe {
                    ap: ApBehavior::new(ApConfig::default()),
                    backups: backups.collect(),
                    tally: tally.clone(),
                }),
            );
            for &c in &chans {
                sim.add_node(NodeConfig::on_channel(c), Box::new(Noisy));
            }
            sim.run_until(SimTime::from_secs(4));
        }
        let [backup, other, none, ruled_out] = *tally.borrow();
        assert!(
            backup > 0 && other > 0 && none > 0 && ruled_out > 0,
            "backup {backup}, other {other}, none {none}, ruled out {ruled_out}"
        );
    }

    /// A client's Report reaches the AP's `NodeReport` with a
    /// bit-identical airtime vector, including Reports the fault plan
    /// lost and the client retransmitted after its `AckTimeout`: the
    /// boxed payload survives the queue, medium and history clones.
    #[test]
    fn report_airtime_round_trips_bit_identically() {
        let main = WfChannel::from_parts(20, Width::W5);
        let busy = WfChannel::from_parts(2, Width::W5);
        let mut sim = Simulator::new(11);
        sim.set_fault_plan(FaultPlan {
            drop_prob: 0.25,
            ..FaultPlan::quiet(5)
        });
        let stored = Rc::new(RefCell::new(Vec::new()));
        let on_air = Rc::new(RefCell::new(OnAir::default()));
        sim.set_observer(Box::new(Watch(on_air.clone())));
        let ap = sim.add_node(
            NodeConfig::on_channel(main).ap().in_ssid(1),
            Box::new(Tap {
                ap: ApBehavior::new(ApConfig::default().fixed()),
                stored: stored.clone(),
            }),
        );
        let client = sim.add_node(
            NodeConfig::on_channel(main).in_ssid(1),
            Box::new(ClientBehavior::new(ClientConfig::new(ap, 0))),
        );
        assert_eq!(client, CLIENT);
        // Foreign load on a channel the client's scanner visits, so the
        // reported vectors carry non-trivial loads.
        let sink = sim.add_node(NodeConfig::on_channel(busy).in_ssid(2), Box::new(Sink));
        sim.add_node(
            NodeConfig::on_channel(busy).in_ssid(2),
            Box::new(CbrSender::new(sink, SimDuration::from_millis(3))),
        );
        sim.run_until(SimTime::from_secs(8));

        let on_air = on_air.borrow();
        let stored = stored.borrow();
        let first = |frame: usize| {
            let a = on_air.attempts.iter().find(|a| a.frame == frame);
            bits(&a.expect("every frame has an attempt").airtime)
        };
        for (k, a) in on_air.attempts.iter().enumerate() {
            assert_eq!(
                bits(&a.airtime),
                first(a.frame),
                "attempt {k} changed its payload"
            );
        }
        assert!(!stored.is_empty(), "no report reached the AP");
        let mut late = 0;
        for (t, report) in stored.iter() {
            let (k, a) = on_air
                .attempts
                .iter()
                .enumerate()
                .find(|(_, a)| a.end.is_some_and(|(end, _)| end == *t))
                .expect("a stored report matches an on-air attempt");
            assert!(
                !a.end.is_some_and(|(_, drop)| drop),
                "lost attempt {k} was delivered"
            );
            assert_eq!(bits(&report.airtime), first(a.frame), "at {t:?}");
            if on_air.attempts[..k].iter().any(|p| p.frame == a.frame) {
                late += 1;
            }
        }
        assert!(late > 0, "no report was delivered by a retransmission");
        let bg = busy.center();
        assert!(
            stored.iter().any(|(_, r)| r.airtime.load(bg).busy > 0.0),
            "no report carried the foreign load"
        );
    }
}
