//! The WhiteFi client state machine.
//!
//! A connected client:
//!
//! * tracks the AP through its 100 ms beacons (which advertise the backup
//!   channel),
//! * measures per-UHF-channel airtime with its scanning radio, visiting
//!   one channel per dwell ("Every client and AP using WhiteFi spends 1
//!   second on every UHF channel to determine the airtime utilization
//!   using SIFT", §5.4.2),
//! * periodically sends its spectrum map and airtime vector to the AP as
//!   a control message (§4.1),
//! * optionally sources backlogged uplink traffic.
//!
//! On losing the AP — either because an incumbent appeared on the main
//! channel at the client ("if a client detects an incumbent, it will
//! disconnect from the AP", §4.1) or because no beacon/data has arrived
//! within the watchdog interval ("if a client senses that a disconnection
//! has occurred (e.g., because no data packets have been received in a
//! given interval)", §4.3) — the client clears its queue, retunes to the
//! advertised backup channel, and chirps until it hears the AP's switch
//! announcement. It never transmits a single frame on a channel its own
//! map marks as incumbent-occupied.

use crate::ap::SCAN_DWELL;
use crate::chirp::{choose_backup, choose_secondary_backup};
use crate::discovery::{sift_match_bursts, JSiftMachine, ScanStep};
use whitefi_mac::{Behavior, Ctx, Frame, FrameKind, NodeId};
use whitefi_phy::{SimDuration, SimTime};
use whitefi_spectrum::{AirtimeVector, ChannelLoad, SpectrumMap, UhfChannel, WfChannel};

/// Timer keys.
mod keys {
    pub const REPORT: u64 = 1;
    pub const SCAN: u64 = 2;
    pub const WATCHDOG: u64 = 3;
    pub const CHIRP: u64 = 4;
    pub const PUMP: u64 = 5;
    pub const DISCOVER: u64 = 6;
}

/// Interval between control reports to the AP.
const REPORT_INTERVAL: SimDuration = SimDuration::from_secs(1);
/// Interval between chirps while disconnected.
const CHIRP_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Dwell per discovery step (long enough to catch one 100 ms-period
/// beacon).
const DISCOVERY_DWELL: SimDuration = SimDuration::from_millis(120);
/// Default silence from the AP after which the client declares
/// disconnection: longer than the AP's absence on a legitimate
/// backup-channel excursion (its chirp collection plus announcements).
pub(crate) const DISCONNECT_TIMEOUT: SimDuration = SimDuration::from_millis(600);

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// The AP's node id.
    pub ap: NodeId,
    /// Identity slot encoded in chirp lengths (§4.3's OOK extension).
    pub slot: u8,
    /// Silence from the AP after which the client declares disconnection.
    pub disconnect_timeout: SimDuration,
    /// Payload bytes per frame of backlogged (saturating) uplink traffic;
    /// `None` disables uplink.
    pub uplink_bytes: Option<usize>,
    /// Network security key carried in chirps (§4.3's anti-hijack check).
    pub key: u32,
    /// How the client starts: pre-associated on the AP's channel, or
    /// running J-SIFT discovery with its scanner (§4.2.2).
    pub start: ClientStart,
    /// Whether the background airtime scanner runs. Fixed-channel
    /// baseline drivers disable it: the scan handler draws no RNG and
    /// only feeds per-channel airtime into reports, which nothing reads
    /// when the AP never re-selects channels. Report frames stay a
    /// constant 64 bytes on air either way.
    pub scan_enabled: bool,
}

/// Client bootstrap mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ClientStart {
    /// Already tuned to the AP's channel (the evaluation scenarios).
    #[default]
    Associated,
    /// Unassociated: discover the AP with incremental J-SIFT, then
    /// associate with whichever AP's beacon decodes.
    Discover,
}

impl ClientConfig {
    /// A pre-associated client of AP `ap` with the default 600 ms
    /// watchdog, its airtime scanner on and no uplink traffic.
    pub fn new(ap: NodeId, slot: u8) -> Self {
        Self {
            ap,
            slot,
            disconnect_timeout: DISCONNECT_TIMEOUT,
            uplink_bytes: None,
            key: 0,
            start: ClientStart::Associated,
            scan_enabled: true,
        }
    }

    /// Starts the client unassociated, discovering the AP via J-SIFT.
    pub fn discovering(mut self) -> Self {
        self.start = ClientStart::Discover;
        self
    }

    /// Enables a backlogged uplink flow.
    pub fn saturating_uplink(mut self, bytes: usize) -> Self {
        self.uplink_bytes = Some(bytes);
        self
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Discovering,
    Connected,
    Disconnected,
}

/// The client behaviour.
#[derive(Debug)]
pub struct ClientBehavior {
    cfg: ClientConfig,
    ap: NodeId,
    mode: Mode,
    last_heard: SimTime,
    known_backup: Option<WfChannel>,
    airtime: AirtimeVector,
    scan_cursor: usize,
    discovery: Option<JSiftMachine>,
    /// Armed while a discovery decode dwell listens on a candidate
    /// channel; holds the candidate.
    decode_armed: Option<WfChannel>,
    /// Beacon heard (src, channel) since the decode dwell was armed.
    beacon_heard: Option<(NodeId, WfChannel)>,
    /// Number of disconnections experienced (observable for tests).
    pub disconnections: u64,
    /// Number of successful reconnections (observable for tests).
    pub reconnections: u64,
    /// Discovery dwells spent before association (observable for tests).
    pub discovery_scans: u32,
}

impl ClientBehavior {
    /// A client for the given configuration.
    pub fn new(cfg: ClientConfig) -> Self {
        let mode = match cfg.start {
            ClientStart::Associated => Mode::Connected,
            ClientStart::Discover => Mode::Discovering,
        };
        Self {
            ap: cfg.ap,
            cfg,
            mode,
            last_heard: SimTime::ZERO,
            known_backup: None,
            airtime: AirtimeVector::idle(),
            scan_cursor: 0,
            discovery: None,
            decode_armed: None,
            beacon_heard: None,
            disconnections: 0,
            reconnections: 0,
            discovery_scans: 0,
        }
    }

    /// The AP this client is (or became) associated with.
    pub fn ap(&self) -> NodeId {
        self.ap
    }

    fn blocked(map: SpectrumMap, ch: WfChannel) -> bool {
        !map.admits(ch)
    }

    fn pump_uplink(&mut self, ctx: &mut Ctx) {
        if self.mode != Mode::Connected {
            return;
        }
        let Some(bytes) = self.cfg.uplink_bytes else {
            return;
        };
        while ctx.queue_len() < 2 {
            ctx.send(Frame::data(ctx.id(), self.ap, bytes));
        }
    }

    fn disconnect(&mut self, ctx: &mut Ctx) {
        if self.mode == Mode::Disconnected {
            return;
        }
        self.mode = Mode::Disconnected;
        self.disconnections += 1;
        let main = ctx.channel();
        ctx.clear_queue();
        let map = ctx.spectrum_map();
        // Prefer the AP-advertised backup; fall back to the same
        // deterministic choice the AP makes (first free 5 MHz channel
        // outside the main channel), so a client that never caught a
        // beacon still lands where the AP scans for chirps.
        let backup = self
            .known_backup
            .filter(|&b| !Self::blocked(map, b))
            .or_else(|| choose_backup(map, Some(main)))
            .or_else(|| choose_backup(map, None));
        if let Some(b) = backup {
            ctx.set_channel(b);
            ctx.set_timer(SimDuration::ZERO, keys::CHIRP);
        }
        // If no backup exists at all, stay silent until spectrum frees up
        // (the watchdog keeps firing and will retry).
    }

    fn reconnect(&mut self, target: WfChannel, ctx: &mut Ctx) {
        ctx.set_channel(target);
        self.mode = Mode::Connected;
        self.reconnections += 1;
        self.last_heard = ctx.now();
        self.pump_uplink(ctx);
    }
}

impl Behavior for ClientBehavior {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.last_heard = ctx.now();
        ctx.set_timer(REPORT_INTERVAL, keys::REPORT);
        if self.cfg.scan_enabled {
            ctx.set_timer(SCAN_DWELL, keys::SCAN);
        }
        ctx.set_timer(self.cfg.disconnect_timeout, keys::WATCHDOG);
        if self.cfg.uplink_bytes.is_some() {
            ctx.set_timer(SimDuration::from_millis(50), keys::PUMP);
        }
        if self.mode == Mode::Discovering {
            ctx.set_timer(DISCOVERY_DWELL, keys::DISCOVER);
        }
        self.pump_uplink(ctx);
    }

    fn on_timer(&mut self, key: u64, ctx: &mut Ctx) {
        match key {
            keys::REPORT => {
                if self.mode == Mode::Connected {
                    let frame = Frame {
                        src: ctx.id(),
                        dst: Some(self.ap),
                        kind: FrameKind::Report {
                            map: ctx.spectrum_map(),
                            airtime: Box::new(self.airtime),
                        },
                    };
                    ctx.send(frame);
                }
                ctx.set_timer(REPORT_INTERVAL, keys::REPORT);
            }
            keys::SCAN => {
                // Round-robin airtime measurement over free channels.
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
            keys::WATCHDOG => {
                if self.mode == Mode::Connected
                    && ctx.now().since(self.last_heard) >= self.cfg.disconnect_timeout
                {
                    self.disconnect(ctx);
                }
                ctx.set_timer(self.cfg.disconnect_timeout, keys::WATCHDOG);
            }
            keys::CHIRP if self.mode == Mode::Disconnected => {
                let map = ctx.spectrum_map();
                // Never chirp over an incumbent: if the backup went
                // bad, move to the secondary backup first.
                if Self::blocked(map, ctx.channel()) {
                    if let Some(next) = choose_secondary_backup(map, None, ctx.channel()) {
                        ctx.set_channel(next);
                    } else {
                        ctx.set_timer(CHIRP_INTERVAL, keys::CHIRP);
                        return;
                    }
                }
                if ctx.queue_len() == 0 {
                    // The chirp's on-air length encodes the identity
                    // slot, readable by SIFT without decoding.
                    ctx.send(Frame {
                        src: ctx.id(),
                        dst: None,
                        kind: FrameKind::Chirp {
                            map,
                            slot: self.cfg.slot,
                            key: self.cfg.key,
                        },
                    });
                }
                ctx.set_timer(CHIRP_INTERVAL, keys::CHIRP);
            }
            keys::DISCOVER if self.mode == Mode::Discovering => {
                // Resolve an armed decode dwell first.
                if let Some(cand) = self.decode_armed.take() {
                    let success = matches!(self.beacon_heard, Some((_, ch)) if ch == cand);
                    if let Some((src, _)) = self.beacon_heard.take().filter(|_| success) {
                        // Associated! Learn the AP and switch to normal
                        // operation; the first report registers us for
                        // downlink traffic.
                        let machine = self.discovery.take();
                        self.discovery_scans = machine.map(|m| m.scans()).unwrap_or(0);
                        self.ap = src;
                        self.mode = Mode::Connected;
                        self.last_heard = ctx.now();
                        ctx.send(Frame {
                            src: ctx.id(),
                            dst: Some(src),
                            kind: FrameKind::Report {
                                map: ctx.spectrum_map(),
                                airtime: Box::new(self.airtime),
                            },
                        });
                        self.pump_uplink(ctx);
                        return;
                    }
                    if let Some(m) = self.discovery.as_mut() {
                        m.on_decode_result(false);
                    }
                }
                let map = ctx.spectrum_map();
                let machine = self.discovery.get_or_insert_with(|| JSiftMachine::new(map));
                match machine.current() {
                    Some(ScanStep::Sift(ch)) => {
                        // The scanner dwelled on `ch` for the last
                        // interval: match SIFT signatures in its view.
                        let bursts = ctx.visible_bursts(DISCOVERY_DWELL, |_, _, _| true);
                        let found = sift_match_bursts(&bursts, ch);
                        machine.on_sift_result(found);
                    }
                    Some(ScanStep::Decode(cand)) => {
                        // Tune the transceiver to the candidate and
                        // listen for one dwell.
                        ctx.set_channel(cand);
                        self.decode_armed = Some(cand);
                        self.beacon_heard = None;
                    }
                    None => {
                        // Retry budget exhausted (no AP?): start over.
                        self.discovery = Some(JSiftMachine::new(map));
                    }
                }
                ctx.set_timer(DISCOVERY_DWELL, keys::DISCOVER);
            }
            keys::PUMP => {
                self.pump_uplink(ctx);
                ctx.set_timer(SimDuration::from_millis(50), keys::PUMP);
            }
            _ => {}
        }
    }

    fn on_frame(&mut self, frame: &Frame, ctx: &mut Ctx) {
        match frame.kind {
            FrameKind::Beacon { backup } if self.mode == Mode::Discovering => {
                // Any decodable beacon on the candidate channel ends
                // discovery; remember who sent it.
                self.beacon_heard = Some((frame.src, ctx.channel()));
                if let Some(b) = backup {
                    self.known_backup = Some(b);
                }
            }
            FrameKind::Beacon { backup } if frame.src == self.ap => {
                self.last_heard = ctx.now();
                if let Some(b) = backup {
                    self.known_backup = Some(b);
                }
            }
            FrameKind::SwitchAnnounce { target } if frame.src == self.ap => {
                let map = ctx.spectrum_map();
                if Self::blocked(map, target) {
                    // The new channel is blocked here: stay (or go)
                    // disconnected so the AP learns via chirps.
                    self.disconnect(ctx);
                } else if self.mode == Mode::Disconnected || target != ctx.channel() {
                    self.reconnect(target, ctx);
                } else {
                    self.last_heard = ctx.now();
                }
            }
            FrameKind::Data { .. } if frame.src == self.ap => {
                self.last_heard = ctx.now();
            }
            _ => {}
        }
    }

    fn on_send_result(&mut self, _frame: &Frame, _success: bool, ctx: &mut Ctx) {
        self.pump_uplink(ctx);
    }

    fn on_incumbent_change(&mut self, map: SpectrumMap, ctx: &mut Ctx) {
        match self.mode {
            Mode::Connected => {
                if Self::blocked(map, ctx.channel()) {
                    // "both clients and APs should detect the presence of
                    // a mic on a channel and move away from that channel".
                    self.disconnect(ctx);
                }
            }
            Mode::Disconnected => {
                if Self::blocked(map, ctx.channel()) {
                    if let Some(next) = choose_secondary_backup(map, None, ctx.channel()) {
                        ctx.clear_queue();
                        ctx.set_channel(next);
                    }
                }
            }
            Mode::Discovering => {
                // The map changed mid-discovery: restart over the fresh
                // map (a decode dwell parked on a now-blocked candidate
                // must not linger there either).
                self.discovery = Some(JSiftMachine::new(map));
                self.decode_armed = None;
                self.beacon_heard = None;
                if Self::blocked(map, ctx.channel()) {
                    if let Some(free) = map
                        .available_channels_of_width(whitefi_spectrum::Width::W5)
                        .first()
                    {
                        ctx.set_channel(*free);
                    }
                }
            }
        }
    }
}
