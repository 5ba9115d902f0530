//! Always-on protocol-invariant oracles, fed passively from the event
//! core (DESIGN.md §10).
//!
//! An [`OracleSet`] attaches to a [`Simulator`] as its
//! [`whitefi_mac::SimObserver`] and holds one [`OracleBank`] per network
//! (a city group simulator hosts one per cell). Each member hook is
//! routed to the bank of the network the node belongs to, which checks,
//! on every foreground (SSID-member) transmission, the four properties
//! the paper's safety story rests on:
//!
//! 1. **Incumbent safety** (§4.3, Fig. 14–16): no member transmission
//!    starts strictly after an incumbent's detection deadline while the
//!    incumbent is on the air, on any UHF channel the transmission
//!    spans. Static TV occupancy is known from t = 0, so any overlap is
//!    a violation; a mic interval's deadline is its onset plus the
//!    node's detection delay (plus any faulted detection stretch).
//! 2. **Backup liveness** (§4.3): a disconnected client (first chirp)
//!    reassociates (next unicast to the AP) within the liveness bound,
//!    or the miss is explained by an injected fault.
//! 3. **Single-channel occupancy**: the network's members occupy one
//!    `(F, W)` channel, except within a grace period of an observable
//!    transition (a chirp or switch announcement, a retune, an
//!    observed-map change).
//! 4. **Airtime conservation**: the oracle's independent per-UHF busy
//!    accounting (union of overlapping transmissions) equals the
//!    medium's counters exactly and never exceeds wall-clock time.
//!
//! Every [`OracleReport`] field — violations, the checked-transmission
//! count, the foreground trace digest — derives from member
//! transmissions only, so reports are invariant under background
//! pruning (DESIGN.md §9) and the pruned == unpruned equality tests
//! extend to them unchanged. Observers never influence scheduling:
//! a run with an attached bank is event-for-event identical to one
//! without.

use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use whitefi_mac::sim::SCANNER_SENSITIVITY_DBM;
use whitefi_mac::{FaultEventKind, FrameKind, NodeId, SimObserver, Simulator, Transmission};
use whitefi_phy::{SimDuration, SimTime};
use whitefi_spectrum::{IncumbentSet, SpectrumMap, UhfChannel, WfChannel, NUM_UHF_CHANNELS};

/// Which invariant a [`Violation`] breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OracleKind {
    /// A member transmission overlapped a detected incumbent after its
    /// detection deadline.
    IncumbentSafety,
    /// A disconnected client missed the reassociation bound with no
    /// fault to explain it.
    BackupLiveness,
    /// Members transmitted on more than one channel outside the
    /// transition grace period.
    ChannelOccupancy,
    /// The medium's busy accounting disagrees with the oracle's
    /// independent recomputation, or exceeds wall-clock time.
    AirtimeConservation,
}

/// One structured invariant violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// The broken invariant.
    pub kind: OracleKind,
    /// When the violation was detected.
    pub time: SimTime,
    /// The offending node, when attributable.
    pub node: Option<NodeId>,
    /// Human-readable specifics.
    pub detail: String,
}

/// The oracles' verdict on one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OracleReport {
    /// Every violation, in detection order.
    pub violations: Vec<Violation>,
    /// Member transmissions checked.
    pub checked_tx: u64,
    /// Liveness misses explained by injected faults (documented
    /// outcomes, not protocol bugs).
    pub explained_liveness: u64,
    /// Split-channel occupancy episodes explained by injected faults —
    /// e.g. a dropped SwitchAnnounce leaving a client behind until its
    /// watchdog recovers (documented outcomes, not protocol bugs).
    pub explained_occupancy: u64,
    /// FNV-1a digest of the foreground transmission trace (member
    /// transmissions only, so pruning cannot change it) — the
    /// byte-identical determinism fingerprint.
    pub trace_digest: u64,
}

impl OracleReport {
    /// Whether every invariant held.
    pub fn clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Disconnection → reassociation bound. The protocol's own budget —
/// client watchdog (600 ms) + a full backup-scan period (3 s) + chirp
/// collection (300 ms) + switch fallback — sums well under 5 s; 10 s
/// leaves headroom for contention without masking hangs.
const LIVENESS_BOUND: SimDuration = SimDuration::from_secs(10);
/// How long after an observable transition (control frame, retune,
/// observed-map change) split-channel operation is tolerated.
const TRANSITION_GRACE: SimDuration = SimDuration::from_secs(1);

/// One mic activity interval, precompiled against a member's detection
/// latency.
#[derive(Debug, Clone, Copy)]
struct MicWindow {
    channel: UhfChannel,
    /// Onset + detection delay + faulted extra: transmissions starting
    /// strictly later, while the mic is still on, violate safety.
    deadline_ns: u64,
    /// Mic off time (exclusive).
    off_ns: u64,
}

/// Per-member environment and liveness state.
#[derive(Debug)]
struct MemberEnv {
    /// The member's sim-local node id.
    node: NodeId,
    /// Scenario-stable identity folded into digests and violation
    /// details. Equal to the sim-local node id for ordinary runs; a
    /// shard-local simulator registers members under their global ids
    /// so reports compare byte-identically across shardings.
    stable: NodeId,
    is_ap: bool,
    /// Statically occupied channels (detectable TV stations): known to
    /// the member from t = 0, so overlap is violating at any time.
    static_occupied: SpectrumMap,
    mic_windows: Vec<MicWindow>,
    /// Open liveness window: time of the first unanswered chirp.
    live_open: Option<SimTime>,
    /// Channel of the member's most recent transmission start.
    last_tx_channel: Option<WfChannel>,
    last_tx_time: SimTime,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// `FNV_PRIME_POW[k]` = `FNV_PRIME^k` (mod 2^64).
const FNV_PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(FNV_PRIME);
        k += 1;
    }
    pow
};

/// FNV-1a over the eight little-endian bytes of `v`. Only the low bytes
/// up to the highest non-zero one are hashed byte by byte: each higher
/// byte is zero, so its XOR is a no-op and its step is a bare multiply
/// by `FNV_PRIME`, and the `k` of them fold into one multiply by
/// `FNV_PRIME^k`. Wrapping multiplication is associative, so the result
/// equals the byte loop bit for bit.
fn fnv1a_word(mut h: u64, v: u64) -> u64 {
    let len = (u64::BITS - v.leading_zeros()).div_ceil(8) as usize;
    for b in &v.to_le_bytes()[..len] {
        h = (h ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
    }
    h.wrapping_mul(FNV_PRIME_POW[8 - len])
}

fn kind_tag(kind: &FrameKind) -> u64 {
    match kind {
        FrameKind::Data { .. } => 0,
        FrameKind::Report { .. } => 1,
        FrameKind::Beacon { .. } => 2,
        FrameKind::SwitchAnnounce { .. } => 3,
        FrameKind::Chirp { .. } => 4,
        FrameKind::Ack => 5,
        FrameKind::Cts => 6,
    }
}

fn width_tag(ch: WfChannel) -> u64 {
    match ch.width() {
        whitefi_spectrum::Width::W5 => 0,
        whitefi_spectrum::Width::W10 => 1,
        whitefi_spectrum::Width::W20 => 2,
    }
}

/// One bank's invariant state: the members of one network.
struct BankState {
    /// Whether the network runs the adaptive protocol: only its
    /// violations feed the process-wide total.
    adaptive: bool,
    /// Member environments, ascending by sim-local node id.
    members: Vec<MemberEnv>,
    /// `index[n]`: the position of member `n` in `members` (`None` for a
    /// non-member); rebuilt whenever a member is added.
    index: Vec<Option<usize>>,
    violations: Vec<Violation>,
    checked_tx: u64,
    digest: u64,
    /// Member transmissions currently on the air.
    fg_active: Vec<(u64, NodeId, WfChannel)>,
    /// Most recent observable transition.
    last_marker: SimTime,
    /// Liveness misses awaiting fault correlation at finish.
    pending_liveness: Vec<(NodeId, SimTime, SimTime)>,
    /// Occupancy splits awaiting fault correlation at finish.
    pending_occupancy: Vec<Violation>,
    /// Liveness misses explained by injected faults.
    explained: u64,
    /// Occupancy splits explained by injected faults.
    explained_occ: u64,
}

impl BankState {
    /// Index of member `n` in `members`, if `n` is a member.
    fn slot(&self, n: NodeId) -> Option<usize> {
        self.index.get(n).copied().flatten()
    }

    /// Registers (or re-registers) member `env` and rebuilds `index`.
    fn add_member(&mut self, env: MemberEnv) {
        match self.members.binary_search_by_key(&env.node, |e| e.node) {
            Ok(k) => self.members[k] = env,
            Err(k) => self.members.insert(k, env),
        }
        let len = self.members.last().map_or(0, |e| e.node + 1);
        self.index.clear();
        self.index.resize(len, None);
        for (k, e) in self.members.iter().enumerate() {
            self.index[e.node] = Some(k);
        }
    }

    fn is_member(&self, n: NodeId) -> bool {
        self.slot(n).is_some()
    }

    /// The scenario-stable identity of a node: a member's registered
    /// stable id, the raw sim id otherwise.
    fn stable_of(&self, n: NodeId) -> NodeId {
        self.slot(n).map_or(n, |k| self.members[k].stable)
    }

    fn violate(&mut self, kind: OracleKind, time: SimTime, node: Option<NodeId>, detail: String) {
        self.violations.push(Violation {
            kind,
            time,
            node,
            detail,
        });
    }

    /// A member transmission started.
    fn tx_start(&mut self, now: SimTime, tx: &Transmission) {
        let now_ns = now.as_nanos();
        let Some(k) = self.slot(tx.frame.src) else {
            return; // the router only hands over member transmissions
        };
        let src_stable = self.members[k].stable;
        self.checked_tx += 1;
        let grace = TRANSITION_GRACE;
        let bound = LIVENESS_BOUND;

        // A chirp or switch announcement is itself an observable
        // transition: refresh the marker before judging occupancy.
        if matches!(
            tx.frame.kind,
            FrameKind::Chirp { .. } | FrameKind::SwitchAnnounce { .. }
        ) {
            self.last_marker = now;
        }

        // --- Single-channel occupancy --------------------------------
        // Split operation is violating only when sustained: another
        // member transmitted on a different channel within the grace
        // window (on the air now, or recently), and no observable
        // transition happened within that window either.
        if now.saturating_since(self.last_marker) > grace {
            let split_live = self
                .fg_active
                .iter()
                .any(|&(_, n, c)| n != tx.frame.src && c != tx.channel);
            let split_recent = self.members.iter().any(|e| {
                e.node != tx.frame.src
                    && e.last_tx_channel.is_some_and(|c| c != tx.channel)
                    && now.saturating_since(e.last_tx_time) <= grace
            });
            if split_live || split_recent {
                // Judged at finish: a split sustained past the grace
                // window is a violation only when no injected fault
                // (e.g. a dropped SwitchAnnounce) explains the members
                // disagreeing about where the network lives — the same
                // correlation the liveness oracle applies.
                self.pending_occupancy.push(Violation {
                    kind: OracleKind::ChannelOccupancy,
                    time: now,
                    node: Some(src_stable),
                    detail: format!(
                        "member {} on {} while the network occupies another channel, \
                         >{:?} after the last transition",
                        src_stable, tx.channel, grace
                    ),
                });
            }
        }

        // --- Incumbent safety ----------------------------------------
        let env = &self.members[k];
        let static_hit = tx
            .channel
            .spanned()
            .find(|&u| env.static_occupied.is_occupied(u));
        let mic_hit = env
            .mic_windows
            .iter()
            .find(|w| tx.channel.contains(w.channel) && now_ns > w.deadline_ns && now_ns < w.off_ns)
            .copied();
        if let Some(u) = static_hit {
            self.violate(
                OracleKind::IncumbentSafety,
                now,
                Some(src_stable),
                format!(
                    "member {} transmitted on {} over statically occupied UHF {}",
                    src_stable,
                    tx.channel,
                    u.index()
                ),
            );
        }
        if let Some(w) = mic_hit {
            self.violate(
                OracleKind::IncumbentSafety,
                now,
                Some(src_stable),
                format!(
                    "member {} transmitted on {} over an active mic on UHF {} \
                     ({} ns past its detection deadline)",
                    src_stable,
                    tx.channel,
                    w.channel.index(),
                    now_ns - w.deadline_ns
                ),
            );
        }

        // --- Backup liveness -----------------------------------------
        let env = &mut self.members[k];
        if !env.is_ap {
            match tx.frame.kind {
                FrameKind::Chirp { .. } => {
                    env.live_open.get_or_insert(now);
                }
                _ if tx.frame.dst.is_some() => {
                    // Any unicast back to the network closes the window
                    // (data, report, or an ACK of AP traffic — all
                    // require a shared channel again).
                    if let Some(open) = env.live_open.take() {
                        if now.since(open) > bound {
                            self.pending_liveness.push((tx.frame.src, open, now));
                        }
                    }
                }
                _ => {}
            }
        }

        let env = &mut self.members[k];
        env.last_tx_channel = Some(tx.channel);
        env.last_tx_time = now;
        self.fg_active.push((tx.id, tx.frame.src, tx.channel));
    }

    /// A member transmission left the medium.
    fn tx_end(&mut self, tx: &Transmission, faulted_drop: bool) {
        if let Some(i) = self.fg_active.iter().position(|&(id, _, _)| id == tx.id) {
            self.fg_active.swap_remove(i);
        }
        // Foreground trace digest: every field that determines protocol
        // behaviour, member transmissions only. Node ids fold through
        // their stable identity so the digest is invariant under
        // sim-local renumbering (sharded == unsharded, DESIGN.md §13).
        let mut h = self.digest;
        h = fnv1a_word(h, self.stable_of(tx.frame.src) as u64);
        h = fnv1a_word(h, tx.channel.low_index() as u64);
        h = fnv1a_word(h, width_tag(tx.channel));
        h = fnv1a_word(h, tx.start.as_nanos());
        h = fnv1a_word(h, tx.end.as_nanos());
        h = fnv1a_word(h, kind_tag(&tx.frame.kind));
        h = fnv1a_word(h, tx.frame.bytes() as u64);
        h = fnv1a_word(
            h,
            tx.frame.dst.map_or(u64::MAX, |d| self.stable_of(d) as u64),
        );
        h = fnv1a_word(h, faulted_drop as u64);
        self.digest = h;
    }
}

/// Independent per-UHF busy recomputation (same union-of-overlaps
/// algorithm as the medium, fed from the observer hooks). It covers
/// every transmission on the medium, members or not, so one ledger per
/// simulator serves all of its banks.
#[derive(Default)]
struct AirtimeLedger {
    busy_ns: [u64; NUM_UHF_CHANNELS],
    active_count: [u32; NUM_UHF_CHANNELS],
    last_change_ns: [u64; NUM_UHF_CHANNELS],
}

impl AirtimeLedger {
    fn accrue(&mut self, u: UhfChannel, now_ns: u64) {
        let i = u.index();
        if self.active_count[i] > 0 {
            self.busy_ns[i] += now_ns - self.last_change_ns[i];
        }
        self.last_change_ns[i] = now_ns;
    }

    fn tx_start(&mut self, now: SimTime, tx: &Transmission) {
        for u in tx.channel.spanned() {
            self.accrue(u, now.as_nanos());
            self.active_count[u.index()] += 1;
        }
    }

    fn tx_end(&mut self, now: SimTime, tx: &Transmission) {
        for u in tx.channel.spanned() {
            self.accrue(u, now.as_nanos());
            self.active_count[u.index()] -= 1;
        }
    }

    /// The airtime-conservation verdict at the end of the run: the
    /// medium's busy counters must equal this recomputation exactly and
    /// never exceed wall-clock time.
    fn violations(&self, sim: &Simulator) -> Vec<Violation> {
        let now = sim.now();
        let now_ns = now.as_nanos();
        let mut out = Vec::new();
        let mut violate = |detail: String| {
            out.push(Violation {
                kind: OracleKind::AirtimeConservation,
                time: now,
                node: None,
                detail,
            });
        };
        for i in 0..NUM_UHF_CHANNELS {
            let mut mine = self.busy_ns[i];
            if self.active_count[i] > 0 {
                mine += now_ns - self.last_change_ns[i];
            }
            let u = UhfChannel::from_index(i);
            let med = sim.medium().busy_total(u, now).as_nanos();
            if mine != med {
                violate(format!(
                    "UHF {i}: medium busy {med} ns, independent recomputation {mine} ns"
                ));
            }
            if med > now_ns {
                violate(format!(
                    "UHF {i}: busy {med} ns exceeds wall clock {now_ns} ns"
                ));
            }
        }
        out
    }
}

/// Everything the oracles of one simulator share: the banks, the
/// node → bank routing table and the airtime ledger.
#[derive(Default)]
struct Hub {
    banks: Vec<BankState>,
    /// `owner[n]`: index of the bank node `n` is a member of (`None` for
    /// background nodes).
    owner: Vec<Option<usize>>,
    airtime: AirtimeLedger,
}

impl Hub {
    /// The bank owning node `n`, if `n` is a member of one.
    fn bank_of(&mut self, n: NodeId) -> Option<&mut BankState> {
        let b = self.owner.get(n).copied().flatten()?;
        Some(&mut self.banks[b])
    }
}

static ADAPTIVE_VIOLATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide oracle totals, for experiment reporting (mirrors
/// [`whitefi_mac::global_event_totals`]): snapshot before and after a
/// workload and diff with [`OracleTotals::delta_since`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleTotals {
    /// Violations reported by adaptive (WhiteFi) runs — the protocol
    /// bugs; must stay zero on seed scenarios. Pinned baselines are not
    /// counted: static networks transmit over incumbents by design, the
    /// paper's motivating failure rather than a simulator bug.
    pub adaptive_violations: u64,
}

impl OracleTotals {
    /// Counter-wise `self - earlier`.
    pub fn delta_since(&self, earlier: OracleTotals) -> OracleTotals {
        OracleTotals {
            adaptive_violations: self
                .adaptive_violations
                .wrapping_sub(earlier.adaptive_violations),
        }
    }
}

/// Process-wide totals of every finalized [`OracleReport`].
pub fn global_oracle_totals() -> OracleTotals {
    OracleTotals {
        adaptive_violations: ADAPTIVE_VIOLATIONS.load(Ordering::Relaxed),
    }
}

/// The oracles of one simulator: one [`OracleBank`] per network, one
/// passive [`SimObserver`] tap that routes each hook to the bank of the
/// node it concerns, and one airtime-conservation ledger for the whole
/// medium. A driver running a single network is the one-bank case.
#[derive(Default)]
pub struct OracleSet {
    hub: Rc<RefCell<Hub>>,
}

impl OracleSet {
    /// A set with no banks yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds the bank of one network (no members yet): the adaptive
    /// protocol (`adaptive`) or a pinned baseline, whose violations the
    /// process-wide [`global_oracle_totals`] leave out.
    pub fn add_bank(&self, adaptive: bool) -> OracleBank {
        let mut hub = self.hub.borrow_mut();
        hub.banks.push(BankState {
            adaptive,
            members: Vec::new(),
            index: Vec::new(),
            violations: Vec::new(),
            checked_tx: 0,
            digest: FNV_OFFSET,
            fg_active: Vec::new(),
            last_marker: SimTime::ZERO,
            pending_liveness: Vec::new(),
            pending_occupancy: Vec::new(),
            explained: 0,
            explained_occ: 0,
        });
        OracleBank {
            hub: Rc::clone(&self.hub),
            bank: hub.banks.len() - 1,
        }
    }

    /// The passive engine tap; install with
    /// [`Simulator::set_observer`].
    pub fn observer(&self) -> Box<dyn SimObserver> {
        Box::new(OracleObserver {
            hub: Rc::clone(&self.hub),
        })
    }
}

/// One network's oracles: checks its members' transmissions and
/// finalizes into an [`OracleReport`]. Created by
/// [`OracleSet::add_bank`].
pub struct OracleBank {
    hub: Rc<RefCell<Hub>>,
    bank: usize,
}

impl OracleBank {
    /// Registers a foreground member with its incumbent environment and
    /// *total* detection latency (configured delay plus any faulted
    /// extra), under a scenario-stable identity `stable` that may differ
    /// from the sim-local node id. Digests and violation details fold
    /// `stable`, so a member produces byte-identical reports regardless
    /// of which simulator — global or shard-local — hosts it (DESIGN.md
    /// §13). Non-registered nodes are background: they feed only the
    /// airtime conservation check.
    pub fn add_member_as(
        &self,
        node: NodeId,
        stable: NodeId,
        is_ap: bool,
        incumbents: &IncumbentSet,
        detection_total: SimDuration,
    ) {
        let mut hub = self.hub.borrow_mut();
        if hub.owner.len() <= node {
            hub.owner.resize(node + 1, None);
        }
        assert!(
            hub.owner[node].is_none_or(|b| b == self.bank),
            "node {node} is already a member of another bank"
        );
        hub.owner[node] = Some(self.bank);
        let mut static_occupied = SpectrumMap::all_free();
        for tv in &incumbents.tv {
            if tv.detectable_at(SCANNER_SENSITIVITY_DBM) {
                static_occupied.set_occupied(tv.channel);
            }
        }
        let mut mic_windows = Vec::new();
        for mic in &incumbents.mics {
            if mic.power_dbm < SCANNER_SENSITIVITY_DBM {
                continue;
            }
            for iv in mic.schedule.intervals() {
                mic_windows.push(MicWindow {
                    channel: mic.channel,
                    deadline_ns: iv.start + detection_total.as_nanos(),
                    off_ns: iv.end,
                });
            }
        }
        let env = MemberEnv {
            node,
            stable,
            is_ap,
            static_occupied,
            mic_windows,
            live_open: None,
            last_tx_channel: None,
            last_tx_time: SimTime::ZERO,
        };
        hub.banks[self.bank].add_member(env);
    }

    /// Finalizes the bank against the finished simulation: runs the
    /// airtime conservation check, closes liveness windows, correlates
    /// misses with injected faults, and returns the report. Also feeds
    /// the process-wide [`global_oracle_totals`] counters.
    pub fn finish(&self, sim: &Simulator) -> OracleReport {
        let mut hub = self.hub.borrow_mut();
        let now = sim.now();

        // --- Airtime conservation ------------------------------------
        // One verdict for the whole medium, the same in every bank.
        let conservation = hub.airtime.violations(sim);
        let inner = &mut hub.banks[self.bank];
        inner.violations.extend(conservation);

        // --- Backup liveness: close windows still open at the end ----
        let bound = LIVENESS_BOUND;
        let mut tail = Vec::new();
        for env in &mut inner.members {
            if let Some(open) = env.live_open.take() {
                if now.since(open) > bound {
                    tail.push((env.node, open, now));
                }
                // A window younger than the bound at simulation end is
                // truncated, not judged.
            }
        }
        inner.pending_liveness.extend(tail);

        // A miss is *explained* when an injected fault plausibly caused
        // it: any fault at a member node in (or shortly before) the
        // window, a faulted detection stretch on a member, or a skewed
        // scanner history horizon (which perturbs every chirp scan).
        let skewed = sim.fault_plan().is_some_and(|p| p.history_skew.is_some());

        // --- Channel occupancy: correlate splits with faults ---------
        // A split episode is explained when a fault hit a member within
        // the liveness bound before it: a dropped or delayed control
        // frame (SwitchAnnounce, Beacon) leaves part of the network on
        // the old channel until the client watchdog recovers — the
        // designed recovery path, not a protocol bug. Unfaulted splits
        // still violate.
        let pending_occ = std::mem::take(&mut inner.pending_occupancy);
        for v in pending_occ {
            let explained = skewed
                || sim.fault_events().iter().any(|e| {
                    inner.is_member(e.node) && e.time <= v.time && e.time + bound >= v.time
                });
            if explained {
                inner.explained_occ += 1;
            } else {
                inner.violations.push(v);
            }
        }

        let pending = std::mem::take(&mut inner.pending_liveness);
        for (node, open, close) in pending {
            let explained = skewed
                || sim.fault_events().iter().any(|e| {
                    inner.is_member(e.node)
                        && (matches!(e.kind, FaultEventKind::DetectionExtra(_))
                            || (e.time <= close && e.time + bound >= open))
                });
            if explained {
                // Count the explanation instead of a violation.
                inner.explained += 1;
            } else {
                let stable = inner.stable_of(node);
                inner.violate(
                    OracleKind::BackupLiveness,
                    close,
                    Some(stable),
                    format!(
                        "client {} disconnected at {:?} and had not reassociated \
                         {:?} later (bound {:?}), with no fault to explain it",
                        stable,
                        open,
                        close.since(open),
                        bound
                    ),
                );
            }
        }

        let report = OracleReport {
            violations: inner.violations.clone(),
            checked_tx: inner.checked_tx,
            explained_liveness: inner.explained,
            explained_occupancy: inner.explained_occ,
            trace_digest: inner.digest,
        };
        if inner.adaptive {
            ADAPTIVE_VIOLATIONS.fetch_add(report.violations.len() as u64, Ordering::Relaxed);
        }
        report
    }
}

/// The routing tap: the airtime ledger sees every transmission, and
/// each member hook goes to the owning node's bank only.
struct OracleObserver {
    hub: Rc<RefCell<Hub>>,
}

impl SimObserver for OracleObserver {
    fn on_tx_start(&mut self, now: SimTime, tx: &Transmission) {
        let mut hub = self.hub.borrow_mut();
        hub.airtime.tx_start(now, tx);
        if let Some(bank) = hub.bank_of(tx.frame.src) {
            bank.tx_start(now, tx);
        }
    }

    fn on_tx_end(&mut self, now: SimTime, tx: &Transmission, faulted_drop: bool) {
        let mut hub = self.hub.borrow_mut();
        hub.airtime.tx_end(now, tx);
        if let Some(bank) = hub.bank_of(tx.frame.src) {
            bank.tx_end(tx, faulted_drop);
        }
    }

    fn on_retune(&mut self, now: SimTime, node: NodeId, _old: WfChannel, _new: WfChannel) {
        if let Some(bank) = self.hub.borrow_mut().bank_of(node) {
            bank.last_marker = now;
        }
    }

    fn on_observed_map(&mut self, now: SimTime, node: NodeId, _map: &SpectrumMap) {
        if let Some(bank) = self.hub.borrow_mut().bank_of(node) {
            bank.last_marker = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The reference: FNV-1a over all eight little-endian bytes.
    fn fnv1a_word_bytes(mut h: u64, v: u64) -> u64 {
        for b in v.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// The zero-byte collapse equals the byte loop on zero, every value
    /// below 256, each `256^k` boundary (and its neighbours), words with
    /// interior zero bytes, `u64::MAX` and 10,000 seeded random words,
    /// from both the offset basis and a random running hash.
    #[test]
    fn fnv1a_word_equals_the_byte_loop() {
        let mut words: Vec<u64> = (0..256).collect();
        for k in 1..8 {
            let p = 1u64 << (8 * k);
            words.extend([p - 1, p, p + 1]);
        }
        words.extend([0x0100, 0x00ff_0000_0001, 0x0100_0000_0000_0001, u64::MAX]);
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        words.extend((0..10_000).map(|_| {
            // Spread the significant length over 1..=8 bytes.
            let v: u64 = rng.gen();
            v >> (8 * rng.gen_range(0..8))
        }));
        for v in words {
            for h in [FNV_OFFSET, rng.gen()] {
                assert_eq!(
                    fnv1a_word(h, v),
                    fnv1a_word_bytes(h, v),
                    "h {h:#x}, v {v:#x}"
                );
            }
        }
    }

    /// The O(1) member index agrees with a binary search of `members`
    /// for every node id — members, non-members and ids past the end of
    /// the table — after registrations in descending, then interleaved
    /// order, and after re-registering existing members.
    #[test]
    fn member_index_agrees_with_binary_search() {
        let set = OracleSet::new();
        let bank = set.add_bank(true);
        let none = IncumbentSet::default();
        let add = |node: NodeId, stable: NodeId| {
            bank.add_member_as(node, stable, node == 9, &none, SimDuration::ZERO);
        };
        let check = |ctx: &str| {
            let hub = set.hub.borrow();
            let b = &hub.banks[bank.bank];
            for n in 0..40 {
                let want = b.members.binary_search_by_key(&n, |e| e.node).ok();
                assert_eq!(b.slot(n), want, "{ctx}: node {n}");
                assert_eq!(b.is_member(n), want.is_some(), "{ctx}: node {n}");
                let stable = want.map_or(n, |k| b.members[k].stable);
                assert_eq!(b.stable_of(n), stable, "{ctx}: node {n}");
            }
        };
        check("empty");
        for node in [9, 7, 4, 2] {
            add(node, 100 + node);
            check(&format!("descending, after {node}"));
        }
        for node in [3, 12, 0, 8, 20] {
            add(node, 100 + node);
            check(&format!("interleaved, after {node}"));
        }
        // The `Ok(k)` branch: re-registering replaces in place.
        add(7, 207);
        add(20, 220);
        check("re-registered");
        let hub = set.hub.borrow();
        let b = &hub.banks[bank.bank];
        assert_eq!(b.members.len(), 9);
        assert_eq!(b.stable_of(7), 207);
        assert_eq!(b.stable_of(20), 220);
        assert_eq!(b.index.len(), 21, "the table ends at the largest member");
    }
}
