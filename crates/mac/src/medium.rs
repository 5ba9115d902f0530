//! The shared radio medium: a registry of the nodes that may transmit,
//! active transmissions, per-UHF-channel occupancy accounting, and
//! windowed queries for the scanning radio.

use crate::frames::{Frame, NodeId};
use std::collections::VecDeque;
use whitefi_phy::{Burst, SimDuration, SimTime, VisibleBurst};
use whitefi_spectrum::{UhfChannel, WfChannel, NUM_UHF_CHANNELS};

/// One frame on the air, sent by `frame.src`. Facts about the
/// transmitter that do not change per frame (its AP flag and SSID) live
/// in the medium's source registry, not here.
#[derive(Debug, Clone, PartialEq)]
pub struct Transmission {
    /// Unique id.
    pub id: u64,
    /// The `(F, W)` channel the frame is sent on.
    pub channel: WfChannel,
    /// Start of the transmission.
    pub start: SimTime,
    /// End of the transmission.
    pub end: SimTime,
    /// The frame itself.
    pub frame: Frame,
}

/// Received amplitude of every node's transmissions at its peers
/// (linear units; drives SIFT visibility of captured traces).
const TX_AMPLITUDE: f64 = 1000.0;

impl Transmission {
    /// Whether this transmission overlaps `[from, to)` in time.
    pub fn overlaps_window(&self, from: SimTime, to: SimTime) -> bool {
        self.start < to && self.end > from
    }

    /// Converts to a scanner-visible burst.
    pub fn to_visible(&self) -> VisibleBurst {
        VisibleBurst {
            channel: self.channel,
            burst: Burst {
                start: self.start,
                duration: self.end.since(self.start),
                width: self.channel.width(),
                amplitude: TX_AMPLITUDE,
                kind: self.frame.kind.burst_kind(),
            },
        }
    }
}

/// The per-source index's copy of a history entry's span: its finish
/// sequence number plus the `start`, `end` and `channel` every scanner
/// filter tests, so a query touches the 72-byte [`Transmission`] itself
/// only to materialize a burst.
#[derive(Debug, Clone, Copy, PartialEq)]
struct HistoryKey {
    seq: usize,
    start: SimTime,
    end: SimTime,
    channel: WfChannel,
}

/// One registered transmitter: its fixed AP flag and SSID, and its slice
/// of the history index.
#[derive(Debug, Clone)]
struct SourceHistory {
    /// Whether the node is an access point (drives the `B_c`
    /// interfering-AP estimate of Equation 1).
    is_ap: bool,
    /// The node's network (SSID). Scanner queries exclude a node's own
    /// SSID: Equation 1's `A_c`/`B_c` measure *other* networks' load,
    /// not the measuring network's own traffic.
    ssid: Option<u32>,
    /// Keys of the source's transmissions still in `history`, ascending
    /// by finish sequence number (hence by `end`).
    keys: VecDeque<HistoryKey>,
}

impl SourceHistory {
    /// Keys whose span can overlap a window starting at `from`, newest
    /// first: the early stop of [`Medium::recent_history`], per source.
    fn recent(&self, from: SimTime) -> impl Iterator<Item = &HistoryKey> {
        self.keys.iter().rev().take_while(move |k| k.end > from)
    }

    /// Whether Equation 1's measurements skip this source outright: it
    /// belongs to the measuring node's own network.
    fn excluded(&self, exclude_ssid: Option<u32>) -> bool {
        exclude_ssid.is_some() && self.ssid == exclude_ssid
    }
}

/// The medium: registered sources, active transmissions plus a pruned
/// history for windowed airtime queries (the scanning radio's view).
///
/// Every node is registered once, with [`Medium::add_source`], before it
/// transmits; node ids are registration order.
///
/// `history` is ordered by nondecreasing `end` time: transmissions are
/// appended by [`Medium::finish`] at their end time, and the event loop
/// finishes them in time order. Windowed queries exploit this to scan
/// backwards from the newest entry and stop at the first one that ended
/// at or before the window start, instead of walking the whole horizon.
///
/// Every finished transmission gets a *finish sequence number* (0 for
/// the first one finished, then 1, 2, …), so history order is finish
/// sequence order. A per-source index of `HistoryKey`s lets the
/// scanner queries visit only the transmitters a node hears: each
/// source's entries are a subsequence of `history`, hence also sorted by
/// `end`, and the same backwards scan applies per source.
#[derive(Debug)]
pub struct Medium {
    active: Vec<Transmission>,
    /// `active_ids[i] == active[i].id`: [`Medium::finish`] searches
    /// these 8-byte ids, not the 80-byte entries.
    active_ids: Vec<u64>,
    history: VecDeque<Transmission>,
    /// Finish sequence number of `history.front()`: the entry with
    /// sequence `s` sits at `history[s - history_base]`.
    history_base: usize,
    /// `by_src[n]`: registered node `n` and its keys still in `history`.
    /// Pruned together with `history`, so the lists hold exactly
    /// `history.len()` keys between them.
    by_src: Vec<SourceHistory>,
    /// How much history to retain for scanner queries. Drivers may
    /// tighten this when no scanner will ever look back (fixed-channel
    /// baseline runs keep 300 ms); queries never reach past their
    /// window, so shrinking the horizon below the longest query window
    /// actually issued is the only way it can change results. In debug
    /// builds it must also cover the longest frame (a few milliseconds,
    /// asserted): the engine checks every interference verdict against
    /// [`Medium::interferer_sources_into`], which looks back from a
    /// frame's end to its start.
    pub history_horizon: SimDuration,
    /// Cumulative busy time per UHF channel since simulation start
    /// (union of overlapping transmissions — exact, via active counts).
    busy_total: [SimDuration; NUM_UHF_CHANNELS],
    active_count: [u32; NUM_UHF_CHANNELS],
    last_change: [SimTime; NUM_UHF_CHANNELS],
    next_id: u64,
}

impl Default for Medium {
    fn default() -> Self {
        Self::new()
    }
}

impl Medium {
    /// An empty medium with a 3-second history horizon.
    pub fn new() -> Self {
        Self {
            active: Vec::new(),
            active_ids: Vec::new(),
            history: VecDeque::new(),
            history_base: 0,
            by_src: Vec::new(),
            history_horizon: SimDuration::from_secs(3),
            busy_total: [SimDuration::ZERO; NUM_UHF_CHANNELS],
            active_count: [0; NUM_UHF_CHANNELS],
            last_change: [SimTime::ZERO; NUM_UHF_CHANNELS],
            next_id: 0,
        }
    }

    /// Registers the next node as a transmitter, with its fixed AP flag
    /// and SSID; returns its id (0 for the first source, then 1, 2, …).
    pub fn add_source(&mut self, is_ap: bool, ssid: Option<u32>) -> NodeId {
        self.by_src.push(SourceHistory {
            is_ap,
            ssid,
            keys: VecDeque::new(),
        });
        self.by_src.len() - 1
    }

    /// The id the next [`Medium::start`] assigns: ids follow start order.
    pub(crate) fn next_id(&self) -> u64 {
        self.next_id
    }

    /// Starts a transmission of `frame` by its registered source
    /// `frame.src`; returns its id.
    pub fn start(&mut self, channel: WfChannel, start: SimTime, end: SimTime, frame: Frame) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        for ch in channel.spanned() {
            self.accrue(ch, start);
            self.active_count[ch.index()] += 1;
        }
        self.active_ids.push(id);
        self.active.push(Transmission {
            id,
            channel,
            start,
            end,
            frame,
        });
        id
    }

    /// Finishes a transmission, moving it to history. Returns a clone
    /// for the caller's delivery pass; history keeps the original.
    ///
    /// Callers must finish transmissions in nondecreasing order of their
    /// `end` times (the discrete-event loop does: `TxEnd` fires at
    /// `end`); windowed queries rely on the resulting history order.
    pub fn finish(&mut self, id: u64, now: SimTime) -> Transmission {
        let idx = self
            .active_ids
            .iter()
            .position(|&a| a == id)
            // lint:allow(unwrap, TxEnd fires exactly once per `start` id; a miss is engine corruption, documented panic)
            .expect("finishing unknown transmission");
        // Both vectors swap the same slots, so active-list order (which
        // `visible_bursts` exposes) is what a search of `active` gives.
        self.active_ids.swap_remove(idx);
        let tx = self.active.swap_remove(idx);
        for ch in tx.channel.spanned() {
            self.accrue(ch, now);
            self.active_count[ch.index()] -= 1;
        }
        debug_assert!(
            self.history.back().is_none_or(|p| p.end <= tx.end),
            "history must stay sorted by end time"
        );
        let seq = self.history_base + self.history.len();
        self.by_src[tx.frame.src].keys.push_back(HistoryKey {
            seq,
            start: tx.start,
            end: tx.end,
            channel: tx.channel,
        });
        self.history.push_back(tx.clone());
        self.prune(now);
        tx
    }

    /// History entries whose `[start, end)` span can overlap a window
    /// starting at `from`, newest first. Because `history` is sorted by
    /// nondecreasing `end`, the backwards scan stops at the first entry
    /// that ended at or before `from` — O(entries in the window) rather
    /// than O(entries in the horizon).
    fn recent_history(&self, from: SimTime) -> impl Iterator<Item = &Transmission> {
        self.history.iter().rev().take_while(move |t| t.end > from)
    }

    /// The history entry with finish sequence number `seq`.
    fn at_seq(&self, seq: usize) -> &Transmission {
        &self.history[seq - self.history_base]
    }

    /// The heard sources with their registry entries, ascending by id:
    /// `heard` (ascending, registered ids, no duplicates), or every
    /// registered source for `None`.
    fn sources<'a>(
        &'a self,
        heard: Option<&'a [NodeId]>,
    ) -> impl Iterator<Item = (NodeId, &'a SourceHistory)> {
        let all = heard.is_none().then(|| self.by_src.iter().enumerate());
        let some = heard.map(|h| h.iter().map(|&src| (src, &self.by_src[src])));
        all.into_iter().flatten().chain(some.into_iter().flatten())
    }

    /// Active transmissions from the heard sources (as in
    /// [`Medium::sources`]), in active-list order.
    fn active_heard<'a>(
        &'a self,
        heard: Option<&'a [NodeId]>,
    ) -> impl Iterator<Item = &'a Transmission> {
        self.active
            .iter()
            .filter(move |t| heard.is_none_or(|h| h.binary_search(&t.frame.src).is_ok()))
    }

    fn accrue(&mut self, ch: UhfChannel, now: SimTime) {
        let i = ch.index();
        if self.active_count[i] > 0 {
            self.busy_total[i] += now.since(self.last_change[i]);
        }
        self.last_change[i] = now;
    }

    fn prune(&mut self, now: SimTime) {
        let cutoff = now.saturating_since(SimTime::ZERO + self.history_horizon);
        let cutoff = SimTime::ZERO + cutoff;
        while let Some(front) = self.history.front() {
            if front.end < cutoff {
                let src = front.frame.src;
                self.history.pop_front();
                let head = self.by_src[src].keys.pop_front();
                debug_assert_eq!(
                    head.map(|k| k.seq),
                    Some(self.history_base),
                    "per-source index out of sync"
                );
                self.history_base += 1;
            } else {
                break;
            }
        }
    }

    /// The transmissions currently on the air.
    pub fn active(&self) -> &[Transmission] {
        &self.active
    }

    /// Cumulative busy time on `ch` since simulation start, as of `now`.
    pub fn busy_total(&self, ch: UhfChannel, now: SimTime) -> SimDuration {
        let i = ch.index();
        let mut total = self.busy_total[i];
        if self.active_count[i] > 0 {
            total += now.since(self.last_change[i]);
        }
        total
    }

    /// Busy airtime fraction of `ch` over the window `[from, to)`,
    /// estimated from transmission history (the scanning radio's
    /// measurement; overlapping transmissions may double-count, so the
    /// result is clamped to 1).
    ///
    /// Sources of SSID `exclude_ssid` are ignored: a node measuring
    /// residual airtime for Equation 1 must not count its own network's
    /// traffic. `heard` restricts the count to those transmitters
    /// (ascending node ids, no duplicates; `None` hears every registered
    /// source) — the scanning radio only measures signals that
    /// physically reach it. The engine passes the node's heard-source
    /// list, so a scan at one node is independent of out-of-range
    /// traffic (the property city sharding relies on, DESIGN.md §13) and
    /// costs time in proportion to the traffic it can hear, not to the
    /// whole medium's.
    pub fn airtime_in_window(
        &self,
        ch: UhfChannel,
        from: SimTime,
        to: SimTime,
        exclude_ssid: Option<u32>,
        heard: Option<&[NodeId]>,
    ) -> f64 {
        assert!(to > from, "empty airtime window");
        let clipped = |start: SimTime, end: SimTime| end.min(to).since(start.max(from)).as_nanos();
        let mut busy = 0u64;
        // Summation order differs from a forward scan, but the busy
        // accumulator is an integer, so the result is order-independent.
        for (_, source) in self.sources(heard) {
            if source.excluded(exclude_ssid) {
                continue;
            }
            for k in source.recent(from) {
                if k.channel.contains(ch) && k.start < to {
                    busy += clipped(k.start, k.end);
                }
            }
        }
        // Only active transmissions spanning `ch` can contribute; the
        // counter skips the scan entirely when there are none.
        if self.active_count[ch.index()] > 0 {
            for t in self.active_heard(heard) {
                if t.channel.contains(ch)
                    && t.overlaps_window(from, to)
                    && !self.by_src[t.frame.src].excluded(exclude_ssid)
                {
                    busy += clipped(t.start, t.end);
                }
            }
        }
        (busy as f64 / to.since(from).as_nanos() as f64).min(1.0)
    }

    /// Number of distinct *AP* transmitters seen on `ch` in `[from, to)`
    /// — the `B_c` estimate of Equation 1 ("we estimate the number of
    /// contending nodes as the number of interfering APs"). APs of SSID
    /// `exclude_ssid` are ignored (Equation 1 counts *other* access
    /// points), and `heard` restricts the count as in
    /// [`Medium::airtime_in_window`].
    pub fn ap_count_in_window(
        &self,
        ch: UhfChannel,
        from: SimTime,
        to: SimTime,
        exclude_ssid: Option<u32>,
        heard: Option<&[NodeId]>,
    ) -> u32 {
        let counts = |source: &SourceHistory| source.is_ap && !source.excluded(exclude_ssid);
        // Distinct-transmitter counting is order-independent: a source
        // counts once if any of its active or recent transmissions does.
        let mut seen: Vec<NodeId> = Vec::new();
        if self.active_count[ch.index()] > 0 {
            for t in self.active_heard(heard) {
                let src = t.frame.src;
                if counts(&self.by_src[src])
                    && t.channel.contains(ch)
                    && t.overlaps_window(from, to)
                    && !seen.contains(&src)
                {
                    seen.push(src);
                }
            }
        }
        let mut n = seen.len();
        for (src, source) in self.sources(heard) {
            if counts(source)
                && !seen.contains(&src)
                && source
                    .recent(from)
                    .any(|k| k.channel.contains(ch) && k.start < to)
            {
                n += 1;
            }
        }
        u32::try_from(n).unwrap_or(u32::MAX)
    }

    /// The transmissions (active or recent) overlapping `[from, to)` that
    /// `keep(channel, start, end)` accepts, as scanner-visible bursts.
    /// `heard` restricts them to those transmitters, as in
    /// [`Medium::airtime_in_window`]. Feed these to
    /// [`whitefi_phy::Scanner::capture_stream`] for block-at-a-time
    /// signal-level SIFT (or [`whitefi_phy::Scanner::capture`] when a
    /// whole materialized trace is wanted).
    ///
    /// Output order is finished transmissions first, oldest finish
    /// first (the heard sources' kept history entries are merged by
    /// finish sequence number), then the active ones in active-list
    /// order. The active list is append-on-start, but [`Medium::finish`]
    /// removes with `swap_remove`, which moves the newest entry into the
    /// finished one's slot — so active order is deterministic but is
    /// *not* start order. Consumers like the AP's chirp scan take the
    /// *first* matching burst, so this order is part of the simulation's
    /// output.
    ///
    /// `keep` runs on the index keys, before the merge, so a scanner
    /// that wants a few bursts out of a busy window neither sorts nor
    /// materializes the rest, and dropping entries from a sorted merge
    /// leaves the kept ones in the same order.
    pub fn visible_bursts(
        &self,
        from: SimTime,
        to: SimTime,
        heard: Option<&[NodeId]>,
        keep: impl Fn(WfChannel, SimTime, SimTime) -> bool,
    ) -> Vec<VisibleBurst> {
        let mut seqs: Vec<usize> = Vec::new();
        for (_, source) in self.sources(heard) {
            seqs.extend(
                source
                    .recent(from)
                    .filter(|k| k.start < to && keep(k.channel, k.start, k.end))
                    .map(|k| k.seq),
            );
        }
        seqs.sort_unstable();
        let mut out: Vec<VisibleBurst> =
            seqs.iter().map(|&s| self.at_seq(s).to_visible()).collect();
        out.extend(
            self.active_heard(heard)
                .filter(|t| t.overlaps_window(from, to) && keep(t.channel, t.start, t.end))
                .map(|t| t.to_visible()),
        );
        out
    }

    /// Raw transmissions (history + active) overlapping `[from, to)`, by
    /// a plain scan of the whole window with no per-source index: the
    /// brute-force reference the indexed queries are tested against.
    /// Same output order as [`Medium::visible_bursts`].
    #[cfg(test)]
    fn visible_window_transmissions(&self, from: SimTime, to: SimTime) -> Vec<Transmission> {
        let mut out: Vec<Transmission> = self
            .recent_history(from)
            .filter(|t| t.overlaps_window(from, to))
            .cloned()
            .collect();
        out.reverse();
        out.extend(
            self.active
                .iter()
                .filter(|t| t.overlaps_window(from, to))
                .cloned(),
        );
        out
    }

    /// Appends to `out` the source node of every transmission (history +
    /// active) that intersects `channel` and overlaps `[from, to)`,
    /// excluding transmission `exclude_id`. Allocation-free: the caller
    /// only needs the transmitter identities, in any order (it asks "is
    /// any interferer in range of this receiver").
    ///
    /// This walks every transmission in the window, heard or not. The
    /// engine decides delivery interference from per-node carrier
    /// bookkeeping instead and calls this only in debug builds, as the
    /// reference every verdict is checked against.
    pub fn interferer_sources_into(
        &self,
        channel: WfChannel,
        from: SimTime,
        to: SimTime,
        exclude_id: u64,
        out: &mut Vec<NodeId>,
    ) {
        for t in self.recent_history(from).chain(self.active.iter()) {
            if t.id != exclude_id && t.channel.overlaps(channel) && t.overlaps_window(from, to) {
                out.push(t.frame.src);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use whitefi_spectrum::Width;

    /// A data frame from `src`.
    fn frame(src: NodeId) -> Frame {
        Frame::data(src, 0, 500)
    }

    fn ch(center: usize, w: Width) -> WfChannel {
        WfChannel::from_parts(center, w)
    }

    /// A medium with `n` registered sources, none an AP, none in a
    /// network.
    fn medium(n: usize) -> Medium {
        let mut m = Medium::new();
        for _ in 0..n {
            m.add_source(false, None);
        }
        m
    }

    /// The burst filter that keeps everything.
    fn all(_: WfChannel, _: SimTime, _: SimTime) -> bool {
        true
    }

    #[test]
    fn busy_accounting_union_not_sum() {
        let mut m = medium(2);
        let c = ch(10, Width::W5);
        // Two overlapping transmissions on the same channel: busy time is
        // the union, not the sum.
        let a = m.start(
            c,
            SimTime::from_micros(0),
            SimTime::from_micros(100),
            frame(0),
        );
        let b = m.start(
            c,
            SimTime::from_micros(50),
            SimTime::from_micros(150),
            frame(1),
        );
        m.finish(a, SimTime::from_micros(100));
        m.finish(b, SimTime::from_micros(150));
        let busy = m.busy_total(UhfChannel::from_index(10), SimTime::from_micros(200));
        assert_eq!(busy.as_micros(), 150);
    }

    #[test]
    fn airtime_window_measures_overlap() {
        let mut m = medium(1);
        let c = ch(5, Width::W5);
        let a = m.start(
            c,
            SimTime::from_millis(10),
            SimTime::from_millis(20),
            frame(0),
        );
        m.finish(a, SimTime::from_millis(20));
        let u = UhfChannel::from_index(5);
        // Fully inside the window.
        let f = m.airtime_in_window(u, SimTime::ZERO, SimTime::from_millis(100), None, None);
        assert!((f - 0.1).abs() < 1e-9);
        // Window clips the transmission.
        let (from, to) = (SimTime::from_millis(15), SimTime::from_millis(25));
        let f = m.airtime_in_window(u, from, to, None, None);
        assert!((f - 0.5).abs() < 1e-9);
        // Unrelated channel is idle.
        let f = m.airtime_in_window(
            UhfChannel::from_index(6),
            SimTime::ZERO,
            SimTime::from_millis(100),
            None,
            None,
        );
        assert_eq!(f, 0.0);
    }

    #[test]
    fn ap_count_distinct_aps_only() {
        let mut m = Medium::new();
        for is_ap in [true, true, false] {
            m.add_source(is_ap, None);
        }
        let c = ch(5, Width::W5);
        for src in [0, 0, 1, 2] {
            let id = m.start(
                c,
                SimTime::from_millis(1),
                SimTime::from_millis(2),
                frame(src),
            );
            m.finish(id, SimTime::from_millis(2));
        }
        let n = m.ap_count_in_window(
            UhfChannel::from_index(5),
            SimTime::ZERO,
            SimTime::from_millis(10),
            None,
            None,
        );
        assert_eq!(n, 2); // nodes 0 and 1; node 2 is not an AP
    }

    #[test]
    fn visible_bursts_window_filter() {
        let mut m = medium(1);
        let c = ch(5, Width::W10);
        let a = m.start(
            c,
            SimTime::from_millis(1),
            SimTime::from_millis(2),
            frame(0),
        );
        m.finish(a, SimTime::from_millis(2));
        assert_eq!(
            m.visible_bursts(SimTime::ZERO, SimTime::from_millis(5), None, all)
                .len(),
            1
        );
        assert!(m
            .visible_bursts(SimTime::from_millis(3), SimTime::from_millis(5), None, all)
            .is_empty());
        let vb = &m.visible_bursts(SimTime::ZERO, SimTime::from_millis(5), None, all)[0];
        assert_eq!(vb.channel, c);
        assert_eq!(vb.burst.width, Width::W10);
    }

    #[test]
    fn history_pruned_beyond_horizon() {
        let mut m = medium(1);
        let c = ch(5, Width::W5);
        let a = m.start(c, SimTime::ZERO, SimTime::from_millis(1), frame(0));
        m.finish(a, SimTime::from_millis(1));
        assert_eq!(
            m.visible_bursts(SimTime::ZERO, SimTime::from_secs(100), None, all)
                .len(),
            1
        );
        // A later transmission triggers pruning of the stale one.
        let b = m.start(c, SimTime::from_secs(10), SimTime::from_secs(11), frame(0));
        m.finish(b, SimTime::from_secs(11));
        let bursts = m.visible_bursts(SimTime::ZERO, SimTime::from_secs(100), None, all);
        assert_eq!(bursts.len(), 1);
    }

    #[test]
    fn interferers_exclude_self() {
        let mut m = medium(2);
        let c = ch(5, Width::W5);
        let a = m.start(c, SimTime::ZERO, SimTime::from_millis(2), frame(0));
        let _b = m.start(
            c,
            SimTime::from_millis(1),
            SimTime::from_millis(3),
            frame(1),
        );
        let mut srcs = Vec::new();
        m.interferer_sources_into(c, SimTime::ZERO, SimTime::from_millis(2), a, &mut srcs);
        assert_eq!(srcs, vec![1]);
    }

    #[test]
    fn windowed_queries_backscan_matches_full_scan_order() {
        let mut m = medium(10);
        let c = ch(5, Width::W5);
        // Five sequential finished transmissions plus one active; a
        // window covering only the last three history entries must
        // return them oldest-first, then the active one.
        for k in 0..5u64 {
            let id = m.start(
                c,
                SimTime::from_millis(10 * k),
                SimTime::from_millis(10 * k + 5),
                frame(NodeId::try_from(k).unwrap()),
            );
            m.finish(id, SimTime::from_millis(10 * k + 5));
        }
        m.start(
            c,
            SimTime::from_millis(50),
            SimTime::from_millis(60),
            frame(9),
        );
        let from = SimTime::from_millis(21);
        let to = SimTime::from_millis(100);
        let txs = m.visible_window_transmissions(from, to);
        let srcs: Vec<NodeId> = txs.iter().map(|t| t.frame.src).collect();
        assert_eq!(srcs, vec![2, 3, 4, 9]);
        let mut collected = Vec::new();
        m.interferer_sources_into(c, from, to, u64::MAX, &mut collected);
        collected.sort_unstable();
        assert_eq!(collected, vec![2, 3, 4, 9]);
        // Airtime over [21, 40): tail of tx2 (4 ms) + tx3 (5 ms).
        let u = UhfChannel::from_index(5);
        let f = m.airtime_in_window(u, from, SimTime::from_millis(40), None, None);
        assert!((f - 9.0 / 19.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty airtime window")]
    fn empty_window_panics() {
        let u = UhfChannel::from_index(0);
        Medium::new().airtime_in_window(u, SimTime::ZERO, SimTime::ZERO, None, None);
    }

    /// The heard-source list excludes out-of-range transmitters from
    /// every scanner-facing query, and hearing every source matches
    /// `heard: None` exactly.
    #[test]
    fn filtered_queries_drop_unheard_sources() {
        let mut m = Medium::new();
        m.add_source(true, None);
        m.add_source(true, None);
        let c = ch(5, Width::W5);
        for src in [0usize, 1] {
            let id = m.start(
                c,
                SimTime::ZERO + SimDuration::from_millis(src as u64),
                SimTime::from_millis(10),
                frame(src),
            );
            m.finish(id, SimTime::from_millis(10));
        }
        let u = UhfChannel::from_index(5);
        let from = SimTime::ZERO;
        let to = SimTime::from_millis(10);
        // Hearing only node 1: 9 of 10 ms busy, one AP, one burst.
        let f = m.airtime_in_window(u, from, to, None, Some(&[1]));
        assert!((f - 0.9).abs() < 1e-9, "f {f}");
        assert_eq!(m.ap_count_in_window(u, from, to, None, Some(&[1])), 1);
        assert_eq!(m.visible_bursts(from, to, Some(&[1]), all).len(), 1);
        // Hearing nothing: all quiet.
        assert_eq!(m.airtime_in_window(u, from, to, None, Some(&[])), 0.0);
        assert_eq!(m.ap_count_in_window(u, from, to, None, Some(&[])), 0);
        assert!(m.visible_bursts(from, to, Some(&[]), all).is_empty());
        // Hearing everything == hearing every registered source.
        assert_eq!(
            m.airtime_in_window(u, from, to, None, Some(&[0, 1])),
            m.airtime_in_window(u, from, to, None, None)
        );
        assert_eq!(
            m.ap_count_in_window(u, from, to, None, Some(&[0, 1])),
            m.ap_count_in_window(u, from, to, None, None)
        );
        assert_eq!(
            m.visible_bursts(from, to, Some(&[0, 1]), all),
            m.visible_bursts(from, to, None, all)
        );
    }

    /// Brute-force references for the heard-source queries: filter
    /// [`Medium::visible_window_transmissions`] — a plain scan of the
    /// whole history plus the active list — by the source set.
    fn brute_heard(m: &Medium, from: SimTime, to: SimTime, heard: &[NodeId]) -> Vec<Transmission> {
        m.visible_window_transmissions(from, to)
            .into_iter()
            .filter(|t| heard.contains(&t.frame.src))
            .collect()
    }

    /// The per-source index answers every heard-source query exactly
    /// like a brute-force filter of the full window scan, in the same
    /// order, over seeded random transmission sequences that cross the
    /// history-horizon prune many times and include sources that stop
    /// transmitting early (their index lists drain to empty) and
    /// registered AP sources that never transmit. After every operation
    /// each source's keys mirror its history entries, the burst query
    /// under a random `keep` predicate (channel, start floor, duration
    /// band) equals the filtered brute force, and `heard: None` answers
    /// all three queries exactly like the list of every registered id.
    #[test]
    fn heard_queries_match_brute_force_filter() {
        use rand::{Rng, SeedableRng};
        let sources = 8usize;
        let chans = [
            ch(5, Width::W5),
            ch(6, Width::W5),
            ch(6, Width::W10),
            ch(7, Width::W20),
            ch(20, Width::W5),
        ];
        for seed in 0..24u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut m = Medium::new();
            m.history_horizon = SimDuration::from_millis(40);
            // Sources `sources..registered` are APs that never transmit.
            let registered = sources + 2;
            let is_ap: Vec<bool> = (0..registered)
                .map(|s| s >= sources || rng.gen_bool(0.5))
                .collect();
            let ssid: Vec<Option<u32>> = (0..registered)
                .map(|s| (s % 3 != 0).then_some(u32::try_from(s % 2).unwrap()))
                .collect();
            for src in 0..registered {
                assert_eq!(m.add_source(is_ap[src], ssid[src]), src);
            }
            let everyone: Vec<NodeId> = (0..registered).collect();
            // Sources 5.. stop transmitting a third of the way through.
            let quits = |src: usize, step: usize| src >= 5 && step > 400;
            let mut now = SimTime::ZERO;
            let mut on_air: Vec<(SimTime, u64)> = Vec::new();
            let mut queries = 0;
            for step in 0..1200 {
                if on_air.is_empty() || (on_air.len() < 4 && rng.gen_bool(0.6)) {
                    let src = rng.gen_range(0..sources);
                    if quits(src, step) {
                        continue;
                    }
                    let c = chans[rng.gen_range(0..chans.len())];
                    let end = now + SimDuration::from_micros(rng.gen_range(50..4000));
                    let id = m.start(c, now, end, frame(src));
                    on_air.push((end, id));
                } else {
                    // Finish the earliest-ending transmission (ties by id).
                    on_air.sort_unstable();
                    let (end, id) = on_air.remove(0);
                    now = end;
                    m.finish(id, now);
                }
                let indexed: usize = m.by_src.iter().map(|s| s.keys.len()).sum();
                assert!(indexed <= m.history.len(), "index outgrew history");
                assert_eq!(indexed, m.history.len(), "seed {seed} step {step}");
                for (src, source) in m.by_src.iter().enumerate() {
                    let want: Vec<HistoryKey> = m
                        .history
                        .iter()
                        .enumerate()
                        .filter(|(_, t)| t.frame.src == src)
                        .map(|(i, t)| HistoryKey {
                            seq: m.history_base + i,
                            start: t.start,
                            end: t.end,
                            channel: t.channel,
                        })
                        .collect();
                    assert!(
                        source.keys.iter().eq(want.iter()),
                        "seed {seed} step {step}: source {src} keys out of sync"
                    );
                    assert_eq!((source.is_ap, source.ssid), (is_ap[src], ssid[src]));
                }
                if now == SimTime::ZERO || !rng.gen_bool(0.2) {
                    continue;
                }
                queries += 1;
                let heard: Vec<NodeId> = (0..registered).filter(|_| rng.gen_bool(0.5)).collect();
                let back = SimDuration::from_micros(rng.gen_range(1..60_000));
                // Half the windows close before `now`, so recent entries
                // start after them.
                let lag = rng.gen_bool(0.5).then(|| rng.gen_range(1..5000));
                let lag = SimDuration::from_micros(lag.unwrap_or(0));
                let to = SimTime::ZERO + now.saturating_since(SimTime::ZERO + lag);
                let from = SimTime::ZERO + to.saturating_since(SimTime::ZERO + back);
                if from == to {
                    continue;
                }
                let u = UhfChannel::from_index(rng.gen_range(4..22));
                let excl = rng
                    .gen_bool(0.5)
                    .then_some(u32::try_from(rng.gen_range(0..2)).unwrap());
                let brute = brute_heard(&m, from, to, &heard);

                let visible: Vec<VisibleBurst> = brute.iter().map(|t| t.to_visible()).collect();
                assert_eq!(
                    m.visible_bursts(from, to, Some(&heard), all),
                    visible,
                    "seed {seed}"
                );
                assert_eq!(
                    m.visible_bursts(from, to, None, all),
                    m.visible_bursts(from, to, Some(&everyone), all),
                    "seed {seed} step {step}: heard None"
                );

                let kc = chans[rng.gen_range(0..chans.len())];
                let any_channel = rng.gen_bool(0.3);
                let floor = SimTime::ZERO + to.saturating_since(SimTime::ZERO + back / 2);
                let min_len = SimDuration::from_micros(rng.gen_range(0..2000));
                let keep = |c: WfChannel, start: SimTime, end: SimTime| {
                    (any_channel || c.overlaps(kc)) && start >= floor && end.since(start) >= min_len
                };
                let kept: Vec<VisibleBurst> = brute
                    .iter()
                    .filter(|t| keep(t.channel, t.start, t.end))
                    .map(|t| t.to_visible())
                    .collect();
                assert_eq!(
                    m.visible_bursts(from, to, Some(&heard), keep),
                    kept,
                    "seed {seed} step {step}: predicate burst query"
                );

                let keep = |t: &&Transmission| {
                    t.channel.contains(u) && !(excl.is_some() && ssid[t.frame.src] == excl)
                };
                let busy: u64 = brute
                    .iter()
                    .filter(keep)
                    .map(|t| t.end.min(to).since(t.start.max(from)).as_nanos())
                    .sum();
                let want = (busy as f64 / to.since(from).as_nanos() as f64).min(1.0);
                assert_eq!(m.airtime_in_window(u, from, to, excl, Some(&heard)), want);
                assert_eq!(
                    m.airtime_in_window(u, from, to, excl, None),
                    m.airtime_in_window(u, from, to, excl, Some(&everyone)),
                    "seed {seed} step {step}: heard None"
                );

                let mut aps: Vec<NodeId> = brute
                    .iter()
                    .filter(keep)
                    .filter(|t| is_ap[t.frame.src])
                    .map(|t| t.frame.src)
                    .collect();
                aps.sort_unstable();
                aps.dedup();
                assert_eq!(
                    m.ap_count_in_window(u, from, to, excl, Some(&heard)),
                    u32::try_from(aps.len()).unwrap()
                );
                assert_eq!(
                    m.ap_count_in_window(u, from, to, excl, None),
                    m.ap_count_in_window(u, from, to, excl, Some(&everyone)),
                    "seed {seed} step {step}: heard None"
                );
            }
            assert!(queries > 50, "seed {seed}: too few queries");
            assert!(m.history_base > 0, "seed {seed}: never pruned");
            assert!(
                m.by_src[5..].iter().all(|s| s.keys.is_empty()),
                "seed {seed}: quitting sources kept history past the horizon"
            );
        }
    }

    /// Exact boundary semantics of [`Transmission::overlaps_window`]:
    /// both the transmission and the window are half-open, so touching
    /// endpoints do not overlap, and a zero-length window acts as a
    /// point probe for "strictly inside (start, end)".
    #[test]
    fn overlaps_window_exact_boundaries() {
        let mut m = medium(1);
        let c = ch(5, Width::W5);
        let id = m.start(
            c,
            SimTime::from_micros(10),
            SimTime::from_micros(20),
            frame(0),
        );
        m.finish(id, SimTime::from_micros(20));
        let t = &m.visible_window_transmissions(SimTime::ZERO, SimTime::from_micros(100))[0];
        // Windows touching either endpoint exactly: no overlap.
        assert!(!t.overlaps_window(SimTime::ZERO, SimTime::from_micros(10)));
        assert!(!t.overlaps_window(SimTime::from_micros(20), SimTime::from_micros(30)));
        // One nanosecond past the touch point: overlap.
        assert!(t.overlaps_window(SimTime::ZERO, SimTime::from_nanos(10_001)));
        assert!(t.overlaps_window(SimTime::from_nanos(19_999), SimTime::from_micros(30)));
        // Zero-length probes: false at both endpoints, true strictly
        // inside.
        assert!(!t.overlaps_window(SimTime::from_micros(10), SimTime::from_micros(10)));
        assert!(!t.overlaps_window(SimTime::from_micros(20), SimTime::from_micros(20)));
        assert!(t.overlaps_window(SimTime::from_micros(15), SimTime::from_micros(15)));
    }

    /// Back-to-back transmissions (one ending exactly when the next
    /// starts) leave no gap and no double-count in the busy accounting,
    /// and a window clipped exactly to a transmission reports 1.0.
    #[test]
    fn touching_transmissions_accounting_is_exact() {
        let mut m = medium(2);
        let c = ch(5, Width::W5);
        let u = UhfChannel::from_index(5);
        let a = m.start(c, SimTime::ZERO, SimTime::from_micros(10), frame(0));
        m.finish(a, SimTime::from_micros(10));
        let b = m.start(
            c,
            SimTime::from_micros(10),
            SimTime::from_micros(20),
            frame(1),
        );
        m.finish(b, SimTime::from_micros(20));
        assert_eq!(
            m.busy_total(u, SimTime::from_micros(20)).as_micros(),
            20,
            "touching endpoints must not create a gap or a double count"
        );
        // Window clipped exactly to one transmission: fully busy.
        let f = m.airtime_in_window(u, SimTime::ZERO, SimTime::from_micros(10), None, None);
        assert!((f - 1.0).abs() < 1e-12, "f {f}");
        // Window exactly covering the idle time after both: fully idle.
        let f = m.airtime_in_window(
            u,
            SimTime::from_micros(20),
            SimTime::from_micros(30),
            None,
            None,
        );
        assert_eq!(f, 0.0);
        // Minimal (1 ns) window inside a transmission: fully busy.
        let f = m.airtime_in_window(
            u,
            SimTime::from_nanos(5_000),
            SimTime::from_nanos(5_001),
            None,
            None,
        );
        assert!((f - 1.0).abs() < 1e-12, "f {f}");
    }

    /// A node retuning mid-transmission (of others): per-UHF busy totals
    /// stay exact for every spanned channel, including queries taken
    /// while transmissions are still in flight — the active-remainder
    /// accrual path.
    #[test]
    fn busy_total_exact_across_retune_mid_transmission() {
        let mut m = medium(2);
        // A wide transmission spanning UHF 8..=12 for [0, 100) µs.
        let wide = m.start(
            ch(10, Width::W20),
            SimTime::ZERO,
            SimTime::from_micros(100),
            frame(0),
        );
        // Mid-flight, a second node (having just retuned to a narrow
        // overlapping channel) transmits on UHF 12 for [50, 150) µs.
        let narrow = m.start(
            ch(12, Width::W5),
            SimTime::from_micros(50),
            SimTime::from_micros(150),
            frame(1),
        );
        // Query while both are active: the union on UHF 12 is [0, 75).
        let u12 = UhfChannel::from_index(12);
        assert_eq!(m.busy_total(u12, SimTime::from_micros(75)).as_micros(), 75);
        m.finish(wide, SimTime::from_micros(100));
        // Between the finishes: UHF 8 stops accruing, UHF 12 continues.
        assert_eq!(
            m.busy_total(UhfChannel::from_index(8), SimTime::from_micros(120))
                .as_micros(),
            100
        );
        assert_eq!(
            m.busy_total(u12, SimTime::from_micros(120)).as_micros(),
            120
        );
        m.finish(narrow, SimTime::from_micros(150));
        assert_eq!(
            m.busy_total(u12, SimTime::from_micros(200)).as_micros(),
            150
        );
        // A channel outside both spans never accrued.
        assert_eq!(
            m.busy_total(UhfChannel::from_index(13), SimTime::from_micros(200)),
            SimDuration::ZERO
        );
        // Zero-width query instant (now == last counter change) adds
        // nothing.
        assert_eq!(
            m.busy_total(u12, SimTime::from_micros(150)).as_micros(),
            150
        );
    }
}
