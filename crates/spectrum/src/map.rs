//! Spectrum maps: per-node incumbent occupancy bit-vectors.
//!
//! "The AP and each client maintains a *spectrum map* which is a bit-vector
//! `{u_0, …, u_k}` where each `u_i` represents whether the corresponding
//! UHF channel is currently in use by an incumbent" (§4.1, Preliminaries).

use crate::channel::{UhfChannel, WfChannel, Width, NUM_UHF_CHANNELS};
use crate::fragment::Fragment;

/// Incumbent occupancy of the 30 usable UHF channels, as seen by one node.
///
/// Bit `i` set means UHF channel `i` is occupied by an incumbent (a TV
/// broadcast or a wireless microphone) and must not be transmitted on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SpectrumMap(u32);

impl SpectrumMap {
    /// A map with every channel free.
    pub fn all_free() -> Self {
        Self(0)
    }

    /// A map with every channel occupied.
    pub fn all_occupied() -> Self {
        Self((1u32 << NUM_UHF_CHANNELS) - 1)
    }

    /// Builds a map from an iterator of occupied channel indices.
    pub fn from_occupied<I: IntoIterator<Item = usize>>(occupied: I) -> Self {
        let mut m = Self::all_free();
        for i in occupied {
            m.set_occupied(UhfChannel::from_index(i));
        }
        m
    }

    /// Builds a map from an iterator of *free* channel indices (everything
    /// else occupied). Convenient for scripting the paper's testbed maps,
    /// e.g. §5.4.2: "free UHF channels: 26 to 30, 33 to 35, 39 and 48".
    pub fn from_free<I: IntoIterator<Item = usize>>(free: I) -> Self {
        let mut m = Self::all_occupied();
        for i in free {
            m.set_free(UhfChannel::from_index(i));
        }
        m
    }

    /// Whether `ch` is occupied by an incumbent.
    pub fn is_occupied(self, ch: UhfChannel) -> bool {
        self.0 & (1 << ch.index()) != 0
    }

    /// Whether `ch` is free of incumbents.
    pub fn is_free(self, ch: UhfChannel) -> bool {
        !self.is_occupied(ch)
    }

    /// Marks `ch` occupied.
    pub fn set_occupied(&mut self, ch: UhfChannel) {
        self.0 |= 1 << ch.index();
    }

    /// Marks `ch` free.
    pub fn set_free(&mut self, ch: UhfChannel) {
        self.0 &= !(1 << ch.index());
    }

    /// Flips the occupancy of `ch` (used by the Figure 12 spatial-variation
    /// model).
    pub fn flip(&mut self, ch: UhfChannel) {
        self.0 ^= 1 << ch.index();
    }

    /// Bitwise OR: the set of channels blocked at *any* of the nodes.
    ///
    /// "The first step is to take the bitwise OR of the clients' and AP's
    /// spectrum maps to determine the set of UHF channels available at all
    /// of the nodes" (§4.1, Channel probing).
    pub fn union(self, other: SpectrumMap) -> SpectrumMap {
        SpectrumMap(self.0 | other.0)
    }

    /// Union over any number of maps.
    pub fn union_all<I: IntoIterator<Item = SpectrumMap>>(maps: I) -> SpectrumMap {
        maps.into_iter()
            .fold(SpectrumMap::all_free(), SpectrumMap::union)
    }

    /// Number of occupied channels.
    pub fn occupied_count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Number of free channels.
    pub fn free_count(self) -> usize {
        NUM_UHF_CHANNELS - self.occupied_count()
    }

    /// Hamming distance: the number of channels whose availability differs
    /// between the two maps (§2.1's spatial-variation statistic).
    pub fn hamming(self, other: SpectrumMap) -> usize {
        (self.0 ^ other.0).count_ones() as usize
    }

    /// Iterator over the free UHF channels.
    pub fn free_channels(self) -> impl Iterator<Item = UhfChannel> {
        UhfChannel::all().filter(move |&c| self.is_free(c))
    }

    /// Iterator over the occupied UHF channels.
    pub fn occupied_channels(self) -> impl Iterator<Item = UhfChannel> {
        UhfChannel::all().filter(move |&c| self.is_occupied(c))
    }

    /// Whether the whole span of WhiteFi channel `wf` is incumbent-free.
    pub fn admits(self, wf: WfChannel) -> bool {
        self.0 & wf.footprint() == 0
    }

    /// Enumerates every WhiteFi channel `(F, W)` whose full span is free.
    ///
    /// This is the candidate set the spectrum-assignment algorithm scores
    /// with MCham, and the set of channels an AP may beacon on.
    pub fn available_channels(self) -> Vec<WfChannel> {
        WfChannel::all().filter(|&wf| self.admits(wf)).collect()
    }

    /// Enumerates available channels restricted to one width.
    pub fn available_channels_of_width(self, width: Width) -> Vec<WfChannel> {
        self.available_channels()
            .into_iter()
            .filter(|c| c.width() == width)
            .collect()
    }

    /// Maximal runs of contiguous free channels, in ascending order.
    pub fn fragments(self) -> Vec<Fragment> {
        let mut out = Vec::new();
        let mut start: Option<usize> = None;
        for i in 0..NUM_UHF_CHANNELS {
            let free = self.is_free(UhfChannel::from_index(i));
            match (free, start) {
                (true, None) => start = Some(i),
                (false, Some(s)) => {
                    out.push(Fragment::new(s, i - s));
                    start = None;
                }
                _ => {}
            }
        }
        if let Some(s) = start {
            out.push(Fragment::new(s, NUM_UHF_CHANNELS - s));
        }
        out
    }

    /// Width (in UHF channels) of the largest contiguous free fragment.
    pub fn widest_fragment(self) -> usize {
        self.fragments().iter().map(|f| f.len()).max().unwrap_or(0)
    }

    /// Raw bit representation (bit `i` = channel `i` occupied).
    pub fn bits(self) -> u32 {
        self.0
    }

    /// Reconstructs a map from raw bits, masking out-of-range bits.
    pub fn from_bits(bits: u32) -> Self {
        Self(bits & ((1u32 << NUM_UHF_CHANNELS) - 1))
    }
}

impl std::fmt::Display for SpectrumMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for i in 0..NUM_UHF_CHANNELS {
            let c = if self.is_occupied(UhfChannel::from_index(i)) {
                'X'
            } else {
                '.'
            };
            write!(f, "{c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_query() {
        let mut m = SpectrumMap::all_free();
        assert_eq!(m.free_count(), 30);
        m.set_occupied(UhfChannel::from_index(3));
        assert!(m.is_occupied(UhfChannel::from_index(3)));
        assert!(m.is_free(UhfChannel::from_index(4)));
        assert_eq!(m.occupied_count(), 1);
        m.set_free(UhfChannel::from_index(3));
        assert_eq!(m, SpectrumMap::all_free());
    }

    #[test]
    fn union_blocks_channels_blocked_anywhere() {
        let a = SpectrumMap::from_occupied([1, 2]);
        let b = SpectrumMap::from_occupied([2, 5]);
        let u = a.union(b);
        assert_eq!(
            u.occupied_channels().map(|c| c.index()).collect::<Vec<_>>(),
            vec![1, 2, 5]
        );
    }

    #[test]
    fn union_all_of_empty_is_all_free() {
        assert_eq!(SpectrumMap::union_all([]), SpectrumMap::all_free());
    }

    #[test]
    fn hamming_counts_differing_channels() {
        let a = SpectrumMap::from_occupied([0, 1, 2]);
        let b = SpectrumMap::from_occupied([2, 3]);
        assert_eq!(a.hamming(b), 3);
        assert_eq!(a.hamming(a), 0);
        assert_eq!(b.hamming(a), 3);
    }

    #[test]
    fn admits_requires_full_span_free() {
        let m = SpectrumMap::from_occupied([7]);
        // 20 MHz centred at 9 spans 7..=11: blocked by channel 7.
        assert!(!m.admits(WfChannel::from_parts(9, Width::W20)));
        // 20 MHz centred at 10 spans 8..=12: free.
        assert!(m.admits(WfChannel::from_parts(10, Width::W20)));
        // 5 MHz on channel 7 itself is blocked.
        assert!(!m.admits(WfChannel::from_parts(7, Width::W5)));
    }

    #[test]
    fn available_channels_on_empty_map_is_84() {
        assert_eq!(SpectrumMap::all_free().available_channels().len(), 84);
        assert!(SpectrumMap::all_occupied().available_channels().is_empty());
    }

    #[test]
    fn fragments_of_testbed_map_match_section_5_4_2() {
        // "The spectrum map of our building has the following free UHF
        // channels: 26 to 30, 33 to 35, 39 and 48. Therefore, we have
        // fragments of size 20 MHz, 10 MHz and two channels of 5 MHz."
        // TV channels 26..30 → indices 5..9; 33..35 → 12..14; 39 → 17
        // (TV>37 shifts by one); 48 → 26.
        let m = building5_map();
        let frags = m.fragments();
        let lens: Vec<usize> = frags.iter().map(|f| f.len()).collect();
        assert_eq!(lens, vec![5, 3, 1, 1]);
    }

    /// The paper's Building 5 testbed map (§5.4.2).
    pub(crate) fn building5_map() -> SpectrumMap {
        SpectrumMap::from_free([5, 6, 7, 8, 9, 12, 13, 14, 17, 26])
    }

    #[test]
    fn widest_fragment_matches() {
        assert_eq!(building5_map().widest_fragment(), 5);
        assert_eq!(SpectrumMap::all_occupied().widest_fragment(), 0);
        assert_eq!(SpectrumMap::all_free().widest_fragment(), 30);
    }

    #[test]
    fn display_renders_occupancy() {
        let m = SpectrumMap::from_occupied([0, 29]);
        let s = m.to_string();
        assert_eq!(s.len(), 30);
        assert!(s.starts_with('X'));
        assert!(s.ends_with('X'));
        assert_eq!(s.matches('X').count(), 2);
    }

    #[test]
    fn bits_round_trip() {
        let m = SpectrumMap::from_occupied([3, 17, 29]);
        assert_eq!(SpectrumMap::from_bits(m.bits()), m);
        // Out-of-range bits are masked.
        assert_eq!(SpectrumMap::from_bits(u32::MAX).occupied_count(), 30);
    }
}
