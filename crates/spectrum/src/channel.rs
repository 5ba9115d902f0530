//! UHF channels and variable-width WhiteFi channels.
//!
//! Terminology follows Section 4 of the paper exactly:
//!
//! * a **UHF channel** is one of the 30 usable 6 MHz segments of the US TV
//!   band available to portable devices (TV channels 21–51, excluding the
//!   reserved channel 37);
//! * a **channel** (here [`WfChannel`]) is the tuple `(F, W)` a WhiteFi AP
//!   or client communicates on, where `F` is a centre frequency and `W` the
//!   width. Channels are always centred on a UHF channel's centre
//!   frequency, so a 5 MHz channel fits within one UHF channel, a 10 MHz
//!   channel spans 3 UHF channels, and a 20 MHz channel spans 5.

/// Number of usable UHF channels for portable white-space devices in the US
/// (TV channels 21–51 minus the reserved channel 37).
pub const NUM_UHF_CHANNELS: usize = 30;

/// Lower edge of TV channel 21 in MHz.
pub const BAND_START_MHZ: f64 = 512.0;

/// Width of one UHF TV channel in MHz.
pub const UHF_CHANNEL_MHZ: f64 = 6.0;

/// A single 6 MHz UHF channel, indexed `0..NUM_UHF_CHANNELS`.
///
/// Index 0 corresponds to TV channel 21 (512–518 MHz); indices skip TV
/// channel 37, which the FCC reserves for radio astronomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UhfChannel(u8);

impl UhfChannel {
    /// Creates a channel from a raw index, returning `None` out of range.
    pub fn new(index: usize) -> Option<Self> {
        let raw = u8::try_from(index).ok()?;
        (index < NUM_UHF_CHANNELS).then_some(Self(raw))
    }

    /// Creates a channel from a raw index, panicking if out of range.
    ///
    /// # Panics
    /// If `index >= NUM_UHF_CHANNELS`.
    pub fn from_index(index: usize) -> Self {
        // lint:allow(unwrap, the panic is this constructor's documented contract; `new` is the fallible form)
        Self::new(index).expect("UHF channel index out of range")
    }

    /// The raw index in `0..NUM_UHF_CHANNELS`.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// The US TV channel number (21–51, skipping 37).
    pub fn tv_channel(self) -> u32 {
        let n = 21 + self.0 as u32;
        if n >= 37 {
            n + 1
        } else {
            n
        }
    }

    /// Centre frequency in MHz.
    ///
    /// The physical layout skips TV channel 37, so channels at index ≥ 16
    /// sit one 6 MHz slot higher than a naive linear mapping.
    pub fn center_mhz(self) -> f64 {
        let tv = self.tv_channel() as f64;
        BAND_START_MHZ + (tv - 21.0) * UHF_CHANNEL_MHZ + UHF_CHANNEL_MHZ / 2.0
    }

    /// Iterator over all UHF channels in index order.
    pub fn all() -> impl Iterator<Item = UhfChannel> {
        (0u8..).take(NUM_UHF_CHANNELS).map(Self)
    }
}

/// WhiteFi channel widths supported by the prototype hardware.
///
/// The KNOWS platform transmits 5, 10 or 20 MHz signals by scaling the
/// Wi-Fi card's PLL clock (Section 3, "Variable Channel Widths").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Width {
    /// 5 MHz — fits inside a single 6 MHz UHF channel.
    W5,
    /// 10 MHz — spans 3 UHF channels.
    W10,
    /// 20 MHz — spans 5 UHF channels.
    W20,
}

impl Width {
    /// All widths, narrowest first.
    pub const ALL: [Width; 3] = [Width::W5, Width::W10, Width::W20];

    /// All widths, widest first (the order J-SIFT scans them).
    pub const WIDEST_FIRST: [Width; 3] = [Width::W20, Width::W10, Width::W5];

    /// Width in MHz.
    pub fn mhz(self) -> f64 {
        match self {
            Width::W5 => 5.0,
            Width::W10 => 10.0,
            Width::W20 => 20.0,
        }
    }

    /// Number of UHF channels a channel of this width spans.
    pub fn span(self) -> usize {
        match self {
            Width::W5 => 1,
            Width::W10 => 3,
            Width::W20 => 5,
        }
    }

    /// Half-span in UHF channels on each side of the centre channel.
    pub fn half_span(self) -> usize {
        self.span() / 2
    }

    /// Timing scale factor relative to the 20 MHz reference PHY.
    ///
    /// Halving the channel width doubles symbol period, SIFS, slot time and
    /// packet durations, and halves the effective data rate (Chandra et
    /// al., SIGCOMM 2008 — reference \[15\] of the paper).
    pub fn scale(self) -> u32 {
        match self {
            Width::W5 => 4,
            Width::W10 => 2,
            Width::W20 => 1,
        }
    }

    /// Optimal capacity of this width relative to an empty 5 MHz channel —
    /// the `W / 5 MHz` factor of the MCham metric (Equation 2).
    pub fn capacity_factor(self) -> f64 {
        self.mhz() / 5.0
    }

    /// Number of valid centre positions for this width over the full band
    /// (30 for 5 MHz, 28 for 10 MHz, 26 for 20 MHz; footnote 3 of §4.2).
    pub fn num_positions(self) -> usize {
        NUM_UHF_CHANNELS - 2 * self.half_span()
    }
}

/// A WhiteFi channel `(F, W)`: centre UHF channel plus width.
///
/// Invariant: the whole span fits inside the band, i.e.
/// `half_span <= center.index() < NUM_UHF_CHANNELS - half_span`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WfChannel {
    center: UhfChannel,
    width: Width,
}

impl WfChannel {
    /// Creates a channel, returning `None` if the span would extend past
    /// either band edge.
    pub fn new(center: UhfChannel, width: Width) -> Option<Self> {
        let h = width.half_span();
        let idx = center.index();
        (idx >= h && idx + h < NUM_UHF_CHANNELS).then_some(Self { center, width })
    }

    /// Creates a channel from a raw centre index and width.
    ///
    /// # Panics
    /// If the span does not fit in the band.
    pub fn from_parts(center_index: usize, width: Width) -> Self {
        Self::new(UhfChannel::from_index(center_index), width)
            // lint:allow(unwrap, the panic is this constructor's documented contract; `new` is the fallible form)
            .expect("WhiteFi channel span exceeds band edge")
    }

    /// The centre UHF channel.
    pub fn center(self) -> UhfChannel {
        self.center
    }

    /// The channel width.
    pub fn width(self) -> Width {
        self.width
    }

    /// Centre frequency in MHz.
    pub fn center_mhz(self) -> f64 {
        self.center.center_mhz()
    }

    /// Index of the lowest spanned UHF channel.
    pub fn low_index(self) -> usize {
        self.center.index() - self.width.half_span()
    }

    /// Index of the highest spanned UHF channel (inclusive).
    pub fn high_index(self) -> usize {
        self.center.index() + self.width.half_span()
    }

    /// Iterator over the UHF channels spanned by this channel.
    pub fn spanned(self) -> impl Iterator<Item = UhfChannel> {
        (self.low_index()..=self.high_index()).map(UhfChannel::from_index)
    }

    /// The spanned UHF channels as a bitmask (bit `i` = UHF channel `i`),
    /// the layout of [`crate::SpectrumMap::bits`].
    pub fn footprint(self) -> u32 {
        ((1u32 << self.width.span()) - 1) << self.low_index()
    }

    /// Whether this channel and `other` share at least one UHF channel.
    ///
    /// Overlapping channels of different widths contend with each other
    /// (§5.4, carrier-sense modification), so this test drives both the
    /// MAC's carrier sensing and the MCham background-traffic accounting.
    pub fn overlaps(self, other: WfChannel) -> bool {
        self.low_index() <= other.high_index() && other.low_index() <= self.high_index()
    }

    /// Whether this channel spans the given UHF channel.
    pub fn contains(self, uhf: UhfChannel) -> bool {
        (self.low_index()..=self.high_index()).contains(&uhf.index())
    }

    /// All 84 WhiteFi channels over the full band (30 + 28 + 26).
    pub fn all() -> impl Iterator<Item = WfChannel> {
        Width::ALL.iter().flat_map(|&w| {
            let h = w.half_span();
            (h..NUM_UHF_CHANNELS - h).map(move |i| WfChannel::from_parts(i, w))
        })
    }
}

impl std::fmt::Display for WfChannel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(ch{}, {}MHz)",
            self.center.tv_channel(),
            self.width.mhz()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uhf_channel_indices_round_trip() {
        for ch in UhfChannel::all() {
            assert_eq!(UhfChannel::from_index(ch.index()), ch);
        }
        assert!(UhfChannel::new(NUM_UHF_CHANNELS).is_none());
    }

    #[test]
    fn tv_channel_numbering_skips_37() {
        let tvs: Vec<u32> = UhfChannel::all().map(|c| c.tv_channel()).collect();
        assert_eq!(tvs.first(), Some(&21));
        assert_eq!(tvs.last(), Some(&51));
        assert!(!tvs.contains(&37));
        assert_eq!(tvs.len(), 30);
    }

    #[test]
    fn band_edges_match_fcc_ruling() {
        // Channel 21 spans 512–518 MHz; channel 51 ends at 698 MHz.
        let first = UhfChannel::from_index(0);
        assert!((first.center_mhz() - 515.0).abs() < 1e-9);
        let last = UhfChannel::from_index(29);
        assert!((last.center_mhz() - 695.0).abs() < 1e-9);
    }

    #[test]
    fn width_spans() {
        assert_eq!(Width::W5.span(), 1);
        assert_eq!(Width::W10.span(), 3);
        assert_eq!(Width::W20.span(), 5);
        assert_eq!(Width::W5.scale(), 4);
        assert_eq!(Width::W20.scale(), 1);
    }

    #[test]
    fn channel_position_counts_match_paper_footnote() {
        // "30 5MHz WhiteFi channels, 28 10MHz channels, and 26 20MHz
        // channels" — footnote 3 of Section 4.2.
        assert_eq!(Width::W5.num_positions(), 30);
        assert_eq!(Width::W10.num_positions(), 28);
        assert_eq!(Width::W20.num_positions(), 26);
        assert_eq!(WfChannel::all().count(), 84);
    }

    #[test]
    fn spanned_channels_are_contiguous_and_centered() {
        let c = WfChannel::from_parts(10, Width::W20);
        let spanned: Vec<usize> = c.spanned().map(|u| u.index()).collect();
        assert_eq!(spanned, vec![8, 9, 10, 11, 12]);
        assert_eq!(c.low_index(), 8);
        assert_eq!(c.high_index(), 12);
    }

    #[test]
    fn footprint_matches_spanned_mask_for_all_84_channels() {
        for c in WfChannel::all() {
            let mask = c.spanned().fold(0u32, |m, u| m | 1 << u.index());
            assert_eq!(c.footprint(), mask, "{c}");
        }
    }

    #[test]
    fn edge_channels_rejected() {
        assert!(WfChannel::new(UhfChannel::from_index(0), Width::W10).is_none());
        assert!(WfChannel::new(UhfChannel::from_index(1), Width::W20).is_none());
        assert!(WfChannel::new(UhfChannel::from_index(29), Width::W10).is_none());
        assert!(WfChannel::new(UhfChannel::from_index(0), Width::W5).is_some());
        assert!(WfChannel::new(UhfChannel::from_index(2), Width::W20).is_some());
    }

    #[test]
    fn overlap_is_symmetric_and_matches_span_intersection() {
        let a = WfChannel::from_parts(5, Width::W20); // spans 3..=7
        let b = WfChannel::from_parts(8, Width::W10); // spans 7..=9
        let c = WfChannel::from_parts(10, Width::W5); // spans 10..=10
        assert!(a.overlaps(b));
        assert!(b.overlaps(a));
        assert!(!a.overlaps(c));
        assert!(b.overlaps(b));
        assert!(!c.overlaps(a));
    }

    #[test]
    fn contains_matches_spanned() {
        let c = WfChannel::from_parts(4, Width::W10);
        for u in UhfChannel::all() {
            assert_eq!(c.contains(u), c.spanned().any(|s| s == u));
        }
    }

    #[test]
    fn display_formats_tv_channel() {
        let c = WfChannel::from_parts(7, Width::W10); // index 7 → TV ch 28
        assert_eq!(c.to_string(), "(ch28, 10MHz)");
    }
}
