//! The multichannel airtime metric (MCham) and the channel-selection
//! objective — Equations 1 and 2 of §4.1.
//!
//! For a candidate channel `(F, W)` and a node `n`,
//!
//! ```text
//! MCham_n(F, W) = (W / 5 MHz) · Π_{c ∈ (F,W)} ρ_n(c)
//! ```
//!
//! where `ρ_n(c) = max(1 − A_c, 1/(B_c + 1))` is the expected share of
//! UHF channel `c`. "Since ρ_n(c) represents the expected share of a UHF
//! channel c, the *product* of these shares across each UHF channel in
//! (F, W) gives the expected share for the entire channel" — the minimum
//! or maximum would underestimate, because traffic on a narrow channel
//! contends with traffic on an overlapping wider channel.
//!
//! The AP selects the channel maximizing `N·MCham_AP + Σ_n MCham_n`,
//! weighting its own (downlink) view by the number of clients.

use whitefi_spectrum::{AirtimeVector, SpectrumMap, UhfChannel, WfChannel, NUM_UHF_CHANNELS};

/// One node's contribution to channel selection: its spectrum map and its
/// measured airtime vector (the contents of the client control message).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeReport {
    /// Incumbent occupancy observed at the node.
    pub map: SpectrumMap,
    /// Measured per-UHF-channel load at the node.
    pub airtime: AirtimeVector,
}

/// MCham of channel `channel` under the airtime measurements `airtime`
/// (Equation 2).
pub fn mcham(airtime: &AirtimeVector, channel: WfChannel) -> f64 {
    mcham_with(Combiner::Product, airtime, channel)
}

/// Precomputed per-UHF-channel shares `ρ(c)` for one airtime vector,
/// with log-share prefix sums so the Equation-2 product over any spanned
/// range costs O(1) instead of O(span).
///
/// Scoring all 84 `(F, W)` candidates touches each UHF channel up to 9
/// times through [`mcham`]; building this table once touches each
/// exactly once. `ρ(c) = max(1 − A_c, 1/(B_c + 1))` is strictly
/// positive, so the logs are always finite. Single-channel (5 MHz)
/// products use the stored share directly and stay bit-exact; wider
/// spans go through `exp(Σ ln ρ)` and may drift from the direct product
/// by a few ulps — far below the 1e-12 selection tie-break epsilon.
#[derive(Debug, Clone)]
pub struct RhoTable {
    rho: [f64; NUM_UHF_CHANNELS],
    log_prefix: [f64; NUM_UHF_CHANNELS + 1],
}

impl RhoTable {
    /// Builds the table from one node's airtime measurements.
    pub fn new(airtime: &AirtimeVector) -> Self {
        let mut rho = [0.0; NUM_UHF_CHANNELS];
        let mut log_prefix = [0.0; NUM_UHF_CHANNELS + 1];
        for (i, r) in rho.iter_mut().enumerate() {
            *r = airtime.rho(UhfChannel::from_index(i));
            log_prefix[i + 1] = log_prefix[i] + r.ln();
        }
        Self { rho, log_prefix }
    }

    /// The precomputed share of one UHF channel.
    pub fn rho(&self, c: UhfChannel) -> f64 {
        self.rho[c.index()]
    }

    /// MCham of `channel` (Equation 2) from the precomputed shares.
    pub fn mcham(&self, channel: WfChannel) -> f64 {
        let lo = channel.low_index();
        let hi = channel.high_index();
        let product = if lo == hi {
            self.rho[lo]
        } else {
            (self.log_prefix[hi + 1] - self.log_prefix[lo]).exp()
        };
        channel.width().capacity_factor() * product
    }
}

/// Scores every admissible `(F, W)` candidate (84 on 30 UHF channels)
/// against one airtime vector, sharing a single [`RhoTable`]. Equivalent
/// to calling [`mcham`] per candidate, at roughly a third of the
/// per-channel work.
pub fn evaluate_all(airtime: &AirtimeVector) -> Vec<(WfChannel, f64)> {
    let table = RhoTable::new(airtime);
    WfChannel::all().map(|c| (c, table.mcham(c))).collect()
}

/// How per-channel shares are combined into a whole-channel share.
///
/// The paper argues for the product: "simply taking the minimum or the
/// maximum across all channels, instead of the product, will be an
/// underestimate since the traffic on a narrower channel contends with
/// traffic on an overlapping wider channel." [`Combiner::Min`] and
/// [`Combiner::Max`] exist for the ablation experiment that demonstrates
/// this.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Combiner {
    /// The paper's Equation 2: the product of per-channel shares.
    Product,
    /// Ablation: the minimum share across spanned channels.
    Min,
    /// Ablation: the maximum share across spanned channels.
    Max,
}

/// MCham with a configurable per-channel share combiner (ablation use).
pub fn mcham_with(combiner: Combiner, airtime: &AirtimeVector, channel: WfChannel) -> f64 {
    let shares = channel.spanned().map(|c| airtime.rho(c));
    let combined = match combiner {
        Combiner::Product => shares.product(),
        Combiner::Min => shares.fold(f64::INFINITY, f64::min),
        Combiner::Max => shares.fold(0.0, f64::max),
    };
    channel.width().capacity_factor() * combined
}

/// Client count (at least 1, so a clientless AP still weighs its own
/// share) as `f64`, exactly: network sizes are tiny relative to 2^53.
fn node_count_f64(clients: usize) -> f64 {
    // lint:allow(cast, client counts are far below 2^53, conversion is exact)
    clients.max(1) as f64
}

/// The AP's selection objective for one candidate channel:
/// `N·MCham_AP + Σ_n MCham_n` (§4.1, "Channel selection").
pub fn selection_score(ap: &NodeReport, clients: &[NodeReport], channel: WfChannel) -> f64 {
    let n = node_count_f64(clients.len());
    n * mcham(&ap.airtime, channel)
        + clients
            .iter()
            .map(|c| mcham(&c.airtime, channel))
            .sum::<f64>()
}

/// Runs the full §4.1 probing step: combine the maps (bitwise OR),
/// enumerate every admissible `(F, W)`, score each, and return the best
/// channel with its score. Returns `None` when no channel is free at all
/// nodes.
///
/// Ties break deterministically toward the wider, lower-frequency
/// channel, so repeated evaluations of an unchanged environment pick the
/// same channel.
///
/// Builds one [`RhoTable`] per node up front, then scores every
/// candidate from the tables, so a selection over N nodes and 84
/// candidates does N·30 share computations instead of N·84·span.
pub fn select_channel(ap: &NodeReport, clients: &[NodeReport]) -> Option<(WfChannel, f64)> {
    let combined =
        SpectrumMap::union_all(std::iter::once(ap.map).chain(clients.iter().map(|c| c.map)));
    let ap_table = RhoTable::new(&ap.airtime);
    let client_tables: Vec<RhoTable> = clients.iter().map(|c| RhoTable::new(&c.airtime)).collect();
    let n = node_count_f64(clients.len());
    let mut best: Option<(WfChannel, f64)> = None;
    for cand in combined.available_channels() {
        let score =
            n * ap_table.mcham(cand) + client_tables.iter().map(|t| t.mcham(cand)).sum::<f64>();
        let better = match best {
            None => true,
            Some((b, s)) => {
                score > s + 1e-12
                    || ((score - s).abs() <= 1e-12
                        && (cand.width() > b.width()
                            || (cand.width() == b.width()
                                && cand.center().index() < b.center().index())))
            }
        };
        if better {
            best = Some((cand, score));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use whitefi_spectrum::{ChannelLoad, UhfChannel, Width};

    fn ch(center: usize, w: Width) -> WfChannel {
        WfChannel::from_parts(center, w)
    }

    #[test]
    fn paper_example_1_empty_spectrum() {
        // "If there is no background interference … MCham simply evaluates
        // to the optimal channel capacity: 1 for W=5, 2 for W=10, 4 for
        // W=20."
        let idle = AirtimeVector::idle();
        assert_eq!(mcham(&idle, ch(10, Width::W5)), 1.0);
        assert_eq!(mcham(&idle, ch(10, Width::W10)), 2.0);
        assert_eq!(mcham(&idle, ch(10, Width::W20)), 4.0);
    }

    #[test]
    fn paper_example_2() {
        // "Out of the 5 UHF channels spanned by (F, 20 MHz), three have no
        // background interference, one has 1 AP and airtime 0.9, and one
        // has 1 AP with airtime 0.2: MCham = 4 · 0.5 · 0.8 = 1.6."
        let mut airtime = AirtimeVector::idle();
        airtime.set_load(UhfChannel::from_index(8), ChannelLoad::new(0.9, 1));
        airtime.set_load(UhfChannel::from_index(12), ChannelLoad::new(0.2, 1));
        let v = mcham(&airtime, ch(10, Width::W20));
        assert!((v - 1.6).abs() < 1e-12, "MCham {v}");
    }

    #[test]
    fn product_not_min_or_max() {
        // Two loaded channels must compound, not take min/max.
        let mut airtime = AirtimeVector::idle();
        airtime.set_load(UhfChannel::from_index(9), ChannelLoad::new(0.5, 1));
        airtime.set_load(UhfChannel::from_index(11), ChannelLoad::new(0.5, 1));
        let v = mcham(&airtime, ch(10, Width::W20));
        // rho = max(0.5, 0.5) = 0.5 on both loaded channels; min or max
        // over rho would have given 4*0.5 = 2.0 instead.
        assert!((v - 4.0 * 0.25).abs() < 1e-12);
    }

    #[test]
    fn background_on_one_channel_prefers_narrow() {
        // Heavy background on one of the outer channels of a 20 MHz span
        // makes the inner 10 MHz/5 MHz channels win.
        let mut airtime = AirtimeVector::idle();
        // Two APs saturating channel 8: rho = max(0.05, 1/3) = 1/3.
        airtime.set_load(UhfChannel::from_index(8), ChannelLoad::new(0.95, 2));
        let w20 = mcham(&airtime, ch(10, Width::W20));
        let w10 = mcham(&airtime, ch(10, Width::W10)); // spans 9..=11, clean
        assert!(w10 > w20, "w10 {w10} w20 {w20}");
    }

    #[test]
    fn selection_objective_weights_ap_by_client_count() {
        let mut ap_air = AirtimeVector::idle();
        ap_air.set_load(UhfChannel::from_index(5), ChannelLoad::new(0.5, 1));
        let ap = NodeReport {
            map: SpectrumMap::all_free(),
            airtime: ap_air,
        };
        let clients = vec![NodeReport::default(); 3];
        let c = ch(5, Width::W5);
        // AP's rho = max(0.5, 0.5) = 0.5: 3 · 0.5 + 3 · 1.0 = 4.5.
        let s = selection_score(&ap, &clients, c);
        assert!((s - 4.5).abs() < 1e-12, "{s}");
    }

    #[test]
    fn select_channel_respects_client_maps() {
        // The widest fragment is blocked at one client; selection must
        // avoid it even though the AP sees it free.
        let ap = NodeReport::default();
        // Client cannot use channels 0..=9.
        let blocked = NodeReport {
            map: SpectrumMap::from_occupied(0..10),
            ..NodeReport::default()
        };
        let (best, _) = select_channel(&ap, &[blocked]).unwrap();
        assert!(best.low_index() >= 10, "picked {best}");
    }

    #[test]
    fn select_channel_none_when_fully_blocked() {
        let ap = NodeReport {
            map: SpectrumMap::from_occupied(0..15),
            airtime: AirtimeVector::idle(),
        };
        let client = NodeReport {
            map: SpectrumMap::from_occupied(15..30),
            airtime: AirtimeVector::idle(),
        };
        assert!(select_channel(&ap, &[client]).is_none());
    }

    #[test]
    fn select_prefers_widest_clean_channel() {
        let ap = NodeReport::default();
        let (best, score) = select_channel(&ap, &[]).unwrap();
        assert_eq!(best.width(), Width::W20);
        assert!((score - 4.0).abs() < 1e-12);
        // Deterministic tie-break: lowest admissible centre.
        assert_eq!(best.center().index(), 2);
    }

    #[test]
    fn select_is_deterministic() {
        let ap = NodeReport {
            map: SpectrumMap::from_free([5, 6, 7, 8, 9, 12, 13, 14, 17, 26]),
            airtime: AirtimeVector::idle(),
        };
        let a = select_channel(&ap, &[]);
        let b = select_channel(&ap, &[]);
        assert_eq!(a, b);
        // The Building-5 map's best clean channel is the 20 MHz fragment.
        let (best, _) = a.unwrap();
        assert_eq!(best.width(), Width::W20);
        assert_eq!(best.center().index(), 7);
    }

    #[test]
    fn combiner_ablation_orderings() {
        // Min underestimates and max overestimates relative to the
        // product whenever more than one spanned channel is loaded.
        let mut airtime = AirtimeVector::idle();
        airtime.set_load(UhfChannel::from_index(9), ChannelLoad::new(0.6, 1));
        airtime.set_load(UhfChannel::from_index(11), ChannelLoad::new(0.4, 1));
        let c = ch(10, Width::W20);
        let p = mcham_with(Combiner::Product, &airtime, c);
        let lo = mcham_with(Combiner::Min, &airtime, c);
        let hi = mcham_with(Combiner::Max, &airtime, c);
        assert!(p < lo, "product {p} must be below min-combined {lo}");
        assert!(lo < hi, "min {lo} must be below max {hi}");
        // Product matches Equation 2 exactly.
        assert!((p - mcham(&airtime, c)).abs() < 1e-12);
    }

    #[test]
    fn rho_table_matches_direct_mcham() {
        let mut airtime = AirtimeVector::idle();
        airtime.set_load(UhfChannel::from_index(8), ChannelLoad::new(0.9, 1));
        airtime.set_load(UhfChannel::from_index(12), ChannelLoad::new(0.2, 3));
        airtime.set_load(UhfChannel::from_index(13), ChannelLoad::new(0.7, 1));
        let table = RhoTable::new(&airtime);
        for c in WfChannel::all() {
            let slow = mcham(&airtime, c);
            let fast = table.mcham(c);
            assert!(
                (fast - slow).abs() <= 1e-9 * slow.abs().max(1.0),
                "{c}: {fast} vs {slow}"
            );
        }
        // Single-channel (5 MHz) entries are bit-exact.
        for i in 0..NUM_UHF_CHANNELS {
            let c5 = ch(i, Width::W5);
            assert_eq!(table.mcham(c5), mcham(&airtime, c5));
            assert_eq!(
                table.rho(UhfChannel::from_index(i)),
                airtime.rho(UhfChannel::from_index(i))
            );
        }
    }

    #[test]
    fn evaluate_all_covers_every_candidate_exactly_on_idle_spectrum() {
        let airtime = AirtimeVector::idle();
        let all = evaluate_all(&airtime);
        assert_eq!(all.len(), WfChannel::all().count());
        for (c, v) in &all {
            // ln 1 = 0 and exp 0 = 1 are exact, so idle spectrum matches
            // the direct product bit-for-bit.
            assert_eq!(*v, mcham(&airtime, *c), "{c}");
        }
    }

    #[test]
    fn saturated_but_shared_beats_nothing() {
        // A fully-busy channel with one AP still yields ρ = 0.5 per
        // channel: contending is better than silence.
        let mut airtime = AirtimeVector::idle();
        for i in 0..30 {
            airtime.set_load(UhfChannel::from_index(i), ChannelLoad::new(1.0, 1));
        }
        let v = mcham(&airtime, ch(10, Width::W5));
        assert!((v - 0.5).abs() < 1e-12);
    }
}
