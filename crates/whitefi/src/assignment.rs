//! The adaptive spectrum-assignment algorithm (§4.1).
//!
//! The [`Assigner`] wraps the MCham selection with the operational rules
//! the paper describes:
//!
//! * **hysteresis** — "To prevent frequent changes in the channel or
//!   ping-ponging across two channels, we also add hysteresis to our
//!   system": a voluntary switch requires the challenger to beat the
//!   incumbent channel's score by a margin;
//! * **involuntary switches** — an incumbent on the current channel
//!   forces a move regardless of scores;
//! * **post-switch evaluation** — "if the measured performance of the new
//!   channel is less than the previous channel, the AP will re-evaluate
//!   its channel selection, possibly switching back": the assigner
//!   remembers the pre-switch goodput and recommends a revert when the
//!   new channel measures worse.

use crate::mcham::{select_channel, selection_score, NodeReport};
use whitefi_spectrum::WfChannel;

/// Relative score margin a challenger must exceed for a voluntary
/// switch (0.1 = 10%).
const HYSTERESIS: f64 = 0.10;
/// Relative goodput shortfall after a voluntary switch that triggers a
/// revert recommendation.
const REVERT_MARGIN: f64 = 0.10;

/// Whether a challenger scoring `challenger` beats the current
/// channel's `current` score past hysteresis. The margin is relative,
/// or absolute when the current score is not positive.
pub(crate) fn clears_hysteresis(challenger: f64, current: f64) -> bool {
    if current > 0.0 {
        challenger > current * (1.0 + HYSTERESIS)
    } else {
        challenger > current + HYSTERESIS
    }
}

/// What the assigner recommends after a re-evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Decision {
    /// Keep the current channel.
    Stay,
    /// Move to the given channel (voluntarily: it scores past hysteresis;
    /// or involuntarily: the current channel is no longer admissible).
    Switch(WfChannel),
    /// No channel is admissible at all nodes.
    NoChannel,
}

/// The spectrum-assignment state machine (one per AP). It selects with
/// the paper's aggregate-throughput objective ([`selection_score`]).
#[derive(Debug, Clone, Default)]
pub struct Assigner {
    current: Option<WfChannel>,
    /// Goodput measured on the previous channel before the last
    /// voluntary switch, for the post-switch evaluation.
    pre_switch_goodput: Option<f64>,
}

impl Assigner {
    /// A fresh assigner (no channel selected yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// The currently assigned channel.
    pub fn current(&self) -> Option<WfChannel> {
        self.current
    }

    /// Overrides the current channel (e.g. after an externally forced
    /// move onto the backup channel).
    pub fn set_current(&mut self, ch: Option<WfChannel>) {
        self.current = ch;
    }

    /// Re-evaluates the assignment from fresh reports.
    ///
    /// `current_goodput` is the goodput measured on the current channel
    /// since the last evaluation (used to arm the post-switch revert
    /// check); pass `None` when unknown.
    pub fn evaluate(
        &mut self,
        ap: &NodeReport,
        clients: &[NodeReport],
        current_goodput: Option<f64>,
    ) -> Decision {
        let Some((best, best_score)) = select_channel(ap, clients) else {
            self.current = None;
            return Decision::NoChannel;
        };
        let Some(cur) = self.current else {
            // Bootstrapping: adopt the best channel outright.
            self.current = Some(best);
            return Decision::Switch(best);
        };

        // Involuntary: the current channel is blocked at some node.
        let combined = whitefi_spectrum::SpectrumMap::union_all(
            std::iter::once(ap.map).chain(clients.iter().map(|c| c.map)),
        );
        if !combined.admits(cur) {
            self.current = Some(best);
            self.pre_switch_goodput = None; // never revert onto an incumbent
            return Decision::Switch(best);
        }

        if best == cur {
            self.pre_switch_goodput = None;
            return Decision::Stay;
        }

        // Voluntary: challenger must clear hysteresis.
        let cur_score = selection_score(ap, clients, cur);
        if clears_hysteresis(best_score, cur_score) {
            self.current = Some(best);
            self.pre_switch_goodput = current_goodput;
            return Decision::Switch(best);
        }
        Decision::Stay
    }

    /// Post-switch evaluation: after a voluntary switch, compare the
    /// goodput measured on the new channel with the remembered pre-switch
    /// goodput. Returns `true` when the assigner recommends reverting
    /// (the caller should re-run [`Assigner::evaluate`] after acting).
    pub fn should_revert(&mut self, new_goodput: f64) -> bool {
        match self.pre_switch_goodput.take() {
            Some(old) => new_goodput < old * (1.0 - REVERT_MARGIN),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use whitefi_spectrum::{AirtimeVector, ChannelLoad, SpectrumMap, UhfChannel, Width};

    fn idle_report() -> NodeReport {
        NodeReport::default()
    }

    fn loaded_report(loads: &[(usize, f64, u32)]) -> NodeReport {
        let mut airtime = AirtimeVector::idle();
        for &(ch, busy, aps) in loads {
            airtime.set_load(UhfChannel::from_index(ch), ChannelLoad::new(busy, aps));
        }
        NodeReport {
            map: SpectrumMap::all_free(),
            airtime,
        }
    }

    #[test]
    fn bootstrap_adopts_best() {
        let mut a = Assigner::default();
        let d = a.evaluate(&idle_report(), &[], None);
        let Decision::Switch(ch) = d else {
            panic!("expected switch, got {d:?}")
        };
        assert_eq!(ch.width(), Width::W20);
        assert_eq!(a.current(), Some(ch));
    }

    #[test]
    fn stays_put_within_hysteresis() {
        let mut a = Assigner::default();
        a.evaluate(&idle_report(), &[], None);
        let cur = a.current().unwrap();
        // Mild load on the current channel: challenger advantage below
        // 10% must not trigger a switch.
        let mild = loaded_report(&[(cur.low_index(), 0.05, 0)]);
        assert_eq!(a.evaluate(&mild, &[], None), Decision::Stay);
        assert_eq!(a.current(), Some(cur));
    }

    #[test]
    fn switches_voluntarily_past_hysteresis() {
        let mut a = Assigner::default();
        a.evaluate(&idle_report(), &[], None);
        let cur = a.current().unwrap();
        // Crush the current channel with background traffic.
        let crushed = loaded_report(&[(cur.center().index(), 0.9, 1)]);
        let d = a.evaluate(&crushed, &[], Some(5.0));
        let Decision::Switch(next) = d else {
            panic!("expected switch")
        };
        assert_ne!(next, cur);
        assert!(!next.contains(cur.center()));
    }

    #[test]
    fn involuntary_switch_ignores_hysteresis() {
        let mut a = Assigner::default();
        a.evaluate(&idle_report(), &[], None);
        let cur = a.current().unwrap();
        // A mic lands on the current channel's centre.
        let mut rep = idle_report();
        rep.map.set_occupied(cur.center());
        let d = a.evaluate(&rep, &[], None);
        let Decision::Switch(next) = d else {
            panic!("expected switch")
        };
        assert!(!next.contains(cur.center()));
    }

    #[test]
    fn no_channel_when_everything_blocked() {
        let mut a = Assigner::default();
        a.evaluate(&idle_report(), &[], None);
        let rep = NodeReport {
            map: SpectrumMap::all_occupied(),
            airtime: AirtimeVector::idle(),
        };
        assert_eq!(a.evaluate(&rep, &[], None), Decision::NoChannel);
        assert_eq!(a.current(), None);
    }

    #[test]
    fn revert_after_bad_voluntary_switch() {
        let mut a = Assigner::default();
        a.evaluate(&idle_report(), &[], None);
        let cur = a.current().unwrap();
        let crushed = loaded_report(&[(cur.center().index(), 0.9, 1)]);
        let Decision::Switch(_) = a.evaluate(&crushed, &[], Some(4.0)) else {
            panic!("expected switch")
        };
        // The new channel turned out much worse than the 4.0 we had.
        assert!(a.should_revert(2.0));
        // Consumed: a second call does not re-trigger.
        assert!(!a.should_revert(2.0));
    }

    #[test]
    fn no_revert_when_new_channel_is_fine() {
        let mut a = Assigner::default();
        a.evaluate(&idle_report(), &[], None);
        let cur = a.current().unwrap();
        let crushed = loaded_report(&[(cur.center().index(), 0.9, 1)]);
        a.evaluate(&crushed, &[], Some(2.0));
        assert!(!a.should_revert(3.0));
    }

    #[test]
    fn no_ping_pong_between_equal_channels() {
        // Two identical fragments: once settled, the assigner must not
        // oscillate between them on repeated evaluations.
        let map = SpectrumMap::from_free([2, 3, 4, 10, 11, 12]);
        let rep = NodeReport {
            map,
            airtime: AirtimeVector::idle(),
        };
        let mut a = Assigner::default();
        a.evaluate(&rep, &[], None);
        let first = a.current().unwrap();
        for _ in 0..10 {
            assert_eq!(a.evaluate(&rep, &[], None), Decision::Stay);
            assert_eq!(a.current(), Some(first));
        }
    }
}
