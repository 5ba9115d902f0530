//! Discrete-event CSMA/CA simulator over fragmented, variable-width UHF
//! spectrum — the reproduction's substitute for the paper's modified
//! QualNet 4.5 (§5.4).
//!
//! The paper lists four modifications it made to QualNet; all four are
//! native behaviours of this simulator:
//!
//! 1. **Variable channel widths**: OFDM symbol period and every MAC
//!    parameter (SIFS, slot, DIFS) scale with channel width via
//!    [`whitefi_phy::PhyTiming`].
//! 2. **Width/centre mismatch drops**: "at every node, we explicitly drop
//!    packets that were sent at a different channel width" — a frame is
//!    deliverable only to nodes tuned to the exact same `(F, W)`.
//! 3. **Cross-width carrier sensing**: "a node spanning multiple UHF
//!    channels will transmit a packet only if no carrier is sensed on any
//!    of those channels" — carrier sense tests span intersection, not
//!    channel equality.
//! 4. **Fragmented spectrum**: every node carries its own spectrum map
//!    and incumbent set.
//!
//! Architecture (event-driven, deterministic, seeded):
//!
//! * [`sim::Simulator`] owns the event queue, the [`medium::Medium`], the
//!   per-node MAC state and boxed [`sim::Behavior`] implementations;
//! * behaviours receive callbacks (frames, timers, send results,
//!   incumbent changes) and act through [`sim::Ctx`] (send frames, set
//!   timers, retune the radio, query airtime);
//! * [`traffic`] ships the generic senders used as background load in the
//!   paper's experiments (saturating, CBR, two-state Markov churn,
//!   scripted on/off).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod faults;
pub mod frames;
pub mod interference;
pub mod medium;
pub mod sim;
pub mod stats;
mod timers;
pub mod traffic;

pub use analysis::{bianchi_saturation_goodput_mbps, bianchi_tau, single_flow_goodput_mbps};
pub use faults::{splitmix64, FaultDecision, FaultEvent, FaultEventKind, FaultPlan, FaultStats};
pub use frames::{Frame, FrameKind, NodeId};
pub use interference::{potential_influences, shard_components, ShardSite};
pub use medium::{Medium, Transmission};
pub use sim::{
    global_event_totals, Behavior, Ctx, EventCounters, NodeConfig, SimObserver, Simulator,
};
pub use stats::NodeStats;
pub use traffic::{CbrSender, MarkovOnOffSender, SaturatingSender, ScriptedCbrSender};
