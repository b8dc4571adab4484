//! Network emulation for the measurement side of the reproduction.
//!
//! The paper's §3 evidence comes from iRTT probes sent every 20 ms from a
//! Raspberry Pi behind each dish to a server co-located at the regional
//! Starlink PoP. This crate emulates that path end to end:
//!
//! ```text
//! terminal ──RF──▶ satellite ──RF──▶ ground station ──fiber──▶ PoP server
//! ```
//!
//! * [`PopSite`] — a PoP and its nearby ground stations,
//! * [`path`] — bent-pipe propagation latency from real geometry,
//! * [`Emulator`] — drives the hidden global scheduler slot by slot, builds
//!   the per-slot MAC round-robin, and produces [`RttTrace`]s with loss and
//!   clock effects,
//! * [`RttTrace`] — probe records with 15-second window segmentation, the
//!   exact shape the paper's Figure 2 and Mann-Whitney analyses consume.
//!
//! Everything is deterministic under a seed.

pub mod clock;
pub mod emulator;
pub mod groundstation;
pub mod loss;
pub mod path;
pub mod throughput;
pub mod trace;

pub use clock::ClockModel;
pub use emulator::{Emulator, EmulatorConfig, ThroughputRecord};
pub use groundstation::{GroundStation, PopSite};
pub use loss::GilbertElliott;
pub use path::{bent_pipe_rtt_ms, SPEED_OF_LIGHT_KM_S};
pub use throughput::{slot_throughput, IperfSender, SlotThroughput};
pub use trace::{LossCause, ProbeRecord, RttTrace, SlotWindow};
