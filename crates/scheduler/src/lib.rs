//! The hidden ground-truth schedulers.
//!
//! The paper's central object of study is a pair of controllers inside the
//! Starlink network that the authors can only observe from outside:
//!
//! * a **global scheduler** that re-allocates satellites to user terminals
//!   every 15 seconds (at :12/:27/:42/:57 past each minute), preferring
//!   satellites that are high in the sky, outside the GSO exclusion zone,
//!   recently launched, sunlit, and lightly loaded (§3, §5);
//! * an **on-satellite MAC scheduler** that round-robins radio frames
//!   across the terminals attached to a satellite, producing the parallel
//!   RTT bands of Figure 2 (§3).
//!
//! This crate implements both as the reproduction's *ground truth*. The
//! measurement pipeline (`starsense-netemu`, `starsense-ident`,
//! `starsense-core`) observes the system exactly the way the paper's
//! vantage points did and must *re-discover* these behaviours; having the
//! truth in hand lets the reproduction quantify how well each inference
//! step works, which the authors could not do against the real network.
//!
//! The scheduler's preferences live in [`SchedulerPolicy`]; every weight
//! can be zeroed for the ablation benches.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod global;
pub mod gso;
pub mod load;
pub mod mac;
pub mod slots;
pub mod terminal;

pub use global::{
    allocate_slot, cohort_fields_of_view, AllocScratch, Allocation, GlobalScheduler,
    SchedulerPolicy, SiteGeometry, TerminalSchedState,
};
pub use gso::GsoExclusion;
pub use load::LoadModel;
pub use mac::MacScheduler;
pub use slots::{slot_index, slot_start, SLOT_ANCHOR_SECONDS, SLOT_PERIOD_SECONDS};
pub use terminal::Terminal;
