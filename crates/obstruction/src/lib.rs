//! Obstruction maps: the dish-side data source of the paper's
//! satellite-identification technique (§4).
//!
//! A Starlink terminal exposes, over its gRPC API, a 123×123-pixel bitmap
//! that marks the sky trajectory of every satellite that has served the
//! terminal since the last reset. §4.1 of the paper reverse-engineers the
//! bitmap's geometry: it is a polar plot centered in the image, radius 45
//! pixels, where radius encodes angle of elevation (90° at the center, 25°
//! at the rim — the minimum connection elevation) and the polar angle
//! encodes azimuth, 0° at north, increasing clockwise.
//!
//! This crate implements that raster:
//!
//! * [`ObstructionMap`] — the bitmap with polar↔pixel conversions,
//! * [`paint()`] — painting a served-satellite trajectory the way the dish
//!   firmware does (line segments between consecutive observations),
//! * [`isolate`] — the XOR trick of §4.1 that recovers the single
//!   trajectory added during the latest 15-second slot,
//! * [`extract`] — turning the isolated pixels back into an ordered
//!   sequence of (AOE, azimuth) samples,
//! * [`SkyMask`] — environmental obstructions (the Ithaca tree line),
//! * [`calibrate()`] — the bounding-box parameter-recovery procedure the
//!   authors ran on a 2-day saturated map,
//! * [`render`] — PGM/ASCII output for Figure 3 reproductions.

pub mod calibrate;
pub mod extract;
pub mod map;
pub mod mask;
pub mod paint;
pub mod render;

pub use calibrate::{calibrate, Calibration};
pub use extract::{extract_trajectory, isolate, largest_component, PolarSample};
pub use map::{ObstructionMap, MAP_SIZE, PLOT_RADIUS_PX};
pub use mask::{MaskSector, SkyMask};
pub use paint::paint;
