//! Quickstart: build a constellation, let the hidden scheduler assign a
//! satellite, and identify that satellite from the obstruction map alone —
//! the paper's core loop in ~40 lines.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use starsense::constellation::PropagationCache;
use starsense::ident::{CANDIDATE_SAMPLES_PER_SLOT, MIN_CANDIDATE_ELEVATION_DEG};
use starsense::prelude::*;

fn main() {
    // A full-scale synthetic Starlink constellation (~4200 satellites in
    // four Walker shells), deterministic under the seed.
    let constellation = ConstellationBuilder::starlink_gen1().seed(7).build();
    println!("constellation: {} satellites", constellation.len());

    // One terminal in Iowa, served by the hidden global scheduler.
    let terminals = vec![Terminal::new(0, "Iowa", Geodetic::new(41.66, -91.53, 0.2))];
    let mut scheduler = GlobalScheduler::new(SchedulerPolicy::default(), terminals, 7);

    // Play two 15-second slots, painting the dish's obstruction map from
    // the scheduler's ground-truth assignments.
    let at = JulianDate::from_ymd_hms(2023, 6, 1, 16, 0, 20.0);
    let mut dish = DishSimulator::new(Geodetic::new(41.66, -91.53, 0.2));

    let allocs = scheduler.allocate(&constellation, at);
    let first = &allocs[0];
    println!(
        "slot {}: {} satellites above 25°, scheduler chose {:?}",
        first.slot,
        first.available.len(),
        first.chosen_id()
    );
    let cap1 = dish.play_slot(&constellation, first.slot, first.slot_start, first.chosen_id());

    let next = at.plus_seconds(15.0);
    let allocs = scheduler.allocate(&constellation, next);
    let second = &allocs[0];
    println!("slot {}: scheduler chose {:?}", second.slot, second.chosen_id());
    let cap2 = dish.play_slot(&constellation, second.slot, second.slot_start, second.chosen_id());

    // Now pretend we never saw the scheduler: identify the serving
    // satellite from the two map snapshots and the published (stale) TLEs,
    // exactly as §4 of the paper does against the real network.
    let cache = PropagationCache::new(&constellation);
    let mut tracks = TrackCache::new(
        &cache,
        Geodetic::new(41.66, -91.53, 0.2),
        MIN_CANDIDATE_ELEVATION_DEG,
        CANDIDATE_SAMPLES_PER_SLOT,
    );
    let verdict = verdict_slot_tracked(&mut tracks, &cap1.map, &cap2.map, second.slot_start, 0.0);
    let identified = verdict.best().expect("a trajectory to match");

    println!(
        "identified satellite {} (DTW distance {:.1}, runner-up {:.1}, {} candidates)",
        identified.norad_id, identified.distance, identified.runner_up, identified.n_candidates
    );
    println!(
        "ground truth was {:?} → {}",
        second.chosen_id(),
        if Some(identified.norad_id) == second.chosen_id() { "correct!" } else { "missed" }
    );
}
