//! Discovery race: the three AP-discovery algorithms head-to-head over
//! the full sweep of fragment widths — an interactive rendering of
//! Figure 8, including the L-SIFT/J-SIFT crossover near 10 channels.
//!
//! ```sh
//! cargo run --release --example discovery_race
//! ```

// Rounded mean dwell counts become bar lengths; the f64→usize floor is
// the intended quantization.
#![allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]

use rand::Rng;
use rand::SeedableRng;
use whitefi::{
    baseline_discovery, expected_scans_j_sift, expected_scans_l_sift, j_sift_discovery,
    l_sift_discovery, SyntheticOracle,
};
use whitefi_phy::ChaCha8Rng;
use whitefi_spectrum::{SpectrumMap, UhfChannel};

fn main() {
    let trials = 200;
    println!("mean discovery dwells vs fragment width ({trials} random placements each)\n");
    println!("width  baseline   L-SIFT   J-SIFT   winner   bar (J=#, L=+)");
    let mut crossover = None;
    let mut prev_winner = 'L';
    for width in 1..=30usize {
        let mut map = SpectrumMap::all_occupied();
        for i in 0..width {
            map.set_free(UhfChannel::from_index(i));
        }
        let placements = map.available_channels();
        let mut rng = ChaCha8Rng::seed_from_u64(width as u64);
        let mut sums = [0.0f64; 3];
        for _ in 0..trials {
            let ap = placements[rng.gen_range(0..placements.len())];
            let mk = |s| SyntheticOracle::new(ap, ChaCha8Rng::seed_from_u64(s));
            sums[0] += f64::from(
                baseline_discovery(&mut mk(rng.gen()), map)
                    .expect("map has free channels")
                    .scans,
            );
            sums[1] += f64::from(
                l_sift_discovery(&mut mk(rng.gen()), map)
                    .expect("map has free channels")
                    .scans,
            );
            sums[2] += f64::from(
                j_sift_discovery(&mut mk(rng.gen()), map)
                    .expect("map has free channels")
                    .scans,
            );
        }
        let [b, l, j] = sums.map(|s| s / trials as f64);
        let winner = if l <= j { 'L' } else { 'J' };
        if prev_winner == 'L' && winner == 'J' && crossover.is_none() && width > 2 {
            crossover = Some(width);
        }
        prev_winner = winner;
        let bar: String = {
            let jn = j.round() as usize;
            let ln = l.round() as usize;
            (0..ln.max(jn))
                .map(|i| {
                    if i < jn && i < ln {
                        '*'
                    } else if i < jn {
                        '#'
                    } else {
                        '+'
                    }
                })
                .collect()
        };
        println!("{width:5}  {b:8.1}  {l:7.1}  {j:7.1}     {winner}     {bar}");
    }
    if let Some(c) = crossover {
        println!("\nJ-SIFT overtakes L-SIFT at fragment width {c} (theory: 10).");
    }
    println!(
        "closed forms at NC=30: L = {:.1}, J = {:.2}",
        expected_scans_l_sift(30),
        expected_scans_j_sift(30, 3)
    );
}
