//! Turning replay samples into decisions.
//!
//! "Each replay provides the adversary with a noisy sample. By replaying an
//! appropriate number of times, the adversary can disambiguate the secret
//! from the noise." (§1.1). The helpers here implement the three denoising
//! patterns the paper's evaluation uses:
//!
//! * threshold calibration from a baseline distribution (Figure 10 sets the
//!   contention threshold "slightly less than 120 cycles" from the
//!   multiplication victim's samples),
//! * over-threshold counting and ratio classification (the 64-vs-4, "16×"
//!   result of §6.1),
//! * per-line majority voting across replays for cache attacks (§6.2's
//!   "after several replays, the Replayer can reliably deduce the lines").

use microscope_mem::VAddr;
use microscope_os::Observation;
use std::collections::HashMap;

/// Arithmetic mean; 0.0 for an empty slice.
pub fn mean(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().sum::<u64>() as f64 / samples.len() as f64
}

/// The `p`-th percentile (0.0..=1.0) by nearest-rank; 0 for empty input.
pub fn percentile(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    let rank = ((p.clamp(0.0, 1.0)) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// Calibrates a contention threshold from a *baseline* run (victim known to
/// cause no contention): the given percentile of the baseline plus a safety
/// margin. Samples above this threshold in a measurement run indicate
/// contention.
pub fn calibrate_threshold(baseline: &[u64], p: f64, margin: u64) -> u64 {
    percentile(baseline, p) + margin
}

/// How many samples exceed the threshold.
pub fn count_over(samples: &[u64], threshold: u64) -> usize {
    samples.iter().filter(|s| **s > threshold).count()
}

/// Majority vote across a step's replays: returns the addresses classified
/// as cache hits in strictly more than `vote_fraction` of the replays.
///
/// # Panics
///
/// Panics if `vote_fraction` is not within `0.0..=1.0`.
pub fn majority_hits(
    observations: &[Observation],
    hit_threshold: u64,
    vote_fraction: f64,
) -> Vec<VAddr> {
    assert!((0.0..=1.0).contains(&vote_fraction));
    if observations.is_empty() {
        return Vec::new();
    }
    let mut votes: HashMap<VAddr, usize> = HashMap::new();
    for obs in observations {
        for hit in obs.hits(hit_threshold) {
            *votes.entry(hit).or_default() += 1;
        }
    }
    let needed = (vote_fraction * observations.len() as f64).floor() as usize;
    let mut out: Vec<VAddr> = votes
        .into_iter()
        .filter(|(_, v)| *v > needed)
        .map(|(a, _)| a)
        .collect();
    out.sort();
    out
}

/// Groups observations by step (pivot iteration) for per-step analysis.
pub fn by_step(observations: &[Observation]) -> Vec<(u64, Vec<&Observation>)> {
    let mut steps: Vec<(u64, Vec<&Observation>)> = Vec::new();
    for obs in observations {
        match steps.iter_mut().find(|(s, _)| *s == obs.step) {
            Some((_, v)) => v.push(obs),
            None => steps.push((obs.step, vec![obs])),
        }
    }
    steps.sort_by_key(|(s, _)| *s);
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use microscope_os::RecipeId;

    #[test]
    fn percentile_nearest_rank() {
        let v = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&v, 0.0), 10);
        assert_eq!(percentile(&v, 0.5), 30);
        assert_eq!(percentile(&v, 1.0), 50);
        assert_eq!(percentile(&[], 0.5), 0);
    }

    #[test]
    fn threshold_and_counting() {
        let baseline = [50, 52, 55, 51, 53];
        let t = calibrate_threshold(&baseline, 1.0, 5);
        assert_eq!(t, 60);
        assert_eq!(count_over(&[59, 60, 61, 200], t), 2);
    }

    #[test]
    fn contention_classification_matches_paper_shape() {
        // Baseline: 4 outliers of 10_000. Measured: 64 outliers (16x).
        let mut baseline = vec![50u64; 9996];
        baseline.extend([200; 4]);
        let mut measured = vec![50u64; 9936];
        measured.extend([200; 64]);
        let t = calibrate_threshold(&baseline, 0.999, 10);
        let (over, base_over) = (count_over(&measured, t), count_over(&baseline, t));
        assert!(over >= 15 * base_over.max(1), "{over} vs {base_over} over");
    }

    fn obs(step: u64, replay: u64, probes: Vec<(u64, u64)>) -> Observation {
        Observation {
            recipe: RecipeId(0),
            step,
            replay,
            cycle: 0,
            probes: probes.into_iter().map(|(a, l)| (VAddr(a), l)).collect(),
        }
    }

    #[test]
    fn majority_voting_suppresses_one_off_noise() {
        let observations = vec![
            obs(0, 1, vec![(0x1000, 4), (0x2000, 400)]),
            obs(0, 2, vec![(0x1000, 4), (0x2000, 4)]), // noisy hit
            obs(0, 3, vec![(0x1000, 4), (0x2000, 400)]),
        ];
        let hits = majority_hits(&observations, 100, 0.5);
        assert_eq!(hits, vec![VAddr(0x1000)]);
    }

    #[test]
    fn by_step_groups_in_order() {
        let observations = vec![obs(1, 1, vec![]), obs(0, 1, vec![]), obs(1, 2, vec![])];
        let grouped = by_step(&observations);
        assert_eq!(grouped.len(), 2);
        assert_eq!(grouped[0].0, 0);
        assert_eq!(grouped[1].1.len(), 2);
    }

    #[test]
    fn mean_of_empty_is_zero() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2, 4]), 3.0);
    }
}
